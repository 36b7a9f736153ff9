"""Set-up as a user pays it: import the package and read every season.

    python3 perfbench/setup_child.py SRC_DIR MANIFEST [MANIFEST ...]

Run in a fresh interpreter so the import is cold; prints one JSON line
with the elapsed seconds and the number of season files read.
"""

import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from seasonvpc import data  # noqa: E402

n = 0
for manifest in sys.argv[2:]:
    f_dim, bundles = data.load_manifest(manifest)
    for bundle in bundles:
        data.load_bundle(bundle, f_dim)
        n += 1
print(json.dumps({"setup_s": time.perf_counter() - t0, "seasons": n,
                  "module": data.__file__}))
