"""Reference VPC path: one query at a time, each slot ranked on its own, then
the per-slot lists merged by a Python sort.

This is the loop `missions.run_vpc` ran before it was batched, kept as the
oracle the batched path must reproduce exactly: same candidates, same order,
same probability bits.
"""

from __future__ import annotations

import numpy as np

from seasonvpc import FusedResult, GlobalCandidate
from seasonvpc.missions import active_slots


def predict_one(m, feature: np.ndarray) -> np.ndarray:
    """Class probabilities of one feature vector, as a (1, F) batch."""
    z1 = feature[None, :] @ m.w1.T + m.b1
    a1 = np.maximum(z1, 0.0)
    logits = a1 @ m.w2.T + m.b2
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return (e / e.sum(axis=1, keepdims=True))[0]


def top_x_one(probs: np.ndarray, partition, x: int, slot: int) -> list[GlobalCandidate]:
    """One slot's x most probable classes; ties go to the smaller class id."""
    order = sorted(range(len(probs)), key=lambda c: (-float(probs[c]), c))
    return [
        GlobalCandidate(source_classifier=slot, class_id=c, probability=float(probs[c]),
                        location=partition.classes[c].representative)
        for c in order[:x]
    ]


def fuse_lists(lists, x: int) -> FusedResult:
    merged = [c for lst in lists for c in lst]
    merged.sort(key=lambda c: (-c.probability, c.source_classifier, c.class_id))
    return FusedResult(ranked=tuple(merged[:x]))


def run_vpc_reference(state, queries, cfg) -> list[FusedResult]:
    results = []
    for q in queries:
        feature = np.asarray(q.feature, dtype=np.float64)
        lists = [
            top_x_one(predict_one(state.classifiers[j].model, feature),
                      state.classifiers[j].partition, cfg.fusion_x, slot=j)
            for j in active_slots(state, cfg.strategy)
        ]
        results.append(fuse_lists(lists, cfg.fusion_x))
    return results
