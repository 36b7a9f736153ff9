"""Long-term ensemble learning of visual place classifiers.

Per-season retraining scheduling of a classifier ensemble, unsupervised
place-class definition from trajectories, probability-rank fusion, and
success-ratio evaluation. The only persistent artifact is the ensemble
state file (`save_state` / `load_state`): classifiers and partition
metadata, never training data.
"""

from .core import (
    ClassifierRecord,
    EnsembleState,
    MappedImage,
    PartitionSummary,
    PlaceClass,
    PlacePartition,
    RetrainHistory,
    TrainingSet,
    Viewpoint,
    angle_difference,
    membership_labels,
    normalize_angle,
    ones_count,
    path_length,
    viewpoint_distance,
)
from .sched import (
    Schedule,
    ScheduleDecision,
    StrategyConfig,
    evolve_schedule,
    next_schedule,
    score,
    st3_fusion_filter,
    weight_vector,
)
from .placedef import (
    ClusterAssignment,
    PartitionConfig,
    build_partition,
    incremental_margins,
    kmeans,
    l2_normalize,
    partition_by_location,
    partition_incremental,
    partition_location_appearance,
)
from .classify import (
    DivergenceError,
    ModelParams,
    TrainConfig,
    fine_tune,
    init_model,
    loss_and_gradient,
    models_equal,
    predict,
    train,
)
from .fusion import FusedResult, GlobalCandidate, Ranking, fuse, top_x
from .missions import (
    MissionConfig,
    initial_state,
    load_state,
    queries_from_set,
    run_adaptation,
    run_vpc,
    save_state,
    states_equal,
    success_ratio,
)
from .data import (
    DataError,
    DatasetBundle,
    SynthConfig,
    associate,
    load_bundle,
    load_features,
    load_manifest,
    load_poses,
    synth_generate,
    write_features,
    write_poses,
)

__version__ = "0.1.0"
