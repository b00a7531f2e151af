"""Distribution-agnostic de-anonymization of correlated databases.

Simulates pairs of randomly generated databases linked by a hidden row
permutation, column repetitions (deletions/replications), and
memoryless noise, then recovers the permutation without prior knowledge
of any of the underlying distributions: replica detection from
adjacent-column statistics, seeded deletion detection by outlier
scanning, plug-in distribution estimation, and typicality-based row
matching, plus a Monte Carlo harness for growth-rate phase-transition
studies.
"""

from .deletions import (
    MisdetectionError,
    NoUsefulRemappingError,
    RetentionResult,
    cross_hamming,
    detect_deletions,
    deletion_threshold,
    enumerate_remappings,
    infer_alphabet_size,
)
from .estimation import (
    DistributionEstimate,
    assemble_joint,
    estimate_from_seeds,
    estimate_p_s,
    estimate_p_y_given_x,
    from_model_spec,
)
from .experiment import (
    ExperimentConfig,
    ExperimentReport,
    InfeasibleSizeError,
    run_experiment,
    run_trial,
    wilson_interval,
)
from .infotheory import (
    CapacityReport,
    MixtureTruth,
    capacity,
    entropy,
    mixture_truth,
    repetition_table,
)
from .matching import (
    MatchResult,
    PipelineResult,
    SegmentedDatabase,
    deanonymize,
    estimate_stages,
    match_rows,
    segment,
)
from .model import (
    DatabasePair,
    ModelSpec,
    RepetitionPattern,
    SeedPair,
    apply_channel,
    draw_pattern,
    generate_database,
    generate_seeds,
    sample_instance,
    substream,
)
from .replicas import (
    MixtureEstimate,
    SingleComponentError,
    blischke_estimate,
    column_runs,
    detect_replicas,
    running_hamming,
)

__version__ = "0.1.0"
