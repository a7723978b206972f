"""truthfuse: truth discovery over conflicting multi-source claims.

Jointly estimates per-source accuracy and pairwise copying between
sources, then selects the most probable value for every object.
"""

__version__ = "0.1.0"

from .accuracy import (
    SourceAccuracy,
    ValuePosterior,
    accuracy_score,
    select_truth,
    source_accuracies,
    value_posteriors,
)
from .copydetect import (
    CopyEstimate,
    CopyMatrix,
    PairObservation,
    conditional_pair_probs,
    copy_posterior,
    detect_all,
    initial_copy_matrix,
)
from .engine import (
    FusionReport,
    FusionState,
    ModelVariant,
    Termination,
    check_termination,
    initial_state,
    run,
    step_round,
)
from .errors import FusionError
from .evaluation import (
    ErrorType,
    GeneratedWorld,
    WorldSpec,
    classify_errors,
    generate_world,
    precision,
    sampled_accuracy,
)
from .ingest import normalize_author_list, parse_claims, parse_golden
from .model import Claim, Dataset, FusionConfig, build_dataset
from .similarity import adjust_confidences, ngram_jaccard, similarity_weights
from .vote import classify_direction

__all__ = [
    "__version__",
    "Claim",
    "CopyEstimate",
    "CopyMatrix",
    "Dataset",
    "ErrorType",
    "FusionConfig",
    "FusionError",
    "FusionReport",
    "FusionState",
    "GeneratedWorld",
    "ModelVariant",
    "PairObservation",
    "SourceAccuracy",
    "Termination",
    "ValuePosterior",
    "WorldSpec",
    "accuracy_score",
    "adjust_confidences",
    "build_dataset",
    "check_termination",
    "classify_direction",
    "classify_errors",
    "conditional_pair_probs",
    "copy_posterior",
    "detect_all",
    "generate_world",
    "initial_copy_matrix",
    "initial_state",
    "ngram_jaccard",
    "normalize_author_list",
    "parse_claims",
    "parse_golden",
    "precision",
    "run",
    "sampled_accuracy",
    "select_truth",
    "similarity_weights",
    "source_accuracies",
    "step_round",
    "value_posteriors",
]
