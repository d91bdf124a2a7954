"""Deterministic evaluation bench for template-updating biometric verifiers.

The bench simulates a verification system whose per-user references
adapt while being used, replays configurable query streams against
them, and computes the equal error rate under several result
presentations so that evaluation-protocol choices can be compared on
identical score sets.
"""

__version__ = "0.1.0"

from .core import (
    Dataset,
    Label,
    Mode,
    QueryEvent,
    Sample,
    ScoreLog,
    ScoreRecord,
    score_log_violations,
)
from .errors import (
    BenchError,
    ConfigError,
    EnrollmentError,
    FormatError,
    MetricError,
    StreamError,
    ValidationError,
)
from .evaluator import (
    ExperimentConfig,
    RunResult,
    run_experiment,
)
from .ingest import CMU_KEYSTROKE, ColumnMapping, read_dataset, write_dataset
from .matcher import (
    EPSILON,
    ReferenceLanes,
    centered_score,
    enroll,
    raw_score,
    refresh_statistics,
)
from .metrics import (
    Scheme,
    aggregate,
    compute_scheme,
    eer,
    session_eers,
)
from .stream import (
    GlobalOrder,
    LocalOrder,
    SessionPolicy,
    StreamConfig,
    StreamState,
    impostor_count,
    next_query,
    plan_session,
    session_layouts,
)
from .synthdata import SynthConfig, generate
from .update import (
    StrategyKind,
    UpdateOutcome,
    UpdateStrategy,
    impostor_inclusion,
    maybe_update,
)
