"""Fault-injection campaign engine (the FAIL*-equivalent substrate)."""

from .compose import SectionComposer
from .database import (
    CampaignSummary,
    export_class_results_csv,
    program_fingerprint,
)
from .experiment import (
    DEFAULT_TIMEOUT_FACTOR,
    DEFAULT_TIMEOUT_SLACK,
    ExecutorConfig,
    ExperimentExecutor,
    ExperimentRecord,
)
from .journal import (
    ExperimentJournal,
    JournalError,
    JournalMismatchError,
)
from .dist import DistCoordinator, DistWorker, run_distributed_scan
from .parallel import ParallelCampaign, resolve_jobs
from .golden import (
    DEFAULT_GOLDEN_CYCLE_LIMIT,
    MAX_CHECKPOINTS,
    CheckpointLadder,
    GoldenRun,
    GoldenRunError,
    record_golden,
)
from .outcomes import (
    BENIGN_OUTCOMES,
    CORRECTED_CODE,
    FAILURE_OUTCOMES,
    Outcome,
    PANIC_CODE,
    classify,
)
from .pipeline import ExecutionReport
from .runner import (
    BruteForceResult,
    CampaignResult,
    SAMPLERS,
    SamplingResult,
    run_brute_force,
    run_full_scan,
    run_sampling,
)

__all__ = [
    "BENIGN_OUTCOMES",
    "BruteForceResult",
    "CORRECTED_CODE",
    "CampaignResult",
    "CampaignSummary",
    "DEFAULT_GOLDEN_CYCLE_LIMIT",
    "DEFAULT_TIMEOUT_FACTOR",
    "DEFAULT_TIMEOUT_SLACK",
    "DistCoordinator",
    "DistWorker",
    "ExecutionReport",
    "ExecutorConfig",
    "ExperimentExecutor",
    "ExperimentJournal",
    "ExperimentRecord",
    "FAILURE_OUTCOMES",
    "JournalError",
    "JournalMismatchError",
    "SectionComposer",
    "ParallelCampaign",
    "resolve_jobs",
    "CheckpointLadder",
    "GoldenRun",
    "GoldenRunError",
    "MAX_CHECKPOINTS",
    "Outcome",
    "PANIC_CODE",
    "SAMPLERS",
    "SamplingResult",
    "classify",
    "export_class_results_csv",
    "program_fingerprint",
    "record_golden",
    "run_brute_force",
    "run_distributed_scan",
    "run_full_scan",
    "run_sampling",
]
