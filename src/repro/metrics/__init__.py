"""Metrics: the paper's sound comparison metric and the unsound ones.

The intended public workflow::

    from repro.campaign import record_golden, run_full_scan
    from repro.metrics import compare

    base = run_full_scan(record_golden(baseline_program))
    hard = run_full_scan(record_golden(hardened_program))
    print(compare(base, hard).describe())   # r = F_hardened / F_baseline
"""

from .comparison import (
    COMPARISON_COLUMNS,
    Comparison,
    ComparisonReport,
    compare,
    comparison_report,
    comparison_table,
    export_comparison_csv,
)
from .confidence import (
    Interval,
    binomial_pmf,
    clopper_pearson_interval,
    extrapolated_failure_interval,
    failure_proportion_interval,
    interval_coverage,
    required_samples,
    wald_interval,
    wilson_interval,
)
from .coverage import (
    activated_only_coverage,
    coverage_from_counts,
    sampled_coverage,
    unweighted_coverage,
    weighted_coverage,
)
from .failure_counts import (
    FailureCount,
    expected_biased_class_estimate,
    extrapolated_failure_count,
    failure_count,
    raw_sample_failure_count,
    unweighted_failure_count,
    weighted_failure_count,
)
from .mwtf import mwtf, mwtf_ratio
from .poisson import (
    PAPER_RATE_PER_BIT_CYCLE,
    PUBLISHED_FIT_PER_MBIT,
    PoissonFaultModel,
    fit_to_rate_per_bit_cycle,
    mean_published_rate,
    paper_table1_model,
)

__all__ = [
    "COMPARISON_COLUMNS",
    "Comparison",
    "ComparisonReport",
    "FailureCount",
    "Interval",
    "PAPER_RATE_PER_BIT_CYCLE",
    "PUBLISHED_FIT_PER_MBIT",
    "PoissonFaultModel",
    "activated_only_coverage",
    "binomial_pmf",
    "clopper_pearson_interval",
    "compare",
    "comparison_report",
    "comparison_table",
    "export_comparison_csv",
    "coverage_from_counts",
    "expected_biased_class_estimate",
    "extrapolated_failure_count",
    "extrapolated_failure_interval",
    "failure_count",
    "failure_proportion_interval",
    "fit_to_rate_per_bit_cycle",
    "interval_coverage",
    "mean_published_rate",
    "mwtf",
    "mwtf_ratio",
    "paper_table1_model",
    "raw_sample_failure_count",
    "required_samples",
    "sampled_coverage",
    "unweighted_coverage",
    "unweighted_failure_count",
    "wald_interval",
    "weighted_coverage",
    "weighted_failure_count",
    "wilson_interval",
]
