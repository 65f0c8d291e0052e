"""Analysis: figure/table data generators and plain-text reports."""

from .figures import (
    Fig2Series,
    fig1_data,
    fig2_data,
    fig2_verdicts,
    fig3_data,
    render_fault_space,
    table1_data,
)
from .report import (
    RAM_LOCATION_NOTE,
    completeness_report,
    failure_attribution,
    failure_delta_report,
    failure_delta_rows,
    fig2_report,
    fig3_report,
    format_table,
    outcome_histogram,
    table1_report,
    verdict_report,
)

__all__ = [
    "Fig2Series",
    "RAM_LOCATION_NOTE",
    "completeness_report",
    "failure_attribution",
    "failure_delta_report",
    "failure_delta_rows",
    "fig1_data",
    "fig2_data",
    "fig2_report",
    "fig2_verdicts",
    "fig3_data",
    "fig3_report",
    "format_table",
    "outcome_histogram",
    "render_fault_space",
    "table1_data",
    "table1_report",
    "verdict_report",
]
