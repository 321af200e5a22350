"""Evaluation harness: the paper's tables and figures (:data:`FIGURES`)
and what they are built from."""

from repro.eval.config import PAPER_JOIN_BUFFERS, ExperimentConfig
from repro.eval.context import ORG_NAMES, ExperimentContext
from repro.eval.figures import FIGURES
from repro.eval.metrics import (
    WorkloadAggregate,
    run_point_queries,
    run_window_queries,
)
from repro.eval.report import format_header, format_rows, format_table

__all__ = [
    "ExperimentConfig",
    "ExperimentContext",
    "FIGURES",
    "ORG_NAMES",
    "PAPER_JOIN_BUFFERS",
    "WorkloadAggregate",
    "run_window_queries",
    "run_point_queries",
    "format_table",
    "format_rows",
    "format_header",
]
