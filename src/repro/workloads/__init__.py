"""Workload generators and harnesses for every figure in the paper."""

from .andrew import (COMPILE_CPU_SECONDS, PAPER_FIG12,
                     PAPER_FIG12_OVERHEADS, PHASES, AndrewResult, run_andrew)
from .createlist import PAPER_FIG9, CreateListResult, run_create_and_list
from .opcosts import (OPERATIONS, PAPER_FIG13_ANCHORS, OpCost, run_op_costs)
from .postmark import (FIG10_CACHE_FRACTIONS, FIG10_IMPLS,
                       PAPER_FIG10_ANCHORS, PostmarkResult, dataset_bytes,
                       run_postmark)
from .report import (ComparisonRow, format_comparison, format_table,
                     overhead_pct)
from .runner import (IMPLEMENTATIONS, LABELS, OBSERVED_WORKLOADS, BenchEnv,
                     make_env, run_observed, run_traced)
from .trace import (Trace, TraceOp, replay_timed,
                    synthesize_office_trace)

__all__ = [
    "make_env",
    "run_observed",
    "run_traced",
    "BenchEnv",
    "IMPLEMENTATIONS",
    "LABELS",
    "OBSERVED_WORKLOADS",
    "run_create_and_list",
    "CreateListResult",
    "PAPER_FIG9",
    "run_postmark",
    "PostmarkResult",
    "FIG10_IMPLS",
    "FIG10_CACHE_FRACTIONS",
    "PAPER_FIG10_ANCHORS",
    "dataset_bytes",
    "run_andrew",
    "AndrewResult",
    "PHASES",
    "PAPER_FIG12",
    "PAPER_FIG12_OVERHEADS",
    "COMPILE_CPU_SECONDS",
    "run_op_costs",
    "OpCost",
    "OPERATIONS",
    "PAPER_FIG13_ANCHORS",
    "ComparisonRow",
    "format_comparison",
    "format_table",
    "overhead_pct",
    "Trace",
    "TraceOp",
    "replay_timed",
    "synthesize_office_trace",
]
