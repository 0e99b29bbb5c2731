"""Reliability-aware high-level synthesis toolkit.

Schedules, binds, and allocates the operations of a data-flow graph
onto a library of hardware component versions (differing in area,
delay, and reliability), maximizing whole-design reliability under
latency and area bounds.  Includes soft-error-based component
characterization, a redundancy-only baseline, a combined flow, and an
exhaustive oracle for small instances.
"""

from .binder import Binding, Instance, bind, total_area, with_nmr
from .charlib import (
    CharInput,
    CharModel,
    CharRecord,
    calibrate_qs,
    characterize,
    reliability_from_failure_rate,
    ser_ratio,
)
from .model import (
    Assignment,
    BENCHMARK_NAMES,
    Bounds,
    Design,
    Dfg,
    DfgNode,
    Infeasible,
    OpClass,
    ParseError,
    ResourceLibrary,
    ResourceVersion,
    ValidationError,
    builtin_benchmark,
    builtin_library,
    evaluate_reliability,
    nmr_reliability,
    parse_dfg,
    parse_library,
    render_dfg,
)
from .oracle import OracleLimitError, oracle_best, oracle_min_latency
from .redundancy import baseline_nmr_synth, combined_synth, greedy_nmr_upgrade
from .scheduler import (
    InfeasibleBoundError,
    Schedule,
    alap,
    asap,
    density_schedule,
)
from .synthesizer import find_design, initial_allocation

__version__ = "0.1.0"
