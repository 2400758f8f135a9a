"""Operational-intensity and capacity-footprint analysis for LLM agent
inference workloads on a capacity-extended roofline model."""

from types import ModuleType as _Module

from .analysis import (
    BoundClass,
    PhaseAnalysis,
    SweepResult,
    SweepRow,
    classify,
    max_feasible_batch,
    min_devices,
    sweep_grid,
    sweep_workload,
)
from .config import (
    ConfigError,
    dump_config,
    list_catalog,
    load_config,
    resolve_config,
    spec_to_dict,
)
from .hardware import HardwareSpec, UnknownPrecisionError, attainable_flops, ridge_point
from .metrics import (
    OperatingPoint,
    PhaseMetrics,
    cf_request,
    decode_metrics,
    oi_matmul,
    oi_matmul_bytes,
    phase_metrics,
    prefill_metrics,
)
from .model import (
    GQA,
    MHA,
    MLA,
    MoESpec,
    ModelSpec,
    Phase,
    activated_params,
    flops_per_token,
    kv_bytes_per_token,
    total_params,
    weight_bytes,
)
from .workload import TurnRecord, TurnTrace, WorkloadSpec, expand, total_tokens

__version__ = "0.1.0"
# The public API is what the imports above bind: every name but modules and _private ones.
__all__ = sorted(name for name, value in vars().items()
                 if not name.startswith("_") and not isinstance(value, _Module))
