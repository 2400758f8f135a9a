"""caproof's public API is the 43 names its package imports bind, and a star
import binds exactly them."""

import os
import subprocess
import sys
from pathlib import Path

import caproof

PUBLIC = [
    "BoundClass", "ConfigError", "GQA", "HardwareSpec", "MHA", "MLA", "MoESpec", "ModelSpec",
    "OperatingPoint", "Phase", "PhaseAnalysis", "PhaseMetrics", "SweepResult", "SweepRow",
    "TurnRecord", "TurnTrace", "UnknownPrecisionError", "WorkloadSpec", "activated_params",
    "attainable_flops", "cf_request", "classify", "decode_metrics", "dump_config", "expand",
    "flops_per_token", "kv_bytes_per_token", "list_catalog", "load_config", "max_feasible_batch",
    "min_devices", "oi_matmul", "oi_matmul_bytes", "phase_metrics", "prefill_metrics",
    "resolve_config", "ridge_point", "spec_to_dict", "sweep_grid", "sweep_workload",
    "total_params", "total_tokens", "weight_bytes",
]


def test_all_is_the_pinned_public_names():
    assert len(PUBLIC) == 43
    assert caproof.__all__ == PUBLIC


def test_star_import_binds_exactly_the_public_names():
    child = ("before = set(globals()); from caproof import *; "
             "print(sorted(set(globals()) - before - {'before'}))")
    src = str(Path(caproof.__file__).parent.parent)
    done = subprocess.run([sys.executable, "-c", child], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    assert done.stdout == f"{PUBLIC}\n"
