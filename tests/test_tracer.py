"""The benchmark's per-layer tracer (perfbench/tracer.py) wraps caproof
functions by name. A rename or a deleted function breaks the traced benchmark
runs without failing any other test, so this file loads the tracer unchanged
and checks every name it binds, then runs it on five commands."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(tracer):
    targets = [target for table in (tracer.SPANS, tracer.COUNTERS)
               for targets in table.values() for target in targets]
    assert targets
    for module_name, attr in targets:
        owner = importlib.import_module(f"caproof.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attr}"


@pytest.mark.parametrize("argv", [
    ["analyze", "--model", "dense-70b", "--hardware", "b200-sxm",
     "--batch", "1,16", "--context", "4k,300k"],
    ["compare-attention", "--model", "mha-48x2048", "--model", "mla-48x2048"],
    ["compare-moe", "--model", "dense-70b", "--model", "moe-256e"],
    ["agent-profile", "--model", "dense-70b", "--hardware", "b200-node8"],
    ["sweep", "--model", "dense-70b", "--hardware", "b200-sxm", "--workload", "chatbot"],
])
def test_traced_run_exits_0(argv, tmp_path):
    stats = tmp_path / "stats.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(TRACER), str(stats), *argv,
                           "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    stats = json.loads(stats.read_text())
    spans = stats["spans"]
    if argv[0] == "analyze":
        assert spans["analysis.classify"][0] >= 1
    if argv[0] in ("compare-attention", "compare-moe", "agent-profile"):
        # a chart command's rows, CSV and SVG builders, called by their bound names
        for span in ("reports.rows", "reports.csv", "reports.chart"):
            assert spans[span][0] >= 1, span
        assert stats["csv_bytes"] > 0
