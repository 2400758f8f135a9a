"""Golden artifacts: each scenario is rerun through `cli.run` and every file it
writes must match `tests/golden/<scenario>/` byte for byte.

The scenarios cover CLI paths the benchmark digests do not: decode-only
analysis with both accounting flags, a prefill-only grid, a workload sweep,
a grid-driven roofline plot, and the three comparison/profile charts.

To re-record after an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import shutil
from pathlib import Path

import pytest

from caproof.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden"

SCENARIOS = {
    "analyze-decode-flags": [
        "analyze", "--model", "dense-70b", "--hardware", "b200-node8", "--phase", "decode",
        "--batch", "1,16", "--context", "4k,300k",
        "--include-activations", "--replicate-weights",
    ],
    "sweep-grid-prefill": [
        "sweep", "--model", "dense-70b", "--hardware", "b200-sxm",
        "--grid", "B=1,8,L=1k..64k:log", "--phase", "prefill",
    ],
    "sweep-chatbot": [
        "sweep", "--model", "dense-70b", "--hardware", "b200-node8", "--workload", "chatbot",
    ],
    "roofline-plot-grid": [
        "roofline-plot", "--model", "dense-70b", "--hardware", "b200-sxm",
        "--batch", "1,4", "--context", "4k,32k",
    ],
    "compare-attention-log8": [
        "compare-attention", "--model", "mha-48x2048", "--model", "gqa8-48x2048",
        "--model", "mla-48x2048", "--batch", "4", "--grid", "L=1k..1m:log8",
    ],
    "compare-moe-32k": [
        "compare-moe", "--model", "dense-70b", "--model", "moe-256e",
        "--batch", "1,8", "--context", "32k",
    ],
    "agent-profile-two": [
        "agent-profile", "--model", "dense-70b", "--hardware", "b200-node8",
        "--workload", "coding-agent", "--workload", "chatbot",
    ],
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_bytes(name, tmp_path):
    assert run(SCENARIOS[name] + ["--out", str(tmp_path)]) == 0
    expected = sorted(p.name for p in (GOLDEN / name).iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    for file_name in expected:
        assert (tmp_path / file_name).read_bytes() == (GOLDEN / name / file_name).read_bytes(), (
            f"{name}/{file_name} differs from its golden copy"
        )


def record() -> None:
    for name, argv in SCENARIOS.items():
        shutil.rmtree(GOLDEN / name, ignore_errors=True)
        if run(argv + ["--out", str(GOLDEN / name)]) != 0:
            raise SystemExit(f"scenario {name} did not exit 0")


if __name__ == "__main__":
    record()
