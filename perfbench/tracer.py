"""Run one `caproof` CLI invocation with per-layer spans, from outside the package.

Usage: python3 tracer.py <stats.json> <caproof arguments...>

The caproof package is imported unchanged (PYTHONPATH must point at its
`src/` directory). Before `cli.run` is called, the public functions of each
module are replaced, in every caproof module namespace that binds them, by
wrappers that time the call (spans) or only count it (counters). Spans are
aggregated per name in memory rather than stored one by one, because
`analysis.classify` runs once per grid point; each span's time is also
credited to its parent so that self time (duration minus the time covered by
child spans) can be computed. The aggregates are written as JSON when the
command ends.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

perf_counter = time.perf_counter

# Timed layers: span name -> (module, attribute) pairs it covers.
SPANS = {
    "cli.run": [("cli", "run")],
    "cli.build_parser": [("cli", "build_parser")],
    "config.resolve": [("config", "resolve_config")],
    "workload.expand": [("workload", "expand")],
    "analysis.sweep": [("analysis", "sweep_grid"), ("analysis", "sweep_workload")],
    "analysis.classify": [("analysis", "classify")],
    "reports.csv": [
        ("reports", "sweep_csv"),
        ("reports", "compare_attention_csv"),
        ("reports", "compare_moe_csv"),
        ("reports", "agent_profile_csv"),
    ],
    "reports.text": [("reports", "sweep_text")],
    "reports.svg": [("reports", "roofline_svg")],
    "reports.chart": [
        ("reports", "compare_attention_svg"),
        ("reports", "compare_moe_svg"),
        ("reports", "agent_profile_svg"),
    ],
    "reports.rows": [
        ("reports", "compare_attention_rows"),
        ("reports", "compare_moe_rows"),
        ("reports", "agent_profile_rows"),
    ],
    "svg.to_svg": [("svg", "Canvas.to_svg")],
}

# Counted-only calls: too frequent to time without distorting their parent.
COUNTERS = {
    "metrics.phase_metrics": [("metrics", "phase_metrics")],
    "model.total_params": [("model", "total_params")],
}


class Tracer:
    def __init__(self):
        # name -> [calls, total seconds, seconds covered by child spans]
        self.spans = {}
        self.counts = {}
        self.stack = []
        self.csv_bytes = 0
        self.write_bytes = 0

    def timed(self, name, fn):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += frame[0]
                if stack:
                    stack[-1][0] += elapsed

        return wrapper

    def counted(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _rebind(modules, original, replacement):
    """Point every caproof module global bound to `original` at `replacement`."""
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == "caproof" or n.startswith("caproof."))]
    by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
    for table, make in ((SPANS, tracer.timed), (COUNTERS, tracer.counted)):
        for name, targets in table.items():
            for module_name, attr in targets:
                owner = by_name[module_name]
                if "." in attr:  # a method: patch it on its class
                    cls_name, _, method = attr.partition(".")
                    cls = getattr(owner, cls_name)
                    setattr(cls, method, make(name, getattr(cls, method)))
                    continue
                original = getattr(owner, attr)
                _rebind(modules, original, make(name, original))

    # Byte counts of what the CLI renders and writes; counters, not spans, so
    # artifact writes stay in cli.run's self time.
    reports = by_name["reports"]
    for attr in ("sweep_csv", "compare_attention_csv", "compare_moe_csv", "agent_profile_csv"):
        timed_fn = getattr(reports, attr)

        def csv_counter(*args, _fn=timed_fn, **kwargs):
            text = _fn(*args, **kwargs)
            tracer.csv_bytes += len(text)  # CSV output is ASCII
            return text

        _rebind(modules, timed_fn, csv_counter)

    cli = by_name["cli"]
    write_artifacts = cli._write_artifacts

    def write_counter(*args, **kwargs):
        paths = write_artifacts(*args, **kwargs)
        tracer.write_bytes += sum(p.stat().st_size for p in paths)
        return paths

    cli._write_artifacts = write_counter


def main(argv) -> int:
    stats_path, cli_args = Path(argv[0]), argv[1:]
    start = perf_counter()
    import caproof.cli  # noqa: F401  (import time is a measured layer)

    import_s = perf_counter() - start
    tracer = Tracer()
    install(tracer)
    code = 1
    try:
        code = sys.modules["caproof.cli"].run(cli_args)
    finally:
        stats_path.write_text(json.dumps({
            "import_s": import_s,
            "spans": tracer.spans,
            "counts": tracer.counts,
            "csv_bytes": tracer.csv_bytes,
            "write_bytes": tracer.write_bytes,
        }))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
