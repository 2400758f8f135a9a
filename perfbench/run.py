"""Benchmark for the caproof CLI.

Usage (from the repository root):

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

One closed-loop client runs passes of a workload for about --seconds
(default: run_seconds in BENCHMARK.json): each pass runs the workload's
`caproof` commands one after another, each in a fresh interpreter, with one
child process at a time. Every artifact is checked (sha256 against recorded
digests and against the run's first pass, plus a seeded oracle sample of
sweep-CSV rows), and the end-to-end figures that apply to the workload are
printed by name with their units, times scaled by a host-speed probe timed
between passes. With --trace 1, passes alternate between
plain and traced children (perfbench/tracer.py) and the per-layer figures
are printed instead. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; its metrics are the ones
BENCHMARK.json lists for the mode.

Workloads are described in BENCHMARK.json and perfbench/README.md, and the
end-to-end metric each layer figure should move in perfbench/layers.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shlex
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"
BENCHMARK = ROOT / "BENCHMARK.json"
TRACER = HERE / "tracer.py"
ENTRY = HERE / "entry.py"
SETUP_PROBE = "import caproof.cli"
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 170
ORACLE_SAMPLE = 100
# Host-speed probe: a fresh interpreter that imports the standard-library
# modules caproof imports, the start-up every pass pays, timed after each pass
# for PROBE_SHARE of the pass's time. A shared host runs the same code up to a
# third slower for minutes at a time, so timings are scaled by PROBE_REF_S
# over the run's median probe time: they read as seconds on a host where the
# probe takes PROBE_REF_S. The probe runs no caproof code, so a change to
# caproof moves the scaled figures in full.
PROBE_CODE = ("import argparse, csv, dataclasses, enum, io, json, math, pathlib, typing; "
              "from importlib import resources")
PROBE_REF_S = 0.1
PROBE_SHARE = 0.05
DEFAULT_SEED = 0
# Non-default seeds move each grid's L endpoints by up to this share.
ENDPOINT_BAND = 0.05

README_COMMANDS = [
    "analyze --model dense-70b --hardware b200-sxm --batch 1,16 --context 4k,300k --out out/",
    'sweep --model dense-70b --hardware b200-node8 --grid "B=1..64,L=1k..1m:log" --out out/',
    "sweep --model dense-70b --hardware b200-node8 --workload coding-agent --out out/",
    "roofline-plot     --model dense-70b --hardware b200-sxm --workload coding-agent --out out/",
    "compare-attention --model mha-48x2048 --model gqa8-48x2048 --model mla-48x2048 --out out/",
    "compare-moe       --model dense-70b --model moe-256e --out out/",
    "agent-profile     --model dense-70b --hardware b200-node8 --out out/",
]


def _endpoint(rng: random.Random, value: int) -> int:
    return round(value * (1 + rng.uniform(-ENDPOINT_BAND, ENDPOINT_BAND)))


def _grid(seed: int, lo: int, hi: int, points: str) -> str:
    if seed != DEFAULT_SEED:
        rng = random.Random(seed)
        lo, hi = _endpoint(rng, lo), _endpoint(rng, hi)
    return f"L={lo}..{hi}:{points}"


def workload_commands(name: str, seed: int) -> List[List[str]]:
    """The caproof argument lists one pass of the workload runs, in order."""
    if name == "grid-dense-128k":
        grid = "B=1..64," + _grid(seed, 1_000, 1_000_000, "log1000")
        return [["sweep", "--model", "dense-70b", "--hardware", "b200-node8",
                 "--grid", grid, "--out", "out/"]]
    if name == "grid-mla-decode":
        grid = "B=1..256," + _grid(seed, 16, 16_000_000, "log500")
        return [["sweep", "--model", "mla-48x2048", "--hardware", "b200-sxm",
                 "--phase", "decode", "--grid", grid, "--format", "csv", "--out", "out/"]]
    if name == "cli-catalog":
        return [shlex.split(command) for command in README_COMMANDS]
    raise KeyError(name)


# The workloads BENCHMARK.json lists. grid-mla-decode runs only when named:
# its passes take as long as grid-dense-128k's, and three workloads leave
# too little run time per workload for a steady median of such passes.
WORKLOADS = ["grid-dense-128k", "cli-catalog"]
EXTRA_WORKLOADS = ["grid-mla-decode"]


def command_key(argv: List[str]) -> str:
    return shlex.join(argv)


def flag_value(argv: List[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


@dataclass
class Invocation:
    argv: List[str]
    wall_s: float
    exit_code: int
    rss_mb: float = 0.0
    digests: Dict[str, str] = field(default_factory=dict)
    sizes: Dict[str, int] = field(default_factory=dict)
    stats: Optional[dict] = None
    error: str = ""


@dataclass
class Pass:
    traced: bool
    invocations: List[Invocation]
    elapsed_s: float

    @property
    def wall_s(self) -> float:
        return sum(inv.wall_s for inv in self.invocations)


class Runner:
    """Spawns caproof children one at a time and checks what they write."""

    def __init__(self, work: Path):
        self.work = work
        self.cwd = work / "cwd"
        self.reference = work / "reference"
        # Children cache bytecode under the checkout whatever the caller's
        # environment says, as an installed package would have it cached.
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
                    "PYTHONPYCACHEPREFIX": str(WORK / "pycache")}
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def spawn(self, args: List[str], cwd: Path):
        """Run `python args...`; returns (wall seconds, exit code, stderr)."""
        err_path = self.work / "stderr.txt"
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                code = proc.wait()
            finally:
                timer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
            wall = time.perf_counter() - start
        stderr = err_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        return wall, code, stderr

    def probe_host(self, busy_s: float) -> List[float]:
        """Host-speed probe times, for about busy_s seconds and at least one."""
        times: List[float] = []
        while not times or sum(times) < busy_s:
            wall, code, stderr = self.spawn(["-c", PROBE_CODE], self.cwd)
            if code != 0:
                raise RuntimeError(f"host-speed probe failed: {stderr.strip()}")
            times.append(wall)
        return times

    def setup_probe(self) -> float:
        wall, code, stderr = self.spawn(["-c", SETUP_PROBE], self.cwd)
        if code != 0:
            raise RuntimeError(f"importing caproof.cli failed: {stderr.strip()}")
        return wall

    def run_pass(self, commands: List[List[str]], traced: bool, keep: bool) -> Pass:
        """One pass; with keep, the CSVs are moved to the reference directory."""
        start = time.perf_counter()
        out = self.cwd / "out"
        invocations = []
        for index, argv in enumerate(commands):
            shutil.rmtree(out, ignore_errors=True)
            # The traced child writes its span aggregates here, the plain one
            # its peak RSS in kB.
            record = self.work / "child.out"
            record.unlink(missing_ok=True)
            wall, code, stderr = self.spawn(
                [str(TRACER if traced else ENTRY), str(record), *argv], self.cwd)
            inv = Invocation(argv, wall, code, error=stderr.strip() if code else "")
            for path in sorted(out.glob(argv[0] + ".*")):
                inv.digests[path.name] = check.sha256(path)
                inv.sizes[path.name] = path.stat().st_size
                if keep and path.suffix == ".csv":
                    path.replace(self.reference / f"{index}-{path.name}")
            if record.is_file():
                text = record.read_text(encoding="utf-8")
                if traced:
                    inv.stats = json.loads(text)
                else:
                    inv.rss_mb = int(text) * 1024 / 1e6
            invocations.append(inv)
        shutil.rmtree(out, ignore_errors=True)
        return Pass(traced, invocations, time.perf_counter() - start)


def measure(runner: Runner, commands, seconds: float, kinds):
    """Closed loop: start the next pass only if the slowest pass of its kind
    so far would still end within the window, which keeps a run's length
    predictable; every kind runs at least once. A set-up probe runs
    before each pass and the host-speed probe after it, so both are sampled
    across the whole window; returns (passes, set-up times, host-speed probe
    times)."""
    passes: List[Pass] = []
    setup: List[float] = []
    host = runner.probe_host(0.0)
    start = time.perf_counter()
    turn = 0
    while True:
        traced = kinds[turn % len(kinds)]
        history = [p.elapsed_s for p in passes if p.traced == traced]
        if history and time.perf_counter() - start + max(history) * (1 + PROBE_SHARE) > seconds:
            break
        setup.append(runner.setup_probe())
        passes.append(runner.run_pass(commands, traced, keep=not passes))
        host += runner.probe_host(PROBE_SHARE * passes[-1].elapsed_s)
        turn += 1
    while len(setup) < SETUP_REPEATS:
        setup.append(runner.setup_probe())
    return passes, setup, host


def verify(runner: Runner, commands, passes: List[Pass], seed: int, recorded) -> dict:
    """Mark failed invocations; returns the exact counters of the workload."""
    first = passes[0].invocations
    notes = []
    for p in passes:
        for index, inv in enumerate(p.invocations):
            key = command_key(inv.argv)
            if inv.exit_code != 0:
                inv.error = inv.error or f"exit code {inv.exit_code}"
            elif not inv.digests:
                inv.error = "no artifacts written"
            elif inv.digests != first[index].digests:
                inv.error = "artifacts differ from the first pass of this run"
            elif key in recorded and inv.digests != recorded[key]:
                inv.error = "artifacts differ from the recorded digests"
    unrecorded = [command_key(argv) for argv in commands if command_key(argv) not in recorded]
    if unrecorded:
        notes.append(f"no recorded digests for {len(unrecorded)} command(s); "
                     "checked rerun identity and the oracle only")

    from caproof.config import resolve_config

    oracles = check.load_oracles(ROOT)
    rng = random.Random(f"oracle:{seed}")
    counters = {"csv_rows": 0, "class_mix": {}, "artifact_bytes": {}, "oracle_rows": 0}
    for index, inv in enumerate(first):
        counters["artifact_bytes"].update(
            {f"{index}:{name}": size for name, size in inv.sizes.items()})
        for name in inv.digests:
            if not name.endswith(".csv"):
                continue
            header, rows = check.read_rows(runner.reference / f"{index}-{name}")
            counters["csv_rows"] += len(rows)
            if header[0] != check.SWEEP_SCHEMA_FIRST_COLUMN or "--model" not in inv.argv:
                continue
            counters["class_mix"][f"{index}:{name}"] = check.class_mix(header, rows)
            oracle = check.RowOracle(
                oracles,
                resolve_config(flag_value(inv.argv, "--model"), "model"),
                resolve_config(flag_value(inv.argv, "--hardware"), "hardware"),
            )
            checked, problems = check.oracle_mismatches(oracle, header, rows, rng, ORACLE_SAMPLE)
            counters["oracle_rows"] += checked
            if problems and not inv.error:
                inv.error = "oracle mismatch: " + "; ".join(problems[:3])
    counters["notes"] = notes
    return counters


def _quantile(values: List[float], q: int) -> float:
    """q-th percentile (inclusive method) of values."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes: List[Pass], setup: List[float], scale: float, csv_rows: int) -> dict:
    """The end-to-end figures that apply to the workload, with times scaled
    to the reference host speed. A pass of one sweep has a stated row count,
    so it gets rows_per_s; a pass of several commands gets per-command
    latencies, which for one command would only repeat wall_s."""
    wall = statistics.median(p.wall_s for p in passes) * scale
    figures = {
        "setup_s": (statistics.median(setup) * scale, "s"),
        "wall_s": (wall, "s"),
        "peak_rss_mb": (statistics.median(max(inv.rss_mb for inv in p.invocations)
                                          for p in passes), "MB"),
    }
    if len(passes[0].invocations) == 1:
        figures["rows_per_s"] = (csv_rows / wall, "1/s")
    else:
        cmd_ms = [inv.wall_s * scale * 1000 for p in passes for inv in p.invocations]
        figures["cmd_ms_p50"] = (statistics.median(cmd_ms), "ms")
        figures["cmd_ms_p90"] = (_quantile(cmd_ms, 90), "ms")
    return figures


def _layers(p: Pass) -> dict:
    """Per-layer figures of one traced pass, summed over its invocations. A
    span that was never called has no figure."""
    spans: Dict[str, List[float]] = {}
    counts: Dict[str, int] = {}
    import_s = csv_bytes = write_bytes = 0.0
    for inv in p.invocations:
        stats = inv.stats or {"import_s": 0.0, "spans": {}, "counts": {},
                              "csv_bytes": 0, "write_bytes": 0}
        import_s += stats["import_s"]
        csv_bytes += stats["csv_bytes"]
        write_bytes += stats["write_bytes"]
        for name, (calls, total, child) in stats["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += child
        for name, calls in stats["counts"].items():
            counts[name] = counts.get(name, 0) + calls

    spans = {name: acc for name, acc in spans.items() if acc[0]}
    figures = {
        "caproof.import_s": (import_s, "s"),
        "cli.write_mb": (write_bytes / 1e6, "MB"),
    }
    if "cli.run" in spans:
        _, total, child = spans["cli.run"]
        figures["cli.self_s"] = (total - child, "s")
    for span, name in (("cli.build_parser", "cli.build_parser_s"),
                       ("config.resolve", "config.resolve_s"),
                       ("workload.expand", "workload.expand_s"),
                       ("analysis.sweep", "analysis.sweep_s"),
                       ("reports.csv", "reports.csv_s"),
                       ("reports.text", "reports.text_s"),
                       ("reports.svg", "reports.svg_s"),
                       ("svg.to_svg", "svg.to_svg_s"),
                       ("reports.chart", "reports.chart_s")):
        if span in spans:
            figures[name] = (spans[span][1], "s")
    if "config.resolve" in spans:
        figures["config.resolve_calls"] = (spans["config.resolve"][0], "count")
    if "analysis.classify" in spans:
        calls, total, _ = spans["analysis.classify"]
        figures["analysis.classify_calls"] = (calls, "count")
        figures["analysis.classify_us"] = (total / calls * 1e6, "us")
        for counter in ("metrics.phase_metrics", "model.total_params"):
            figures[counter + "_per_classify"] = (counts.get(counter, 0) / calls, "ratio")
    if "reports.csv" in spans:
        figures["reports.csv_mb_per_s"] = (csv_bytes / 1e6 / spans["reports.csv"][1], "MB/s")
    return figures


def per_layer(passes: List[Pass]) -> dict:
    """Median per-layer figures over the traced passes, plus the tracing cost:
    the median over traced passes of their wall time over the mean of their
    plain neighbours', a ratio that stays positive however small the cost is
    against the noise."""
    traced = [p for p in passes if p.traced]
    figures = [_layers(p) for p in traced]
    result = {name: (statistics.median(f[name][0] for f in figures), unit)
              for name, (_, unit) in figures[0].items()}
    ratios = []
    for index, p in enumerate(passes):
        if p.traced:
            plain = [q.wall_s for q in passes[max(index - 1, 0):index + 2] if not q.traced]
            ratios.append(p.wall_s / statistics.mean(plain))
    result["trace.overhead_ratio"] = (statistics.median(ratios), "ratio")
    return result


def run_context() -> dict:
    nproc = len(os.sched_getaffinity(0))
    commit = "unknown"
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        if git.returncode == 0:
            commit = git.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": tree_digest(ROOT / "src"),
        "nproc": nproc,
        "python": sys.version.split()[0],
        "cpu": cpu,
        "loadavg_before": os.getloadavg()[0],
    }


def tree_digest(directory: Path) -> str:
    """sha256 over the relative paths and bytes of the source files."""
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts and ".egg-info" not in str(path):
            digest.update(str(path.relative_to(directory)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    commands = workload_commands(name, seed)
    context = run_context()
    work = WORK / "work"
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(work)
    runner.cwd.mkdir(parents=True)
    runner.reference.mkdir(parents=True)
    try:
        passes, setup, host = measure(runner, commands, seconds,
                                        [False, True] if trace else [False])
        counters = verify(runner, commands, passes, seed, check.load_recorded(DIGESTS))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    context["loadavg_after"] = os.getloadavg()[0]
    context["overloaded"] = max(context["loadavg_before"], context["loadavg_after"]) > context["nproc"]
    context["host_probe_s"] = statistics.median(host)
    scale = PROBE_REF_S / context["host_probe_s"]
    invocations = [inv for p in passes for inv in p.invocations]
    failures = [inv for inv in invocations if inv.error]
    if trace:
        metrics = per_layer(passes)
        counters["classify_calls_per_pass"] = metrics["analysis.classify_calls"][0]
    else:
        metrics = end_to_end(passes, setup, scale, counters["csv_rows"])
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "commands": [command_key(argv) for argv in commands],
        "context": context,
        "counters": counters,
        "passes": len([p for p in passes if not p.traced]),
        "pass_wall_s": [[p.traced, p.wall_s] for p in passes],
        "setup_probe_s": setup,
        "host_probe_s": host,
        "traced_passes": len([p for p in passes if p.traced]),
        "attempted": len(invocations),
        "failed": len(failures),
        "errors": sorted({f"{command_key(inv.argv)}: {inv.error}" for inv in failures}),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def report(result: dict) -> None:
    ctx = result["context"]
    print(f"== {result['workload']} seed={result['seed']} trace={result['trace']}: "
          f"{result['passes']} plain + {result['traced_passes']} traced passes, "
          f"{result['attempted']} invocations, {result['failed']} failed "
          f"(error_rate {result['failed'] / result['attempted']:.4g})")
    print(f"   context: commit {ctx['commit']} src {ctx['src_sha256'][:12]} nproc {ctx['nproc']} "
          f"python {ctx['python']} cpu {ctx['cpu']!r} "
          f"load {ctx['loadavg_before']:.2f} -> {ctx['loadavg_after']:.2f}"
          + ("  ** LOAD ABOVE NPROC: figures unreliable **" if ctx["overloaded"] else ""))
    print(f"   host probe: median {ctx['host_probe_s'] * 1000:.2f} ms "
          f"(reference {PROBE_REF_S * 1000:.2f} ms); raw median pass "
          f"{statistics.median(w for t, w in result['pass_wall_s'] if not t):.4g} s")
    counters = result["counters"]
    print(f"   counters: csv_rows {counters['csv_rows']}, oracle rows {counters['oracle_rows']}, "
          f"artifact bytes {sum(counters['artifact_bytes'].values())}")
    for artifact, mix in counters["class_mix"].items():
        print(f"   class mix {artifact}: " + ", ".join(f"{k} {v}" for k, v in mix.items()))
    for note in counters["notes"]:
        print(f"   note: {note}")
    if "cmd_ms_p50" in result["metrics"]:
        print(f"   cmd_ms samples: {result['attempted']}")
    for name, metric in result["metrics"].items():
        print(f"   {name:<38} {metric['value']:>16.6g} {metric['unit']}")
    for name in result["not_called"]:
        print(f"   {name:<38} {'-':>16} never called in this workload; 0 in the JSON line")
    for error in result["errors"]:
        print(f"   FAILED {error}")


def save(result: dict) -> None:
    directory = WORK / "results"
    directory.mkdir(parents=True, exist_ok=True)
    name = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
    (directory / name).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + EXTRA_WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    for needed in (BENCHMARK, ROOT / "src" / "caproof" / "cli.py", ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a caproof checkout",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))
    benchmark = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    seconds = args.seconds or benchmark["run_seconds"]
    listed = benchmark["per_layer" if args.trace else "end_to_end"]

    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(name, args.seed, seconds, bool(args.trace))
        # The JSON line carries every listed metric; only a per-layer span
        # that a workload never calls can be missing, and it spent 0 s.
        result["not_called"] = [m["name"] for m in listed if m["name"] not in result["metrics"]]
        result["json_metrics"] = {
            m["name"]: result["metrics"].get(m["name"], {"value": 0.0, "unit": m["unit"]})
            for m in listed}
        report(result)
        save(result)
        results.append(result)
    if len(results) == 1:
        metrics = results[0]["json_metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["json_metrics"].items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
