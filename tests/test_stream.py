"""The CLI writes a sweep's artifacts in one streamed pass: its files equal
the renderers run over the held sweep_grid or sweep_workload, byte for byte,
in every command, format subset and flag combination, and the pass holds one
block of rows, not the sweep. stream sends no renderer more than 2,048 rows at
once, and a CLI sweep's blocks hold at most 256. A sweep of cli._FORK_ROWS
rows or more in all three formats is written by two processes, to the same
bytes, and no process outlives the command."""

import dataclasses
import errno
import io
import itertools
import json
import os
import random
import signal
import subprocess
import sys
import tracemalloc

import pytest

from caproof import cli, reports
from caproof.analysis import BoundClass, iter_grid, sweep_grid, sweep_workload
from caproof.config import parse_config, resolve_config
from caproof.model import Phase

PHASES = {"prefill": (Phase.PREFILL,), "decode": (Phase.DECODE,), "both": tuple(Phase)}
FORMATS = ["csv", "svg", "text"]
EXTENSIONS = {"csv": "csv", "svg": "svg", "text": "txt"}
SUBSETS = [subset for n in (1, 2, 3) for subset in itertools.combinations(FORMATS, n)]
# command -> (model, hardware, a grid of several B and L values, a grid of one of each); a
# grid is (its flags, its B values, its L values), the values None where --grid gives them.
COMMANDS = {
    "analyze": ("dense-70b", "b200-sxm",
                (["--batch", "1,16,3", "--context", "4k,300k,1000"], [1, 3, 16], [1000, 4000, 300000]),
                (["--batch", "8", "--context", "2k"], [8], [2000])),
    "sweep": ("mla-48x2048", "b200-sxm",
              (["--grid", "B=1..64:log,L=16..4m:log"], None, None),
              (["--grid", "B=4,L=32k"], [4], [32000])),
    "roofline-plot": ("dense-70b", "b200-node8",
                      (["--batch", "2,64,1", "--context", "1m,8k"], [1, 2, 64], [8000, 1000000]),
                      (["--batch", "32", "--context", "128k"], [32], [128000])),
}


def grid_points(grid):
    """A grid's B and L values: as given, or parsed from its --grid."""
    argv, batches, lengths = grid
    if batches is None:
        dims = cli.parse_grid(argv[1])
        return dims["B"], dims["L"]
    return batches, lengths


def held_rows(command, grid, phases, flags=(False, False)):
    model = resolve_config(COMMANDS[command][0], "model")
    hw = resolve_config(COMMANDS[command][1], "hardware")
    return model, hw, sweep_grid(model, hw, *grid_points(grid), PHASES[phases], *flags)


def held_renders(model, hw, result):
    """Each format's bytes from sweep_csv, sweep_text and roofline_svg over a
    materialised sweep_grid or sweep_workload result."""
    rendered = {"csv": reports.sweep_csv(result).encode()}
    for fmt, render in (("text", reports.sweep_text),
                        ("svg", lambda result, out: reports.roofline_svg(model, hw, result, out))):
        buf = io.StringIO()
        render(result, buf)
        rendered[fmt] = buf.getvalue().encode()
    return rendered


def held_artifacts(command, grid, phases, flags):
    """held_renders over the materialised sweep_grid, and whether a row is
    capacity_exceeded."""
    model, hw, result = held_rows(command, grid, phases, flags)
    exceeded = any(row.bound_class is BoundClass.CAPACITY_EXCEEDED for row in result.rows)
    return held_renders(model, hw, result), exceeded


def run_command(command, grid, phases, flags, formats, out):
    argv = [command, "--model", COMMANDS[command][0], "--hardware", COMMANDS[command][1],
            *grid[0], "--phase", phases, "--format", ",".join(formats), "--out", str(out),
            *(["--include-activations"] if flags[0] else []),
            *(["--replicate-weights"] if flags[1] else []), "--strict"]
    return cli.run(argv)


@pytest.mark.parametrize("flags", list(itertools.product([False, True], repeat=2)))
@pytest.mark.parametrize("phases", list(PHASES))
@pytest.mark.parametrize("grid", ["multi", "single"])
@pytest.mark.parametrize("command", list(COMMANDS))
def test_streamed_artifacts_equal_the_held_renderers(command, grid, phases, flags, tmp_path):
    grid = COMMANDS[command][2 if grid == "multi" else 3]
    expected, exceeded = held_artifacts(command, grid, phases, flags)
    code = run_command(command, grid, phases, flags, FORMATS, tmp_path)
    assert code == (cli.EXIT_INFEASIBLE if exceeded else cli.EXIT_OK)
    for fmt in FORMATS:
        assert (tmp_path / f"{command}.{EXTENSIONS[fmt]}").read_bytes() == expected[fmt], fmt


def test_the_grids_cover_every_class_and_both_exits():
    """The grids above are not all of one kind: together they hold every
    bound class, and some exit 3 under --strict while others exit 0."""
    classes, exits = set(), set()
    for command, grid, phases in itertools.product(COMMANDS, (2, 3), PHASES):
        rows = held_rows(command, COMMANDS[command][grid], phases)[2].rows
        classes |= {row.bound_class for row in rows}
        exits.add(BoundClass.CAPACITY_EXCEEDED in {row.bound_class for row in rows})
    assert classes == set(BoundClass)
    assert exits == {False, True}


@pytest.mark.parametrize("formats", SUBSETS, ids=",".join)
@pytest.mark.parametrize("command", list(COMMANDS))
def test_each_format_subset_writes_only_its_formats(command, formats, tmp_path):
    grid = COMMANDS[command][2]
    flags = (False, False)
    expected, _ = held_artifacts(command, grid, "both", flags)
    run_command(command, grid, "both", flags, formats, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{command}.{EXTENSIONS[fmt]}" for fmt in formats)
    for fmt in formats:
        assert (tmp_path / f"{command}.{EXTENSIONS[fmt]}").read_bytes() == expected[fmt], fmt


WORKLOAD_MODELS = ["dense-70b", "gqa8-48x2048", "mha-48x2048", "mla-48x2048", "moe-256e"]
WORKLOAD_SEEDS = range(30)


def workload_case(seed):
    """A random workload sweep: (command, model, hardware, flags, workload JSON).
    The context is carried or not, the turns are one, a few or hundreds, a turn
    may have no prefill or no decode tokens, and the batch may be above 1."""
    rng = random.Random(f"workload-{seed}")
    prefill, decode = rng.choice([(0, rng.randint(1, 2_000)), (rng.randint(1, 20_000), 0),
                                  (rng.randint(1, 20_000), rng.randint(1, 2_000))])
    workload = {"type": "workload", "name": f"w{seed}",
                "turns": rng.choice([1, rng.randint(2, 40), rng.randint(300, 600)]),
                "prefill_tokens_per_turn": prefill, "decode_tokens_per_turn": decode,
                "carry_context": rng.random() < 0.5,
                "batch_size": rng.choice([1, rng.randint(2, 64)])}
    return (rng.choice(["sweep", "roofline-plot"]), rng.choice(WORKLOAD_MODELS),
            rng.choice(["b200-sxm", "b200-node8"]), (rng.random() < 0.5, rng.random() < 0.5),
            workload)


def held_workload(case):
    """The case's model, hardware and held sweep_workload."""
    _, model, hardware, flags, workload = case
    model = resolve_config(model, "model")
    hw = resolve_config(hardware, "hardware")
    return model, hw, sweep_workload(model, hw, parse_config(workload, "w.json"), *flags)


@pytest.mark.parametrize("seed", WORKLOAD_SEEDS)
def test_streamed_workload_artifacts_equal_the_held_renderers(seed, tmp_path, monkeypatch):
    """The CLI's workload sweep streams its blocks and takes the SVG's OI range
    and the --strict verdict in closed form: its files equal the renderers run
    over the held sweep_workload, its OI range is the rows' least and greatest
    OI, and it exits 3 exactly when the last row is capacity_exceeded."""
    case = workload_case(seed)
    command, _, _, flags, workload = case
    path = tmp_path / "workload.json"
    path.write_text(json.dumps(workload))
    model, hw, result = held_workload(case)
    ranges, original = [], reports.stream_roofline_svg

    def recording(model, hw, oi_range, out):
        ranges.append(oi_range)
        return original(model, hw, oi_range, out)

    monkeypatch.setattr(reports, "stream_roofline_svg", recording)
    code = cli.run([command, "--model", model.name, "--hardware", hw.name,
                    "--workload", str(path), "--out", str(tmp_path / "out"), "--strict",
                    *(["--include-activations"] if flags[0] else []),
                    *(["--replicate-weights"] if flags[1] else [])])
    exceeded = result.rows[-1].bound_class is BoundClass.CAPACITY_EXCEEDED
    assert code == (cli.EXIT_INFEASIBLE if exceeded else cli.EXIT_OK)
    ois = [row.oi for row in result.rows]
    assert ranges == [(min(ois), max(ois))]
    expected = held_renders(model, hw, result)
    for fmt in FORMATS:
        assert (tmp_path / "out" / f"{command}.{EXTENSIONS[fmt]}").read_bytes() == expected[fmt]


def test_the_workloads_cover_every_shape_and_both_exits():
    """The random workloads above are not all of one kind."""
    cases = [workload_case(seed) for seed in WORKLOAD_SEEDS]
    workloads = [case[4] for case in cases]
    assert {w["carry_context"] for w in workloads} == {False, True}
    assert {w["turns"] == 1 for w in workloads} == {False, True}
    assert any(w["turns"] >= 300 for w in workloads)
    assert any(w["batch_size"] > 1 for w in workloads)
    assert {(w["prefill_tokens_per_turn"] > 0, w["decode_tokens_per_turn"] > 0)
            for w in workloads} == {(False, True), (True, False), (True, True)}
    assert {case[0] for case in cases} == {"sweep", "roofline-plot"}
    assert {case[3] for case in cases} == set(itertools.product([False, True], repeat=2))
    exits = {held_workload(case)[2].rows[-1].bound_class is BoundClass.CAPACITY_EXCEEDED
             for case in cases}
    assert exits == {False, True}


@pytest.fixture
def one_cpu(monkeypatch):
    """An affinity of one CPU, so cli.run writes in this process: tracemalloc,
    a profiler or a spy sees only this process, and would not see the
    renderers of a forked writer."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


def traced_peak(argv):
    """The tracemalloc peak of one cli.run, in bytes."""
    tracemalloc.start()
    try:
        assert cli.run(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_32k_row_grid_in_all_formats_holds_no_sweep(tmp_path, one_cpu):
    """32,000 rows (283 B each held) in all three formats: the pass holds one
    block of at most 256 rows and the CSV's memos of one phase, far below the
    9 MB the rows alone would take. The command runs once untraced first, so
    that one-time allocations do not count. The second pass peaks at 0.95-1.0
    MB on Python 3.10-3.13; with a block per (phase, batch) of all 1,000 L
    values and the memos of both phases kept, it peaked at 1.53-1.59 MB. One
    CPU keeps every renderer in the traced process."""
    argv = ["sweep", "--model", "dense-70b", "--hardware", "b200-node8",
            "--grid", "B=1..16,L=1000..1000000:log1000", "--out"]
    assert cli.run([*argv, str(tmp_path / "warm")]) == 0
    peak = traced_peak([*argv, str(tmp_path / "out")])
    assert (tmp_path / "out" / "sweep.csv").read_text().count("\n") == 32_001
    assert peak < 1_250_000


# (model, hardware, extra flags, L axis): compute-bound and capacity-limited rows on the
# first grid, bandwidth-bound rows on the second.
GROWING_GRIDS = {
    "dense-70b": ("dense-70b", "b200-node8", [], "L=1k..1m:log250"),
    "mla-decode": ("mla-48x2048", "b200-sxm", ["--phase", "decode"], "L=16..16m:log250"),
}


@pytest.mark.parametrize("grid", list(GROWING_GRIDS))
def test_memory_does_not_grow_with_the_batch_axis(grid, tmp_path, one_cpu):
    """16 times the rows on the same L axis, in all formats, hold no more:
    the pass keeps one block of rows and the cells that repeat down a
    (phase, L) column, none per row, on one CPU, so in the traced process."""
    model, hardware, flags, lengths = GROWING_GRIDS[grid]
    peaks = {}
    for batches in (4, 64):
        out = tmp_path / f"B{batches}"
        peaks[batches] = traced_peak(["sweep", "--model", model, "--hardware", hardware, *flags,
                                      "--grid", f"B=1..{batches},{lengths}", "--out", str(out)])
        assert (out / "sweep.csv").read_text().count("\n") > batches * 250
    assert peaks[64] <= peaks[4] + 500_000, peaks


def test_a_20k_turn_workload_sweep_stays_bounded(tmp_path, one_cpu):
    """A workload sweep streams like a grid: 20,000 turns of 2,000 prefill and
    200 decode tokens (40,002 rows, 345-374 B each held) in all formats hold
    one block of at most 256 rows and the CSV memos of one slice, under the
    grid guard's bound. The command runs once untraced first, so that
    one-time allocations do not count. The second pass peaks at 0.51-0.57 MB
    on Python 3.10-3.13; with the sweep held whole, as sweep_workload holds
    it, it peaked at 14.6-14.8 MB. The bound catches a held path or a memo
    that grows. The sweep is above cli._FORK_ROWS, so one CPU keeps its text
    and SVG renderers in the traced process."""
    workload = tmp_path / "long.json"
    workload.write_text('{"type": "workload", "name": "long", "turns": 20000, '
                        '"prefill_tokens_per_turn": 2000, "decode_tokens_per_turn": 200}')
    argv = ["sweep", "--model", "dense-70b", "--hardware", "b200-node8",
            "--workload", str(workload), "--out"]
    assert cli.run([*argv, str(tmp_path / "warm")]) == 0
    peak = traced_peak([*argv, str(tmp_path / "out")])
    assert (tmp_path / "out" / "sweep.csv").read_text().count("\n") == 40_003
    assert peak < 1_250_000, peak


def recorded(renderer, sizes):
    """renderer, with the number of rows in each send appended to sizes."""
    next(renderer)
    while (rows := (yield)) is not None:
        sizes.append(len(rows))
        renderer.send(rows)
    next(renderer, None)


def renderers(out):
    model = resolve_config("dense-70b", "model")
    hw = resolve_config("b200-node8", "hardware")
    return [reports.stream_sweep_csv(out), reports.stream_sweep_text(model.name, hw.name, out),
            reports.stream_roofline_svg(model, hw, (1.0, 1e4), out)]


def five_thousand_rows():
    model = resolve_config("dense-70b", "model")
    hw = resolve_config("b200-node8", "hardware")
    workload = resolve_config("coding-agent", "workload")
    rows = sweep_workload(model, hw, dataclasses.replace(workload, turns=2_499)).rows
    assert len(rows) == 5_000
    return rows


@pytest.mark.parametrize("renderer", range(3), ids=["csv", "text", "svg"])
def test_a_5000_row_block_is_sent_in_slices_of_2048(renderer):
    """The slices are 2,048, 2,048 and 904 rows, and the artifact's bytes
    equal those of the renderer sent the whole block at once."""
    rows, sizes, whole, sliced = five_thousand_rows(), [], io.StringIO(), io.StringIO()
    held = renderers(whole)[renderer]
    next(held)
    held.send(rows)
    next(held, None)
    reports.stream([recorded(renderers(sliced)[renderer], sizes)], [rows])
    assert sizes == [2_048, 2_048, 904]
    assert sliced.getvalue() == whole.getvalue()


def test_an_empty_block_sends_and_writes_nothing():
    rows = five_thousand_rows()[:10]
    expected, empty, between = io.StringIO(), io.StringIO(), io.StringIO()
    reports.stream(renderers(expected), [rows])
    sizes = []
    reports.stream([recorded(renderer, sizes) for renderer in renderers(empty)], [[], ()])
    assert sizes == []
    reports.stream(renderers(between), [[], rows, ()])
    assert between.getvalue() == expected.getvalue()
    nothing = io.StringIO()
    reports.stream(renderers(nothing), [])
    assert empty.getvalue() == nothing.getvalue()


def test_a_3000_turn_workload_sweep_sends_at_most_256_rows(tmp_path, monkeypatch):
    """The CLI streams a workload sweep's 6,002 rows in blocks of 128 turns,
    so stream sends each renderer 23 blocks of 256 rows, the last 56 turns'
    112 rows, and the two totals rows, and no send exceeds 256 rows."""
    original, sizes = reports.stream, []

    def recording(renderers, blocks):
        original([recorded(renderer, sizes) for renderer in renderers], blocks)

    monkeypatch.setattr(reports, "stream", recording)
    workload = tmp_path / "long.json"
    workload.write_text('{"type": "workload", "name": "long", "turns": 3000, '
                        '"prefill_tokens_per_turn": 2000, "decode_tokens_per_turn": 200}')
    assert cli.run(["sweep", "--model", "dense-70b", "--hardware", "b200-node8",
                    "--workload", str(workload), "--out", str(tmp_path / "out")]) == 0
    assert sorted(sizes) == sorted(([256] * 23 + [112, 2]) * 3)
    assert (tmp_path / "out" / "sweep.csv").read_text().count("\n") == 6_003


def python_calls(work) -> int:
    """The Python frames entered or resumed while work() runs, a generator's
    resumption included; calls into C are not counted."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profile)
    try:
        work()
    finally:
        sys.setprofile(None)
    return calls


def test_a_grid_is_made_and_rendered_with_no_python_call_per_row():
    """Making a grid's rows takes one Python call a row, SweepRow's __new__,
    and a bounded number per (phase, batch) block and per (phase, L) column;
    the CSV renderer takes a bounded number per block and column, the text
    renderer a bounded number per block, and neither takes one per row. 1,024
    rows in 64 blocks and 32 columns."""
    model = resolve_config("mla-48x2048", "model")
    hw = resolve_config("b200-sxm", "hardware")
    lengths = [16 * 3**i for i in range(16)]
    blocks = []
    made = python_calls(lambda: blocks.extend(iter_grid(model, hw, range(1, 33), lengths)))
    rows, columns = sum(map(len, blocks)), 2 * len(lengths)
    assert (rows, len(blocks)) == (1024, 64)
    assert len({row.bound_class for block in blocks for row in block}) == 4
    assert made <= rows + 4 * len(blocks) + 40 * columns, made
    for renderer, bound in ((reports.stream_sweep_csv, 2 * len(blocks) + 6 * columns + 20),
                            (lambda out: reports.stream_sweep_text(model.name, hw.name, out),
                             2 * len(blocks) + 40)):
        rendered = python_calls(lambda: reports.stream([renderer(io.StringIO())], blocks))
        assert rendered <= bound, rendered


# A grid of 1,000 L values over enough B values to pass cli._FORK_ROWS, and the turns of a
# workload sweep (2 * turns + 2 rows) of exactly cli._FORK_ROWS rows, the fewest that fork.
FORK_GRID = ["--grid", f"B=1..{cli._FORK_ROWS // 2_000 + 1},L=1000..1000000:log1000"]
FORK_TURNS = cli._FORK_ROWS // 2 - 1


def workload_flags(tmp_path, turns):
    workload = tmp_path / f"w{turns}.json"
    workload.write_text(json.dumps({"type": "workload", "name": "long", "turns": turns,
                                    "prefill_tokens_per_turn": 2000,
                                    "decode_tokens_per_turn": 200}))
    return ["--workload", str(workload)]


def run_sweep(points, out, *extra):
    return cli.run(["sweep", "--model", "dense-70b", "--hardware", "b200-node8", *points,
                    "--out", str(out), *extra])


@pytest.fixture
def forks(monkeypatch):
    """An affinity of two CPUs, and the pids os.fork returns to this process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("kind", ["grid", "workload"])
def test_a_forked_sweep_writes_the_bytes_of_one_process(kind, tmp_path, forks, monkeypatch):
    """At cli._FORK_ROWS rows in all formats the child writes the text and
    SVG, this process the CSV, and each file equals the one-CPU run's byte for
    byte; the child is reaped before cli.run returns."""
    points = FORK_GRID if kind == "grid" else workload_flags(tmp_path, FORK_TURNS)
    assert run_sweep(points, tmp_path / "forked") == 0
    assert len(forks) == 1
    assert_no_child()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert run_sweep(points, tmp_path / "one") == 0
    assert len(forks) == 1
    assert (tmp_path / "one" / "sweep.csv").read_text().count("\n") > cli._FORK_ROWS
    for name in ("sweep.csv", "sweep.txt", "sweep.svg"):
        assert (tmp_path / "forked" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


def failing(*args):
    """A renderer that raises at its first rows."""
    yield
    raise RuntimeError("renderer failed")


@pytest.mark.parametrize("fmt, error", [("stream_sweep_text", ChildProcessError),
                                        ("stream_sweep_csv", RuntimeError)],
                         ids=["text-in-child", "csv-in-parent"])
def test_a_renderer_that_raises_in_either_process_removes_every_artifact(
        fmt, error, tmp_path, forks, monkeypatch, capfd):
    """A renderer raises in the child (text) or in this process (CSV): cli.run
    raises, no artifact is left, and the child has been reaped. The child
    reports its own error on stderr and exits 1, which fails the run; when
    this process fails, it stops the child with SIGTERM before reaping it."""
    statuses, waitpid = [], os.waitpid

    def reaped(pid, options):
        statuses.append(waitpid(pid, options)[1])
        return pid, statuses[-1]

    monkeypatch.setattr(reports, fmt, failing)
    monkeypatch.setattr(os, "waitpid", reaped)
    with pytest.raises(error):
        run_sweep(FORK_GRID, tmp_path / "out")
    assert len(forks) == 1
    assert_no_child()
    assert list((tmp_path / "out").iterdir()) == []
    if error is ChildProcessError:
        assert "error: RuntimeError('renderer failed')\n" in capfd.readouterr().err
        assert statuses == [1 << 8]  # exited 1
    else:  # stopped, not left to finish files that are removed
        assert os.WIFSIGNALED(statuses[0]) and os.WTERMSIG(statuses[0]) == signal.SIGTERM


@pytest.mark.parametrize("below, formats, cpus", [
    (1, "csv,svg,text", {0, 1}), (0, "csv", {0, 1}), (0, "csv,svg", {0, 1}),
    (0, "csv,text", {0, 1}), (0, "svg,text", {0, 1}), (0, "csv,svg,text", {0})],
    ids=["below-threshold", "csv", "csv,svg", "csv,text", "svg,text", "one-cpu"])
def test_no_fork_below_the_threshold_in_fewer_formats_or_on_one_cpu(
        below, formats, cpus, tmp_path, monkeypatch):
    """A workload 2 rows below cli._FORK_ROWS, or one at it in one or two
    formats or on one CPU: os.fork is never called. Only all three formats
    were measured to gain from a second process."""
    def fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    out = tmp_path / "out"
    turns = FORK_TURNS - below
    assert run_sweep(workload_flags(tmp_path, turns), out, "--format", formats) == 0
    assert sorted(path.suffix for path in out.iterdir()) == sorted(
        f".{cli._EXTENSIONS[fmt]}" for fmt in formats.split(","))
    if "csv" in formats:
        assert (out / "sweep.csv").read_text().count("\n") == 2 * turns + 3


def test_a_fork_that_fails_writes_every_format_in_this_process(tmp_path, monkeypatch):
    """With no process to spare, os.fork raising EAGAIN, the sweep is written
    in this process, to the one-CPU run's bytes."""
    calls = []

    def fork():
        calls.append(1)
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    points = workload_flags(tmp_path, FORK_TURNS)
    assert run_sweep(points, tmp_path / "unforked") == 0
    assert calls == [1]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert run_sweep(points, tmp_path / "one") == 0
    for name in ("sweep.csv", "sweep.txt", "sweep.svg"):
        assert (tmp_path / "unforked" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


def test_a_child_stops_at_its_next_block_once_its_parent_is_gone(tmp_path, forks, monkeypatch):
    """A child that finds another parent (os.getppid faked in both
    processes, as only the child calls it) exits 1 at its first block, so
    the run fails and leaves no artifact."""
    monkeypatch.setattr(os, "getppid", lambda: -1)
    with pytest.raises(ChildProcessError, match="exited with 1"):
        run_sweep(FORK_GRID, tmp_path / "out")
    assert len(forks) == 1
    assert_no_child()
    assert list((tmp_path / "out").iterdir()) == []


def test_the_child_runs_no_atexit_handler_and_flushes_no_inherited_stdio(tmp_path):
    """A process that forks: its atexit handler runs once, and text its
    stdout buffered before the fork is written once, by this process."""
    script = f"""
import atexit, os, sys
from caproof import cli
os.sched_getaffinity = lambda pid: {{0, 1}}
atexit.register(lambda: print("atexit"))
print("buffered", end=" ")
sys.exit(cli.run(["sweep", "--model", "dense-70b", "--hardware", "b200-node8",
                  *{FORK_GRID!r}, "--out", {str(tmp_path / "out")!r}]))
"""
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "buffered atexit\n", "")
    assert (tmp_path / "out" / "sweep.svg").read_text().endswith("</svg>\n")
