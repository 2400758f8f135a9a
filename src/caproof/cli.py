"""Command-line entry point.

Each subcommand is one entry in COMMANDS: its flags and a builder that
returns the command's reports.Report. Three commands share one builder:

    analyze, sweep, roofline-plot   _sweep_command      one sweep report
    compare-attention               _compare_attention  reports.chart
    compare-moe                     _compare_moe        reports.chart
    agent-profile                   _agent_profile      reports.chart

Outputs are pure functions of the input files and flags; two identical
invocations produce byte-identical artifacts.

Exit codes: 0 success, 2 config error, 3 infeasible analysis (a
capacity-exceeded point under --strict).
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import math
import os
import sys
from functools import partial
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from . import reports
from .analysis import BoundClass, _workload_rows, grid_bounds, iter_grid
from .config import MAX_EXACT_INT, ConfigError, list_catalog, resolve_config
from .model import Phase, _bound
from .workload import MAX_SWEEP_ROWS as MAX_GRID_ROWS

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3

_SUFFIXES = {"k": 1_000, "m": 1_000_000, "g": 1_000_000_000}
MAX_RANGE_POINTS = 100_000
# The fewest rows two processes write, in all formats (_write_artifacts). Forked against one on
# 2 vCPUs, grids won 4 of 50 pairs at 2,000-8,000 rows, 24 of 54 at 16,000-24,000, 28 of 42 at
# 32,000 and 52 of 64 at 40,000-64,000; workloads won 4 of 10 at 20,002 rows, 8 of 10 at 32,770.
_FORK_ROWS = 32_768


def parse_scalar(token: str) -> int:
    token = token.strip().lower()
    digits, factor = token, 1
    if token and token[-1] in _SUFFIXES:
        digits, factor = token[:-1], _SUFFIXES[token[-1]]
    try:
        value = int(digits) * factor
    except ValueError:
        raise ConfigError(f"not an integer: '{digits}'") from None
    if abs(value) > MAX_EXACT_INT:
        raise ConfigError(f"integer beyond 2**53: '{token}'")
    return value


def _expand_range(expr: str) -> List[int]:
    if ".." not in expr:
        return [parse_scalar(expr)]
    span, _, mode = expr.partition(":")
    start_s, _, stop_s = span.partition("..")
    start, stop = parse_scalar(start_s), parse_scalar(stop_s)
    if start < 1 or stop < start:
        raise ConfigError(f"bad range '{expr}': need 1 <= start <= stop")
    if not mode:
        if stop - start > MAX_RANGE_POINTS:
            raise ConfigError(f"range '{expr}' enumerates too many points; use :log or :N")
        return list(range(start, stop + 1))
    if mode == "log":  # doubling from start; stop is always the last point
        raw = [start * 2**i for i in range((stop // start).bit_length())] + [stop]
    else:
        log = mode.startswith("log")
        count = parse_scalar(mode[3:] if log else mode)
        if count < 2:
            raise ConfigError(f"bad range '{expr}': {'log ' if log else ''}point count must be >= 2")
        if count > MAX_RANGE_POINTS:
            raise ConfigError(f"bad range '{expr}': point count must be <= {MAX_RANGE_POINTS}")
        if log:
            lo, hi = math.log10(start), math.log10(stop)
            raw = (round(10 ** (lo + (hi - lo) * i / (count - 1))) for i in range(count))
        else:
            raw = (round(start + (stop - start) * i / (count - 1)) for i in range(count))
    return sorted(set(raw))  # every mode rises or holds, so this drops the repeats


def parse_grid(text: str) -> Dict[str, List[int]]:
    """Parse "B=1..64,L=1k..1m:log" into {"B": [...], "L": [...]}.

    Comma-separated pieces; a piece with '=' starts a new dimension, others
    extend the previous one, so "B=1,2,4,L=4096" also works.
    """
    dims: Dict[str, List[int]] = {}
    current = None
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" in piece:
            name, _, piece = piece.partition("=")
            current = name.strip().upper()
            if current not in ("B", "L"):
                raise ConfigError(f"unknown grid dimension '{current}' (use B and L)")
        elif current is None:
            raise ConfigError(f"grid piece '{piece}' appears before any dimension")
        dims.setdefault(current, []).extend(_expand_range(piece))
    if not dims:
        raise ConfigError("empty grid")
    return dims


def parse_int_list(text: str) -> List[int]:
    return [parse_scalar(piece) for piece in text.split(",") if piece.strip()]


_PHASES = {
    "prefill": (Phase.PREFILL,),
    "decode": (Phase.DECODE,),
    "both": (Phase.PREFILL, Phase.DECODE),
}
_EXTENSIONS = {"csv": "csv", "svg": "svg", "text": "txt"}


def _flag(flag: str, read, *values):
    """read(*values), a ValueError it raises prefixed with the flag or key: "--batch: ..."."""
    try:
        return read(*values)
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from None


def _model_and_hardware(args):
    """The one --model and the --hardware, which must rate its weight_bits."""
    if len(args.model) != 1:
        raise ConfigError(f"--model: {args.command} takes exactly one, got {len(args.model)}")
    model = resolve_config(args.model[0], "model", args.allow_unknown_keys)
    hw = resolve_config(args.hardware, "hardware", args.allow_unknown_keys)
    _flag(f"{args.model[0]}: key 'weight_bits'", hw.peak_for, model.weight_bits)
    return model, hw


def _resolve_distinct(args, kind: str, refs: Sequence[str]) -> list:
    """The specs of the --<kind> references; a preset and its path share a name."""
    specs = [resolve_config(ref, kind, args.allow_unknown_keys) for ref in refs]
    names = [spec.name for spec in specs]
    for name in names:
        if names.count(name) > 1:
            raise ConfigError(f"--{kind}: '{name}' is given more than once")
    return specs


def _compared_models(args):
    models = _resolve_distinct(args, "model", args.model)
    if len(models) < 2:
        raise ConfigError(f"--model: {args.command} needs at least two, got {len(models)}")
    return models


def _at_least_one(values: List[int], field: str) -> List[int]:
    """The values, checked before any artifact is written: at least one, each >= 1."""
    if not values:
        raise ConfigError("needs at least one value")
    _bound(field, min(values), ">= 1")
    return values


def _int_list(text: Optional[str], default: str, field: str) -> List[int]:
    """The values of a comma-list flag, or its default when it was not given."""
    return _at_least_one(parse_int_list(default if text is None else text), field)


def _one_int(text: Optional[str], default: str, field: str) -> int:
    """The value of a one-integer flag, or its default when it was not given."""
    return _at_least_one([parse_scalar(default if text is None else text)], field)[0]


def _sweep_command(args) -> reports.Report:
    """One model on one hardware over a workload trace or a batch x context
    grid: the report of analyze, sweep and roofline-plot. The flags the command
    has pick the points: --workload, else sweep's --grid, else --batch and
    --context. Every flag is checked, and the grid's rows counted, before the
    configs are resolved. Either sweep streams, its OI range and --strict verdict in closed form."""
    workload_ref, grid = getattr(args, "workload", None), getattr(args, "grid", None)
    if workload_ref is not None:
        for flag in ("grid", "phase", "batch", "context"):  # errors even when set to their default
            if getattr(args, flag, None) is not None:
                raise ConfigError(f"--{flag} cannot be combined with --workload: the trace "
                                  "fixes the points and yields both phases")
    else:
        if hasattr(args, "grid"):
            if grid is None:
                raise ConfigError("--grid or --workload is required")
            flag, dims = "--grid", _flag("--grid", parse_grid, grid)
            batches = _flag(flag, _at_least_one, dims.get("B", [1]), "batch_size")
            contexts = _flag(flag, _at_least_one, dims.get("L", [4096]), "context_len")
        else:
            flag = "--batch" if args.batch is not None else "--context"
            batches = _flag("--batch", _int_list, args.batch, "1", "batch_size")
            contexts = _flag("--context", _int_list, args.context, "4096", "context_len")
        phases = _PHASES[args.phase or "both"]
        rows = len(phases) * len(set(batches)) * len(set(contexts))
        if rows > MAX_GRID_ROWS:
            raise ConfigError(f"{flag}: the grid has {rows} rows, more than {MAX_GRID_ROWS}")
    model, hw = _model_and_hardware(args)
    flags = (args.include_activations, args.replicate_weights)
    if workload_ref is not None:
        workload = resolve_config(workload_ref, "workload", args.allow_unknown_keys)
        # A phase's OI is monotone in L, which runs from turn 0's to the totals' final L; a
        # row fits by its L alone, so the last (DECODE) totals row decides --strict
        ends = _flag(workload_ref, list, _workload_rows(model, hw, workload, (0,), *flags))
        oi_lo, *_, oi_hi = sorted(row.oi for block in ends for row in block)
        exceeded = ends[-1][-1].bound_class is BoundClass.CAPACITY_EXCEEDED
        blocks = _workload_rows(model, hw, workload, range(workload.turns), *flags)
        rows = len(ends[0]) * workload.turns + 2  # the point rows of a turn, then the totals
    else:  # made a block at a time as it is written
        blocks = iter_grid(model, hw, batches, contexts, phases, *flags)
        oi_lo, oi_hi, exceeded = grid_bounds(model, hw, batches, contexts, phases, flags[0])
    return reports.Report(
        csv=reports.stream_sweep_csv,
        text=partial(reports.stream_sweep_text, model.name, hw.name),
        svg=partial(reports.stream_roofline_svg, model, hw, (oi_lo, oi_hi)),
        blocks=blocks, rows=rows, exceeded=exceeded)


def _context_axis(text: str) -> List[int]:
    """compare-attention's --grid: sorted distinct L values, two at least. A
    grid without B holds L, since parse_grid rejects an empty grid."""
    grid = parse_grid(text)
    if "B" in grid:
        raise ConfigError("compare-attention takes one batch size from --batch, "
                          "not a B grid dimension")
    lengths = sorted(set(_at_least_one(grid["L"], "context_len")))
    if len(lengths) < 2:
        raise ConfigError("compare-attention grid needs at least two distinct L values "
                          "for its log axis")
    return lengths


def _compare_attention(args) -> reports.Report:
    batch = _flag("--batch", _one_int, args.batch, "1", "batch_size")
    models = _compared_models(args)
    lengths = _flag("--grid", _context_axis, args.grid)
    rows = reports.compare_attention_rows(models, lengths, batch)
    return reports.chart(partial(reports.compare_attention_csv, rows),
                         partial(reports.compare_attention_text, models, rows, batch),
                         partial(reports.compare_attention_svg, models, rows, batch))


def _compare_moe(args) -> reports.Report:
    context = _flag("--context", _one_int, args.context, "4096", "context_len")
    models = _compared_models(args)
    batches = sorted(set(_flag("--batch", _int_list, args.batch, "1,16", "batch_size")))
    rows = reports.compare_moe_rows(models, batches, context, args.include_activations)
    return reports.chart(partial(reports.compare_moe_csv, rows),
                         partial(reports.compare_moe_text, rows, context),
                         partial(reports.compare_moe_svg, rows, context))


def _agent_profile(args) -> reports.Report:
    model, hw = _model_and_hardware(args)
    refs = args.workload or list_catalog("workload")
    flags = (args.include_activations, args.replicate_weights)
    rows = [_flag(ref, reports.agent_profile_rows, model, hw, [workload], *flags)[0]
            for ref, workload in zip(refs, _resolve_distinct(args, "workload", refs))]
    exceeded = any(row["decode_class"] == BoundClass.CAPACITY_EXCEEDED.value for row in rows)
    return reports.chart(partial(reports.agent_profile_csv, rows),
                         partial(reports.agent_profile_text, rows, model, hw),
                         partial(reports.agent_profile_svg, rows, hw), exceeded)


# Each command-specific flag's argparse settings; a command's table entry
# names the flags it takes and may override these settings.
_FLAGS = {
    "hardware": dict(required=True, help="bundled hardware preset name or path"),
    "phase": dict(choices=list(_PHASES), help="grid phases (default both)"),
    "batch": dict(help="comma list of batch sizes (default 1)"),
    "context": dict(help="comma list of context lengths (default 4096)"),
    "grid": dict(help='e.g. "B=1..64,L=1k..1m:log"'),
    "workload": dict(help="bundled workload preset name or path"),
    "strict": dict(action="store_true", help="exit 3 if any analyzed point is capacity_exceeded"),
    "include-activations": dict(action="store_true",
                                help="add the documented per-token activation byte term"),
    "replicate-weights": dict(action="store_true",
                              help="count weights once per device in capacity planning"),
}
_POINT_FLAGS = {"strict": {}, "include-activations": {}, "replicate-weights": {}}

# command -> (help, builder returning its Report, {flag: overrides of _FLAGS[flag]})
COMMANDS = {
    "analyze": ("classify one or a few operating points", _sweep_command,
                {"hardware": {}, "phase": {}, "batch": {}, "context": {}, **_POINT_FLAGS}),
    "sweep": ("grid or workload-driven sweep", _sweep_command,
              {"hardware": {}, "phase": {}, "grid": {}, "workload": {}, **_POINT_FLAGS}),
    "compare-attention": ("footprint vs context across attention variants", _compare_attention,
                          {"batch": {"help": "one batch size (default 1)"},
                           "grid": {"default": "L=1k..1m:log",
                                    "help": "context grid (L dimension only)"}}),
    "compare-moe": ("dense vs MoE footprint bars and decode intensity", _compare_moe,
                    {"batch": {"help": "comma list of batch sizes (default 1,16)"},
                     "context": {"help": "one context length (default 4096)"},
                     "include-activations": {}}),
    "agent-profile": ("per-agent token totals, footprint, and intensity", _agent_profile,
                      {"hardware": {},
                       "workload": {"action": "append",
                                    "help": "repeatable; defaults to every bundled workload preset"},
                       **_POINT_FLAGS}),
    "roofline-plot": ("roofline with classified workload points", _sweep_command,
                      {"hardware": {}, "phase": {},
                       "workload": {"help": "derive points from a workload trace"},
                       "batch": {}, "context": {}, **_POINT_FLAGS}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caproof",
        description="Operational-intensity and capacity-footprint analysis for "
        "LLM agent inference on a capacity-extended roofline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _, flags) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--model", action="append", required=True,
                       help="bundled model preset name or path to a model config")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--format", default="csv,svg,text", help="comma subset of csv,svg,text")
        p.add_argument("--allow-unknown-keys", action="store_true",
                       help="accept unknown config keys instead of rejecting them")
        for name, overrides in flags.items():
            p.add_argument(f"--{name}", **{**_FLAGS[name], **overrides})
    return parser


def _artifact_paths(out_dir: str, command: str, formats: Sequence[str]) -> Dict[str, Path]:
    """Each selected format's artifact path under --out, checked before the
    command runs, so that an unusable --out costs no analysis: --out, or
    else its nearest existing ancestor, must be a directory, and no artifact
    path may be one. The check makes nothing; the directory is made with the
    first artifact, so a command that fails leaves no --out behind. An
    unusable --out is a ConfigError."""
    directory = Path(out_dir)
    paths = {fmt: directory / f"{command}.{extension}"
             for fmt, extension in _EXTENSIONS.items() if fmt in formats}
    existing = next(path for path in (directory, *directory.parents) if path.exists())
    if not existing.is_dir():  # what mkdir would meet
        code = errno.EEXIST if existing == directory else errno.ENOTDIR
        raise ConfigError(f"--out: {os.strerror(code)}: '{directory}'")
    for path in paths.values():
        if path.is_dir():
            raise ConfigError(f"--out: {os.strerror(errno.EISDIR)}: '{path}'")
    return paths


def _write_artifacts(paths: Dict[str, Path], report: reports.Report) -> List[Path]:
    """Open every format's artifact path at once, with a 64 KiB buffer for the
    line-at-a-time writes, and stream the report's blocks to one renderer per
    file, a block held at a time. At _FORK_ROWS rows or more in all three
    formats, given two CPUs and one thread, it forks: the child writes the text
    and SVG, making the rows from its copy of the unstarted blocks, and is
    reaped before this returns or raises (stopped first if this raises). A
    renderer that raises, in either process, removes every artifact of this
    run, since all are partial. A path that still cannot be opened does too,
    and is a ConfigError naming --out."""
    written, renderers, pid = [], [], None
    try:
        with contextlib.ExitStack() as files:
            for fmt, path in paths.items():
                try:  # the first artifact makes the directory
                    path.parent.mkdir(parents=True, exist_ok=True)
                    out = files.enter_context(open(path, "w", encoding="utf-8", buffering=1 << 16))
                except OSError as exc:
                    raise ConfigError(f"--out: {exc.strerror}: '{exc.filename}'") from None
                written.append(path)
                renderers.append(getattr(report, fmt)(out))
            if (report.rows >= _FORK_ROWS and len(renderers) == 3
                    and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1):
                import signal, threading  # here, so that a command that never forks loads neither
                parent = os.getpid()
                with contextlib.suppress(OSError):  # no process to spare: all are written here
                    pid = os.fork() if threading.active_count() == 1 else None
                if pid == 0:  # the child: os._exit runs no atexit handler and flushes no stdio
                    try:  # an orphan, its parent gone, exits at its next block
                        reports.stream(renderers[1:], (block for block in report.blocks
                                                       if os.getppid() == parent or os._exit(1)))
                        files.close()
                        os._exit(0)
                    except BaseException as exc:  # reported here, since the child never returns
                        os.write(2, f"error: {exc!r}\n".encode())
                    finally:
                        os._exit(1)
                if pid:
                    del renderers[1:]
            try:
                reports.stream(renderers, report.blocks)
            except BaseException:
                if pid:  # its artifacts are removed with these, so it need not finish them
                    os.kill(pid, signal.SIGTERM)
                raise
            finally:
                status = os.waitpid(pid, 0)[1] if pid else 0
            if status:
                raise ChildProcessError(f"the child writing {', '.join(list(paths)[1:])} exited "
                                        f"with {os.waitstatus_to_exitcode(status)}")
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    return written


def _formats(text: str) -> List[str]:
    formats = [f.strip() for f in text.split(",") if f.strip()]
    bad = [f for f in formats if f not in _EXTENSIONS]
    if bad:
        raise ConfigError(f"unknown output format '{bad[0]}' (use csv, svg, text)")
    if not formats:
        raise ConfigError("at least one output format is required")
    return formats


def run(argv: Sequence[str]) -> int:
    args = build_parser().parse_args(argv)
    paths = _artifact_paths(args.out, args.command, _flag("--format", _formats, args.format))
    report = COMMANDS[args.command][1](args)
    _write_artifacts(paths, report)
    # Only commands that offer --strict build a report that can be exceeded.
    if report.exceeded and args.strict:
        print("capacity_exceeded point encountered (--strict)", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def main() -> None:
    try:
        sys.exit(run(sys.argv[1:]))
    except ValueError as exc:  # ConfigError and friends subclass it
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EXIT_CONFIG)


if __name__ == "__main__":
    main()
