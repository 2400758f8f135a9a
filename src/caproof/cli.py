"""Command-line entry point.

Subcommands: analyze, sweep, compare-attention, compare-moe, agent-profile,
roofline-plot, one entry each in COMMANDS: its flags and a builder that
returns the command's reports.Report. Outputs are pure functions of the input
files and flags; two identical invocations produce byte-identical artifacts.

Exit codes: 0 success, 2 config error, 3 infeasible analysis (a
capacity-exceeded point under --strict).
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from . import reports
from .analysis import BoundClass, sweep_grid, sweep_workload
from .config import MAX_EXACT_INT, ConfigError, list_catalog, resolve_config
from .model import Phase

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3

_SUFFIXES = {"k": 1_000, "m": 1_000_000, "g": 1_000_000_000}
MAX_RANGE_POINTS = 100_000
# Rows of one batch x context grid over its phases: about 1 GB held at ~500
# bytes a row.
MAX_GRID_ROWS = 2_000_000


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
    values = []
    for v in raw:
        if not values or v > values[-1]:
            values.append(v)
    return values


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
            name, _, expr = piece.partition("=")
            current = name.strip().upper()
            if current not in ("B", "L"):
                raise ConfigError(f"unknown grid dimension '{current}' (use B and L)")
            dims.setdefault(current, []).extend(_expand_range(expr))
        else:
            if current is None:
                raise ConfigError(f"grid piece '{piece}' appears before any dimension")
            dims[current].extend(_expand_range(piece))
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
    """read(*values), a ConfigError it raises prefixed with the flag: "--batch: ..."."""
    try:
        return read(*values)
    except ConfigError as exc:
        raise ConfigError(f"{flag}: {exc}") from None


def _single_model(args):
    if len(args.model) != 1:
        raise ConfigError("this command takes exactly one --model")
    return resolve_config(args.model[0], "model", args.allow_unknown_keys)


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
        raise ConfigError(f"{args.command} needs at least two --model entries")
    return models


def _at_least_one(values: List[int], field: str) -> List[int]:
    """The values, checked before any artifact is written: at least one, each >= 1."""
    if not values:
        raise ConfigError("needs at least one value")
    if min(values) < 1:
        raise ConfigError(f"{field} must be >= 1, got {min(values)}")
    return values


def _int_list(text: Optional[str], default: str, field: str) -> List[int]:
    """The values of a comma-list flag, or its default when it was not given."""
    return _at_least_one(parse_int_list(default if text is None else text), field)


def _check_grid_size(flag: str, phase: Optional[str], batches: List[int],
                     contexts: List[int]) -> None:
    """Reject a grid of more than MAX_GRID_ROWS rows before any analysis."""
    rows = len(_PHASES[phase or "both"]) * len(set(batches)) * len(set(contexts))
    if rows > MAX_GRID_ROWS:
        raise ConfigError(f"{flag}: the grid has {rows} rows, more than {MAX_GRID_ROWS}")


def _reject_with_workload(args, *flags: str) -> None:
    """Grid flags are errors next to --workload, even when set to their default."""
    for flag in flags:
        if getattr(args, flag) is not None:
            raise ConfigError(f"--{flag} cannot be combined with --workload: the trace "
                              "fixes the points and yields both phases")


def _sweep_report(args, workload_ref, batches=(), contexts=()) -> reports.Report:
    """One model on one hardware over a workload trace or a batch x context
    grid: the report of analyze, sweep and roofline-plot."""
    model = _single_model(args)
    hw = resolve_config(args.hardware, "hardware", args.allow_unknown_keys)
    flags = (args.include_activations, args.replicate_weights)
    if workload_ref is not None:
        workload = resolve_config(workload_ref, "workload", args.allow_unknown_keys)
        result = sweep_workload(model, hw, workload, *flags)
    else:
        phases = _PHASES[args.phase or "both"]
        result = sweep_grid(model, hw, batches, contexts, phases, *flags)
    return reports.Report(
        csv=result.to_csv,
        text=lambda out: reports.sweep_text(result, out),
        svg=lambda out: reports.roofline_svg(model, hw, result, f"{model.name} on {hw.name}",
                                             out),
        exceeded=any(r.analysis.bound_class is BoundClass.CAPACITY_EXCEEDED for r in result.rows),
    )


def _analyze(args) -> reports.Report:
    batches = _flag("--batch", _int_list, args.batch, "1", "batch_size")
    contexts = _flag("--context", _int_list, args.context, "4096", "context_len")
    _check_grid_size("--batch" if args.batch is not None else "--context", args.phase,
                     batches, contexts)
    return _sweep_report(args, None, batches, contexts)


def _roofline_plot(args) -> reports.Report:
    if args.workload is None:
        return _analyze(args)
    _reject_with_workload(args, "phase", "batch", "context")
    return _sweep_report(args, args.workload)


def _sweep(args) -> reports.Report:
    if (args.grid is None) == (args.workload is None):
        raise ConfigError("sweep needs exactly one of --grid or --workload")
    if args.workload is not None:
        _reject_with_workload(args, "phase")
        return _sweep_report(args, args.workload)
    grid = _flag("--grid", parse_grid, args.grid)
    batches = _flag("--grid", _at_least_one, grid.get("B", [1]), "batch_size")
    contexts = _flag("--grid", _at_least_one, grid.get("L", [4096]), "context_len")
    _check_grid_size("--grid", args.phase, batches, contexts)
    return _sweep_report(args, None, batches, contexts)


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
    _flag("--batch", _at_least_one, [args.batch], "batch_size")
    models = _compared_models(args)
    lengths = _flag("--grid", _context_axis, args.grid)
    rows = reports.compare_attention_rows(models, lengths, args.batch)
    return reports.Report(
        csv=lambda out: out.write(reports.compare_attention_csv(rows)),
        text=lambda out: out.write(reports.compare_attention_text(models, rows, args.batch)),
        svg=lambda out: out.write(reports.compare_attention_svg(models, rows, args.batch)),
    )


def _compare_moe(args) -> reports.Report:
    _flag("--context", _at_least_one, [args.context], "context_len")
    models = _compared_models(args)
    batches = sorted(set(_flag("--batch", _int_list, args.batch, "1,16", "batch_size")))
    rows = reports.compare_moe_rows(models, batches, args.context, args.include_activations)
    return reports.Report(
        csv=lambda out: out.write(reports.compare_moe_csv(rows)),
        text=lambda out: out.write(reports.compare_moe_text(rows, args.context)),
        svg=lambda out: out.write(reports.compare_moe_svg(rows, args.context)),
    )


def _agent_profile(args) -> reports.Report:
    model = _single_model(args)
    hw = resolve_config(args.hardware, "hardware", args.allow_unknown_keys)
    workloads = _resolve_distinct(args, "workload", args.workload or list_catalog("workload"))
    rows = reports.agent_profile_rows(model, hw, workloads, args.include_activations,
                                      args.replicate_weights)
    return reports.Report(
        csv=lambda out: out.write(reports.agent_profile_csv(rows)),
        text=lambda out: out.write(reports.agent_profile_text(rows, model, hw)),
        svg=lambda out: out.write(reports.agent_profile_svg(rows, hw)),
        exceeded=any(row["decode_class"] == BoundClass.CAPACITY_EXCEEDED.value for row in rows),
    )


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
    "analyze": ("classify one or a few operating points", _analyze,
                {"hardware": {}, "phase": {}, "batch": {}, "context": {}, **_POINT_FLAGS}),
    "sweep": ("grid or workload-driven sweep", _sweep,
              {"hardware": {}, "phase": {}, "grid": {}, "workload": {}, **_POINT_FLAGS}),
    "compare-attention": ("footprint vs context across attention variants", _compare_attention,
                          {"batch": {"type": parse_scalar, "default": "1",
                                     "help": "one batch size (default 1)"},
                           "grid": {"default": "L=1k..1m:log",
                                    "help": "context grid (L dimension only)"}}),
    "compare-moe": ("dense vs MoE footprint bars and decode intensity", _compare_moe,
                    {"batch": {"help": "comma list of batch sizes (default 1,16)"},
                     "context": {"type": parse_scalar, "default": "4096",
                                 "help": "one context length (default 4096)"},
                     "include-activations": {}}),
    "agent-profile": ("per-agent token totals, footprint, and intensity", _agent_profile,
                      {"hardware": {},
                       "workload": {"action": "append",
                                    "help": "repeatable; defaults to every bundled workload preset"},
                       **_POINT_FLAGS}),
    "roofline-plot": ("roofline with classified workload points", _roofline_plot,
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
    """Open each format's artifact path in turn and hand the file to the
    report's renderer for that format, which writes the artifact into it (a
    sweep artifact in row blocks). A renderer that raises leaves no file for
    its format; the artifacts written before it stay. A path that still
    cannot be opened is a ConfigError naming --out."""
    written = []
    for fmt, path in paths.items():
        try:  # the first artifact makes the directory
            path.parent.mkdir(parents=True, exist_ok=True)
            out = open(path, "w", encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"--out: {exc.strerror}: '{exc.filename}'") from None
        try:
            with out:
                getattr(report, fmt)(out)
        except BaseException:
            path.unlink(missing_ok=True)
            raise
        written.append(path)
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
