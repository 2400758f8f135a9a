"""A seeded contract fuzzer for the CLI, driven by cli.COMMANDS.

Each case picks a command, gives its flags boundary values (0, -1, ",",
2**53 and 2**53 + 1, huge ranges, duplicates) and may pass a copy of a
bundled config with one bounded key set to its first rejected value, NaN,
a number as a string, a wrong type or null. It runs cli.main in process. The
contract: the exit code is 0, 2 or 3 and nothing else escapes main; an
exit-2 message starts with a flag of the argv or names the config file (or
its moe, attention or peak_flops object); and a run that exits 2 writes
nothing."""

import contextlib
import functools
import io
import json
import math
import random
import shutil
import sys
from pathlib import Path

import caproof
from caproof import cli
from caproof.workload import MAX_TURNS

SEED = 20261018
CASES = 2000
CATALOG = Path(caproof.__file__).parent / "catalog"
FOLDERS = {"model": "models", "hardware": "hardware", "workload": "workloads"}
PRESETS = {kind: sorted(p.stem for p in (CATALOG / folder).glob("*.json"))
           for kind, folder in FOLDERS.items()}
EXACT, BEYOND = str(2**53), str(2**53 + 1)

INTS = ["0", "-1", ",", "", "1", "3", "4k", EXACT, BEYOND, "1,1", "16,1,16", "x", "1..4",
        "2,-2", "9007199254741k"]
GRIDS = ["B=1..8,L=1k..1m:log", "B=0,L=4k", "L=-5", f"L=1..{EXACT}:log", f"L=1..{BEYOND}:log",
         f"L=1..{EXACT}", "B=1..200001", "L=1k..4k:log3", "L=4k,4k", "L=8k,1k,8k", ",", "",
         "X=1", "B=,L=4k", "L=4k..1k", "B=1,2,4,L=4096", "L=1..4:1", "L=1..4:100001",
         "B=2,L=1k..1m:log", "B=16,1,16,L=1"]
FORMATS = ["csv"] * 6 + ["text", "svg", "csv,csv", ",", "x", "csv,svg,text"]

# (preset, key path, first rejected value) for every bounded config key
BOUNDED = [("mha-48x2048", (key,), 0) for key in ("num_layers", "d_model", "num_heads",
                                                    "d_ff", "head_dim")] + [
    ("mha-48x2048", ("vocab_size",), -1),
    ("mha-48x2048", ("weight_bits",), 3),
    ("mha-48x2048", ("kv_bits",), 3),
    ("gqa8-48x2048", ("attention", "num_kv_heads"), 0),
    ("mla-48x2048", ("attention", "d_latent"), 0),
    ("mla-48x2048", ("attention", "d_rope"), -1),
    ("moe-256e", ("moe", "num_experts"), 0),
    ("moe-256e", ("moe", "top_k"), 0),
    ("moe-256e", ("moe", "d_ff_expert"), 0),
    ("moe-256e", ("moe", "num_shared_experts"), -1),
    ("b200-sxm", ("peak_flops", "16"), 0),
    ("b200-sxm", ("mem_bandwidth",), 0),
    ("b200-sxm", ("mem_capacity",), 0.5),
    ("b200-sxm", ("num_devices",), 0),
    ("coding-agent", ("turns",), 0),
    ("coding-agent", ("turns",), MAX_TURNS + 1),
    ("coding-agent", ("prefill_tokens_per_turn",), -1),
    ("coding-agent", ("decode_tokens_per_turn",), -1),
    ("coding-agent", ("batch_size",), 0),
]
BAD_VALUES = [math.nan, math.inf, -math.inf, "NaN", "7", [1], None, True, 2**53 + 1]


def mutated_configs(directory: Path) -> dict:
    """{kind: [path, ...]}: one file per bounded key and bad value."""
    files = {"model": [], "hardware": [], "workload": []}
    for preset, keys, rejected in BOUNDED:
        kind = next(kind for kind, names in PRESETS.items() if preset in names)
        for value in [rejected, *BAD_VALUES]:
            data = json.loads((CATALOG / FOLDERS[kind] / f"{preset}.json").read_text())
            if kind == "model" and keys != ("head_dim",):  # head_dim from d_model / num_heads
                del data["head_dim"]
            parent = data
            for key in keys[:-1]:
                parent = parent[key]
            parent[keys[-1]] = value
            path = directory / f"{kind}{len(files[kind])}.json"
            path.write_text(json.dumps(data))  # NaN and Infinity are written literally
            files[kind].append(str(path))
    return files


def random_argv(rng: random.Random, files: dict) -> list:
    command = rng.choice(list(cli.COMMANDS))
    flags = cli.COMMANDS[command][2]

    def ref(kind):
        return rng.choice(files[kind]) if rng.random() < 0.3 else rng.choice(PRESETS[kind])

    models = 2 if command.startswith("compare") else 1
    argv = [command]
    for _ in range(models):
        argv += ["--model", ref("model")]
    argv += ["--format", rng.choice(FORMATS)]
    if command == "sweep":  # exactly one of --grid and --workload
        dropped = rng.choice(["grid", "workload"])
        flags = {flag: v for flag, v in flags.items() if flag != dropped}
    for flag in flags:
        if flag == "hardware":
            argv += ["--hardware", ref("hardware")]
        elif flag == "workload" and (command == "sweep" or rng.random() < 0.5):
            for _ in range(1 if command != "agent-profile" else rng.randint(1, 2)):
                argv += ["--workload", ref("workload")]
        elif flag in ("strict", "include-activations", "replicate-weights"):
            if rng.random() < 0.5:
                argv.append(f"--{flag}")
        elif flag == "grid" and (command == "sweep" or rng.random() < 0.5):
            argv += ["--grid", rng.choice(GRIDS)]
        elif flag == "phase" and rng.random() < 0.5:
            argv += ["--phase", rng.choice(["prefill", "decode", "both"])]
        elif flag in ("batch", "context") and rng.random() < 0.5:
            argv += [f"--{flag}", rng.choice(INTS)]
    return argv


def check_case(argv: list, out: Path):
    """(exit code, '') when the run keeps the contract, else (code, what it broke)."""
    sys.argv = ["caproof", *argv, "--out", str(out)]
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            cli.main()
        return None, "main returned instead of exiting"
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # any other escape from main breaks the contract
        return None, f"raised {type(exc).__name__}: {exc}"
    message = err.getvalue()
    if code not in (0, 2, 3):
        return code, "not an exit code of the CLI"
    if code != 2:
        return code, "" if code == 0 or "--strict" in argv else "exit 3 without --strict"
    if out.exists():
        return code, "exit 2 wrote files"
    names = [a for a in argv if a.startswith("--")] + [
        f"{a}{suffix}" for a in argv if a.endswith(".json")
        for suffix in (":", ".moe:", ".attention:", ".peak_flops:")]
    if not message.startswith(tuple(f"error: {name}" for name in names)):
        return code, f"exit 2 with {message!r}"
    return code, ""


def test_every_run_keeps_the_exit_contract(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "argv", list(sys.argv))
    # argparse parsers are reusable; building one per run would take most of the time
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser))
    files = mutated_configs(tmp_path)
    rng = random.Random(SEED)
    broken, codes = [], []
    for case in range(CASES):
        argv = random_argv(rng, files)
        out = tmp_path / f"out{case}"
        code, problem = check_case(argv, out)
        codes.append(code)
        if problem:
            broken.append(f"{' '.join(argv)}: {problem}")
        shutil.rmtree(out, ignore_errors=True)
    assert all(codes.count(code) >= CASES // 40 for code in (0, 2, 3)), "too few of an exit code"
    assert not broken, f"{len(broken)} of {CASES} runs broke the contract:\n" + "\n".join(
        broken[:10])
