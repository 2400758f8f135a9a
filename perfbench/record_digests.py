"""Record the sha256 of every artifact the benchmark's commands write.

Usage (from the repository root):

    python3 perfbench/record_digests.py

Runs each workload's commands once per seed in SEEDS with the current `src/`
and writes perfbench/digests.json, keyed by the exact command line; commands
already recorded are skipped. run.py fails any invocation whose artifacts
differ from the digests recorded for its command. Re-record only when a change to the outputs is intended.
"""

from __future__ import annotations

import json
import shutil
import sys

import check
import run

SEEDS = range(32)


def main() -> int:
    work = run.WORK / "record"
    shutil.rmtree(work, ignore_errors=True)
    runner = run.Runner(work)
    runner.cwd.mkdir(parents=True)
    recorded = check.load_recorded(run.DIGESTS)
    try:
        for name in run.WORKLOADS + run.EXTRA_WORKLOADS:
            for seed in SEEDS:
                commands = run.workload_commands(name, seed)
                if all(run.command_key(argv) in recorded for argv in commands):
                    continue
                result = runner.run_pass(commands, traced=False, keep=False)
                for inv in result.invocations:
                    if inv.exit_code != 0 or not inv.digests:
                        print(f"error: {run.command_key(inv.argv)}: {inv.error}", file=sys.stderr)
                        return 1
                    recorded[run.command_key(inv.argv)] = inv.digests
                print(f"{name} seed {seed}: {len(commands)} command(s) recorded")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
