"""The `caproof` console script, plus a record of the process's own peak RSS.

Usage: python3 entry.py <peak-rss-file> <caproof arguments...>

At exit the peak resident set size (VmHWM, in kB) is written to the given
file. The rusage a parent gets from wait4 is not used for this, because
Linux carries the parent's resident size into a spawned child's ru_maxrss.
"""

import atexit
import sys
from pathlib import Path


def _record_peak_rss(path: str) -> None:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            Path(path).write_text(line.split()[1])


if __name__ == "__main__":
    atexit.register(_record_peak_rss, sys.argv.pop(1))
    sys.argv[0] = "caproof"
    from caproof.cli import main

    main()
