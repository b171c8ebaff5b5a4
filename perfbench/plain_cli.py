"""Run the cohsync CLI untraced, as the `cohsync` command does, and record its peak RSS.

Usage: python3 perfbench/plain_cli.py PEAK_RSS_FILE CLI_ARGS...

The ru_maxrss that the parent gets from wait4 is never below the parent's
own peak, because the exec that starts this process records the peak of the
address space it replaces. VmHWM covers only this program's address space,
so it is written to PEAK_RSS_FILE, in KiB, when the process exits.
"""

import atexit
import sys


def write_peak_rss(path):
    with open("/proc/self/status") as fh:
        kib = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    with open(path, "w") as fh:
        fh.write(f"{kib}\n")


if __name__ == "__main__":
    atexit.register(write_peak_rss, sys.argv[1])
    from cohsync.cli import main

    sys.exit(main(sys.argv[2:]))
