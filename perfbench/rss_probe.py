"""Run one polyprec CLI command in-process and record its peak resident memory.

Usage: python3 perfbench/rss_probe.py RESULT.txt CLI-ARGS...

Runs what ``python3 -m polyprec.cli CLI-ARGS...`` runs, then writes the
process's peak resident set in KiB (``VmHWM``, which covers only the memory
map made at exec). The ``ru_maxrss`` that ``wait4`` reports is no substitute:
Linux carries the starting process's peak across exec into it, so a child of
the benchmark would read at least the benchmark's own peak.
"""

import sys

from polyprec import cli


def peak_rss_kib() -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


if __name__ == "__main__":
    code = cli.main(sys.argv[2:])
    with open(sys.argv[1], "w") as handle:
        handle.write(str(peak_rss_kib()))
    sys.exit(code)
