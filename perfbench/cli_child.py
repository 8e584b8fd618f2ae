"""Run the liechar CLI as ``python3 -m liechar.cli`` does, and report its peak memory.

    python3 perfbench/cli_child.py <liechar argv...>

As it exits it prints ``PERFBENCH_PEAK_KB <n>`` to stderr: VmHWM, the peak
resident size of this process's own address space.  The ru_maxrss that
wait4 returns cannot be used: Linux carries the parent's peak across
vfork and exec into the child's, so it would report the benchmark's own
memory whenever that is the larger.
"""

import runpy
import sys

PEAK_MARK = "PERFBENCH_PEAK_KB "


def peak_kb():
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


if __name__ == "__main__":
    try:
        runpy.run_module("liechar.cli", run_name="__main__", alter_sys=True)
    finally:
        sys.stderr.write(f"{PEAK_MARK}{peak_kb()}\n")
