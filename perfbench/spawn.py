"""Run one command; print its wall time, CPU time, peak RSS and exit code as JSON.

    python3 -S perfbench/spawn.py COMMAND [ARG ...]

Linux carries a process's peak RSS over exec, and a child forked from a large
process starts with that process's pages. A command started straight from the
benchmark, which has numpy loaded, would therefore report at least the
benchmark's own resident size. Forked from this small process instead, the
command's peak RSS is its own. The command's stdout is discarded; its stderr
is this process's stderr. SIGTERM is passed on to the command.
"""
import json
import os
import signal
import sys
import time


def main() -> int:
    argv = sys.argv[1:]
    devnull = os.open(os.devnull, os.O_RDWR)
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.dup2(devnull, 0)
            os.dup2(devnull, 1)
            os.execvp(argv[0], argv)
        finally:
            os._exit(127)
    signal.signal(signal.SIGTERM, lambda signum, frame: os.kill(pid, signum))
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    print(json.dumps({
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "returncode": os.waitstatus_to_exitcode(status),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
