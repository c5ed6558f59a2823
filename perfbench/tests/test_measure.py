"""Run with: python3 -m pytest perfbench/tests"""
import os
import resource
import subprocess
import sys

from measure import run_child, tail

BIG_MB = 160
ALLOCATE = f"b = b'x' * ({BIG_MB} << 20)"  # written, so resident


def test_peak_rss_is_per_child_not_the_running_maximum():
    big = run_child([sys.executable, "-c", ALLOCATE])
    small = run_child([sys.executable, "-c", "pass"])
    assert big.returncode == small.returncode == 0
    assert big.peak_rss_mb >= BIG_MB
    assert small.peak_rss_mb < BIG_MB / 4
    # the reading run_child avoids: it still carries the big child's peak
    assert resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024 >= BIG_MB


def test_peak_rss_excludes_the_parents_own_size():
    ballast = b"x" * (BIG_MB << 20)
    assert run_child([sys.executable, "-c", "pass"]).peak_rss_mb < BIG_MB / 4
    # the reading spawn.py avoids: a child started straight from this process
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert usage.ru_maxrss / 1024 >= BIG_MB
    del ballast


def test_child_cpu_and_exit_code():
    spin = "import time\nt = time.process_time()\nwhile time.process_time() - t < 0.2: pass"
    child = run_child([sys.executable, "-c", spin + "\nraise SystemExit(3)"])
    assert child.returncode == 3
    assert child.cpu_s >= 0.2
    assert child.wall_s >= child.cpu_s * 0.5


def test_tail_needs_ten_samples_beyond_it():
    assert tail(range(10)) is None
    assert tail(range(20)) == (50.0, 9)  # nearest rank: 10 samples above 9
    assert tail(range(110)) == (90.0, 98)
    assert tail(range(2000)) == (99.0, 1979)
