"""Run one command; report its times, host speed, own peak RSS and exit code.

Usage: python3 launch.py TIMEOUT_S LOG_PREFIX -- ARGV...

The child's stdout and stderr go to LOG_PREFIX.out and LOG_PREFIX.err.
Prints one JSON line: {"wall": s, "cpu": s, "speed": ratio, "rss_mb": MB,
"code": exit code}.

This runs as its own small interpreter because Linux carries the peak RSS
of the spawning process over into the child's ru_maxrss: spawned straight
from the benchmark, which holds whole traces in numpy while checking
them, a child would report the benchmark's peak instead of its own.
os.wait4 then gives the rusage of exactly this child, unlike
RUSAGE_CHILDREN, which keeps the maximum over every child reaped.

Host speed. On a shared virtual machine the speed of a CPU drifts by up
to half between minutes, and the child's CPU time drifts with it, since
the guest does not see the cycles other guests take. So the launcher and
the child share one CPU, and while the child runs a probe thread here
wakes every PROBE_GAP_S and times a fixed chunk of interpreted work on
that CPU. `speed` is the mean over those samples of REF_CHUNK_S / chunk
time: 1.0 when the chunk runs at reference speed, 0.8 when the CPU runs
at four fifths of it. The benchmark reports cpu * speed, the child's time
in reference seconds.
"""

import json
import os
import statistics
import subprocess
import sys
import threading
import time

PROBE_GAP_S = 0.01
PROBE_LOOP = 6000
REF_CHUNK_S = 0.5e-3
MIN_PROBES = 8


def probe_chunk() -> float:
    start = time.perf_counter()
    s = 0.0
    for i in range(PROBE_LOOP):
        s += i * 0.5
    return time.perf_counter() - start


class Probe(threading.Thread):
    """Times probe_chunk every PROBE_GAP_S until stopped."""

    def __init__(self):
        super().__init__(daemon=True)
        self.samples: list[float] = []
        self.stopped = threading.Event()

    def run(self):
        while not self.stopped.is_set():
            self.samples.append(probe_chunk())
            self.stopped.wait(PROBE_GAP_S)

    def speed(self) -> float:
        # A child shorter than a few gaps leaves too few samples; the CPU
        # was just in use by it, so a few chunks right after it stand in.
        while len(self.samples) < MIN_PROBES:
            self.samples.append(probe_chunk())
        return statistics.fmean(REF_CHUNK_S / dt for dt in self.samples)


def main(argv: list[str]) -> int:
    timeout, log, sep, *cmd = argv
    if sep != "--" or not cmd:
        raise SystemExit("usage: launch.py TIMEOUT_S LOG_PREFIX -- ARGV...")
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    probe = Probe()
    with open(log + ".out", "wb") as out, open(log + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err)
        probe.start()
        timer = threading.Timer(float(timeout), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            probe.stopped.set()
            probe.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
                      "speed": probe.speed(),
                      "rss_mb": usage.ru_maxrss / 1024.0,
                      "code": proc.returncode}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
