"""The speed of each CPU, sampled while the benchmark's passes run.

On a shared virtual machine the same code can run about 1.4x slower for
seconds at a time, sometimes for most of a run, while a neighbour loads
the core.  A run-level median or minimum then measures the neighbour.
So one sampler process per CPU, pinned to it, times a fixed reference
computation every INTERVAL seconds, and a span [a, b] of work on a set
of CPUs is reported as (b - a) times the mean of REFERENCE_S / sample
over the samples taken during it: the work's duration at the speed at
which the reference takes REFERENCE_S.  The reference composes small
permutations and adds Fractions, the interpreter work the program does,
so it slows down by about the same factor.

Run as a script, this module is the sampler:  speed.py CPU OUTFILE
"""

from __future__ import annotations

import bisect
import os
import subprocess
import sys
import time
from fractions import Fraction

INTERVAL = 0.02
REFERENCE_S = 3e-4
PAD = 0.05  # a span shorter than the interval borrows samples this close to it
STARTUP_TIMEOUT = 30.0


def reference():
    perm = tuple(range(8))
    step = (1, 2, 3, 4, 5, 6, 7, 0)
    seen = set()
    for _ in range(200):
        perm = tuple(perm[j] for j in step)
        seen.add(perm)
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(1, i)
    return len(seen), total


def sample(cpu: int, path: str):
    os.sched_setaffinity(0, {cpu})
    parent = os.getppid()
    with open(path, "w", buffering=1) as out:
        while os.getppid() == parent:  # stop if the benchmark dies without stopping us
            time.sleep(INTERVAL)
            start = time.perf_counter()
            reference()
            out.write(f"{start} {time.perf_counter() - start}\n")


class SpeedMeter:
    """One sampler per CPU in cpus, running while the context is open."""

    def __init__(self, workdir: str, cpus):
        self.cpus = list(cpus)
        self._paths = {c: os.path.join(workdir, f"speed-cpu{c}.txt") for c in self.cpus}
        self._procs = []
        self._samples = {c: ([], []) for c in self.cpus}  # start times, durations
        self._offsets = dict.fromkeys(self.cpus, 0)

    def __enter__(self):
        here = os.path.abspath(__file__)
        try:
            for cpu, path in self._paths.items():
                self._procs.append(subprocess.Popen([sys.executable, here, str(cpu), path]))
            deadline = time.monotonic() + STARTUP_TIMEOUT
            while not all(self._read(c)[0] for c in self.cpus):
                if time.monotonic() > deadline:
                    raise RuntimeError("speed samplers produced no sample")
                time.sleep(INTERVAL)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc):
        for proc in self._procs:
            proc.terminate()
        for proc in self._procs:
            proc.wait(timeout=30)

    def _read(self, cpu: int):
        starts, durations = self._samples[cpu]
        if not os.path.exists(self._paths[cpu]):
            return starts, durations  # the sampler has not started yet
        with open(self._paths[cpu]) as fh:
            fh.seek(self._offsets[cpu])
            for line in fh:
                if not line.endswith("\n"):
                    break  # the sampler is still writing it
                self._offsets[cpu] += len(line)
                start, duration = line.split()
                starts.append(float(start))
                durations.append(float(duration))
        return starts, durations

    def seconds(self, a: float, b: float) -> float:
        """The span [a, b] of work on the sampled CPUs, in seconds at reference speed."""
        ratios = []
        for cpu in self.cpus:
            starts, durations = self._read(cpu)
            lo = bisect.bisect_left(starts, a - PAD)
            hi = bisect.bisect_right(starts, b + PAD)
            if lo == hi:
                lo, hi = max(lo - 1, 0), min(lo + 1, len(starts))
            ratios += [REFERENCE_S / d for d in durations[lo:hi]]
        return (b - a) * sum(ratios) / len(ratios)


if __name__ == "__main__":
    sample(int(sys.argv[1]), sys.argv[2])
