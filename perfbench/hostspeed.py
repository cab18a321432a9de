"""Host speed probe: scale host times to a reference speed.

The benchmark runs on the 2 CPUs of a shared host.  How fast those CPUs
run changes by up to 2x within seconds to minutes as other tenants come
and go, and a slow phase often outlasts a whole run, so medians taken
inside one run cannot remove it.  The probe measures that speed
directly: a fixed piece of pure-Python work (:func:`spin`) runs at once
in this process and in a helper process, one per CPU, and the slower of
the two is the probe time.  It is sampled often, at points where the
program is idle, between the timed operations, never during them.  A
time measured over ``[t0, t1]`` is multiplied by ``REF_PROBE_S / the
median probe time`` of the samples taken in that interval and the
nearest one on each side (a rate is divided by it).  A slower program
still reads slower, since the probe does none of its work; a slower
host reads about the same.

Why both CPUs: the pooled workloads fork workers onto both, and a host
phase that slows one CPU slows them far more than it slows a probe on
the other.  Measured side by side over 96 s of pooled three-point
batches, the batch time ranged over 18-25 ms; divided by a one-CPU
probe it still ranged over 1.69-2.15, by this two-CPU probe over
1.51-1.74.

Why the samples next to each time and not one factor per run: the
host changed speed within runs.  In seven warm-sweep runs the raw batch
time ranged over 17-31 ms; scaled by each run's median probe its
spread across runs was 0.18, scaled by the probes next to each batch
0.05.

Why only idle points: anything the program did at the same moment would
slow the probe too, and the scaling would then hide part of a
regression.  The helper only spins, so nothing the program does changes
what it measures.
"""

from __future__ import annotations

import bisect
import multiprocessing
import os
import statistics
import time

#: The probe's median time on the 2-CPU reference host (Intel Xeon,
#: Python 3.11.7).  It fixes the scale only: reported times are what the
#: work takes on a host whose probe reads this.
REF_PROBE_S = 0.0028
#: Probe repetitions per sample, in each process.
PROBE_REPEATS = 9
#: Iterations of the probe loop, about 2.5 ms on the reference host.
_SPIN_N = 6000


def spin(n: int = _SPIN_N) -> int:
    """Fixed interpreter work: arithmetic, a dict and a list, the
    operations the simulator's Python layers spend their time on."""
    table: dict = {}
    out = []
    acc = 0
    for i in range(n):
        key = (i * 7919) & 1023
        table[key] = table.get(key, 0) + i
        acc = (acc + i * i) % 1000003
        if i & 15 == 0:
            out.append(acc)
    return acc + len(out) + len(table)


def _spins(repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        spin()
        times.append(time.perf_counter() - t0)
    return times


def _helper(conn) -> None:
    """Helper process: spin on request until told to stop (None).  It
    may run on every CPU, whatever its parent was pinned to."""
    os.sched_setaffinity(0, range(os.cpu_count() or 1))
    while True:
        repeats = conn.recv()
        if repeats is None:
            return
        conn.send(_spins(repeats))


class HostSpeed:
    """Probe samples of one run and the scale factor they give.

    Owns the helper process, started by the first sample: :meth:`close`
    stops it and waits for it.
    """

    def __init__(self) -> None:
        #: (perf_counter at the sample, probe seconds).
        self.samples: list[tuple[float, float]] = []
        #: Seconds spent sampling, for callers that time around samples.
        self.spent_s = 0.0
        self._proc = None
        self._conn = None

    def _start_helper(self) -> None:
        ctx = multiprocessing.get_context("fork")
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(target=_helper, args=(child,),
                                 name="perfbench-probe", daemon=True)
        self._proc.start()
        child.close()

    def sample(self) -> float:
        """Time the probe now (the caller is idle): both processes spin
        PROBE_REPEATS times together; the sample is the slower side's
        median repetition."""
        t0 = time.perf_counter()
        if self._proc is None:
            self._start_helper()
        self._conn.send(PROBE_REPEATS)
        here = statistics.median(_spins(PROBE_REPEATS))
        there = statistics.median(self._conn.recv())
        probe = max(here, there)
        t1 = time.perf_counter()
        self.samples.append((t1, probe))
        self.spent_s += t1 - t0
        return probe

    def scale(self, t0: float, t1: float) -> float:
        """Factor that turns a host time measured over ``[t0, t1]``
        (``time.perf_counter``) into a reference-speed time."""
        if not self.samples:
            raise ValueError("no probe samples")
        stamps = [t for t, _ in self.samples]
        lo = max(0, bisect.bisect_left(stamps, t0) - 1)
        hi = min(len(stamps), bisect.bisect_right(stamps, t1) + 1)
        return REF_PROBE_S / statistics.median(
            p for _, p in self.samples[lo:hi])

    def close(self) -> None:
        """Stop the helper, if started, and wait for it to end."""
        if self._proc is None:
            return
        if self._proc.is_alive():
            try:
                self._conn.send(None)
            except OSError:
                pass
            self._proc.join(timeout=10)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join()
        self._conn.close()
