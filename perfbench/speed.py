"""The machine's speed, sampled while a task runs.

On a shared virtual machine the same task can take 1.5x longer in one
minute than in the next, in CPU time as much as in wall time, because
the host runs other work beside it.  A ``SpeedProbe`` measures that
speed in the task's own thread: every ``INTERVAL_S`` of wall time a
SIGALRM handler runs a fixed pure-Python loop and records how long it
took.  The handler runs between the task's bytecodes, so the probes
sample the same slow and fast phases the task runs through.

``scale`` is the mean of ``REF_PROBE_S / probe time`` over the samples:
how much of the reference machine's time a second of this machine's
time was worth while the task ran.  A task time, minus the time the
probes themselves took, times ``scale`` is the time the task would take
on a machine where the loop takes ``REF_PROBE_S``.  The mean of the
inverse is the right average because the probes are spaced evenly in
wall time, and work done is the integral of speed over time.

    with SpeedProbe() as probe:
        start = probe.mark()
        run_the_task()
        wall, cpu = probe.since(start)
    seconds = wall * probe.scale
"""

from __future__ import annotations

import signal
import time

PROBE_LOOPS = 5000
INTERVAL_S = 0.025
# about the loop's time in a fast phase of a 2-vCPU Xeon virtual machine
REF_PROBE_S = 0.0005


def probe_loop() -> None:
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i % 7


class SpeedProbe:
    def __init__(self) -> None:
        self.samples: list[float] = []
        self.wall_spent = 0.0
        self.cpu_spent = 0.0

    def sample(self, *_ignored) -> None:
        w0, c0 = time.perf_counter(), time.process_time()
        probe_loop()
        w1, c1 = time.perf_counter(), time.process_time()
        self.samples.append(w1 - w0)
        self.wall_spent += w1 - w0
        self.cpu_spent += c1 - c0

    def __enter__(self) -> "SpeedProbe":
        self.previous = signal.signal(signal.SIGALRM, self.sample)
        # one sample at each end, so that a task shorter than the
        # interval is still scaled
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
        self.sample()

    def mark(self) -> tuple[float, float, float, float]:
        return (time.perf_counter(), time.process_time(),
                self.wall_spent, self.cpu_spent)

    def since(self, mark) -> tuple[float, float]:
        """Wall and CPU seconds since mark, less the probes' own time."""
        w0, c0, pw0, pc0 = mark
        return (time.perf_counter() - w0 - (self.wall_spent - pw0),
                time.process_time() - c0 - (self.cpu_spent - pc0))

    @property
    def scale(self) -> float:
        return sum(REF_PROBE_S / t for t in self.samples) / len(self.samples)
