"""Host time of repeated runs, corrected for the host's speed.

The host this benchmark runs on changes speed on its own: a fixed loop
runs about 1.5 times slower for seconds to minutes at a time, and
slower still in bursts of tens of milliseconds.  Whole-run times of the
same work therefore differ by 20% or more between runs, whatever the
run length.  Two measures take most of that out:

* **Slices.**  The first run drives ``Simulator.run`` forward in steps
  of simulated time sized to take about ``SLICE_S`` of host time each,
  and records where the steps ended; later runs stop at the same
  simulated times.  The simulation is deterministic, so slice ``k`` is
  the same work in every run.  Between two stops the program runs its
  own event loop unchanged.  A slice runs from one stop to the next, so
  the slices of a run cover the whole run, work outside the simulator
  included.
* **Reference.**  At every stop the benchmark times ``reference()``, a
  fixed integer loop of its own, and scales the slice by ``REF_S`` over
  the mean of the reference times at its two ends: a slice is reported
  in the seconds it would take on a host where the loop takes ``REF_S``.
  The loop touches no memory to speak of, so it tracks the host's speed
  and not the program's.  The reference time itself is not counted.

``estimate`` sums each slice's median over the runs, so a burst that
slows a few slices of one run is left out.  A change that makes the
program do less work shows in full: the reference is not the program.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, List, Optional, Tuple

__all__ = ["REF_S", "SliceClock", "Stopwatch", "reference"]

INF = float("inf")
#: nominal seconds of ``reference()``: host seconds are reported as on a
#: host where the loop takes this long
REF_S = 0.002
REF_ITERATIONS = 15_000


def reference() -> float:
    """Host seconds of a fixed loop of integer arithmetic."""
    t0 = time.perf_counter()
    x = 1
    for _ in range(REF_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
    return time.perf_counter() - t0


class Stopwatch:
    """Scaled host seconds of work done outside the simulator.

    ``lap()`` closes a piece of the work: its time is scaled by the
    reference times at its two ends, as a slice is.  Long work that
    calls ``lap`` between its steps follows the host's speed as it
    changes.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self._ref = reference()
        self._start = time.perf_counter()

    def lap(self) -> None:
        end = time.perf_counter()
        ref = reference()
        self.seconds += (end - self._start) * 2 * REF_S / (self._ref + ref)
        self._ref = ref
        self._start = time.perf_counter()


class SliceClock:
    """Times repeated runs of one workload on one seed."""

    #: host seconds a slice should take (the first run sizes the steps)
    SLICE_S = 0.03
    #: simulated seconds of the first step, and the smallest step
    FIRST_STEP, MIN_STEP = 1e-6, 1e-9

    def __init__(self) -> None:
        self.stops: Optional[List[float]] = None
        self.runs: List[List[float]] = []     # scaled slice seconds, per run
        self.totals: List[float] = []         # unscaled run seconds, per run
        self.diverged = 0                     # runs that missed a stop

    def time(self, run: Callable, handle, sim):
        """Call ``run(handle)`` with ``sim`` stopping at the slice
        boundaries; return its result."""
        recording = self.stops is None
        stops = [] if recording else self.stops
        # per slice: (start, end) host time; refs[k], refs[k + 1] bracket
        # slice k
        spans: List[Tuple[float, float]] = []
        refs: List[float] = []
        state = {"step": self.FIRST_STEP, "diverged": False,
                 "start": 0.0, "t0": 0.0}
        plain = sim.run

        def cut() -> None:
            spans.append((state["start"], time.perf_counter()))
            refs.append(reference())
            state["start"] = time.perf_counter()

        def sliced(until=None):
            while True:
                i = len(spans)
                if recording:
                    stop = until if until is not None else \
                        sim.now + state["step"]
                    stops.append(stop)
                elif i < len(stops) and stops[i] > sim.now and \
                        (until is None or stops[i] <= until):
                    stop = stops[i]
                else:
                    state["diverged"] = True
                    now = plain(until)
                    cut()
                    return now
                now = plain(stop)
                cut()
                if recording:
                    start, end = spans[-1]
                    took = end - start
                    scale = self.SLICE_S / took if took > 0 else 2.0
                    step = state["step"] * min(2.0, max(1 / 64, scale))
                    # A step grown over cheap simulated time must not swallow
                    # dear time after it: keep it within twice the run's
                    # average pace so far.
                    pace = sim.now / (end - state["t0"])
                    state["step"] = max(self.MIN_STEP, min(
                        step, max(self.FIRST_STEP, 2 * pace * self.SLICE_S)))
                if sim.peek() == INF or (until is not None and
                                         now >= until):
                    return now

        sim.run = sliced
        try:
            refs.append(reference())
            state["start"] = state["t0"] = time.perf_counter()
            result = run(handle)
            cut()
        finally:
            del sim.run
        if recording:
            self.stops = stops
        self.totals.append(sum(end - start for start, end in spans))
        if state["diverged"] or len(spans) != len(self.stops) + 1:
            self.diverged += 1
        else:
            self.runs.append([
                (end - start) * 2 * REF_S / (refs[k] + refs[k + 1])
                for k, (start, end) in enumerate(spans)])
        return result

    def estimate(self) -> float:
        """Scaled host seconds of one run: each slice's median over the
        runs that stopped at every boundary, summed."""
        if not self.runs:
            return statistics.median(self.totals)
        return sum(statistics.median(column) for column in zip(*self.runs))
