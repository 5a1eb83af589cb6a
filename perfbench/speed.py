"""A fixed reference job that tracks the speed of the machine.

On the machine this benchmark was built on, a fixed single-threaded job runs at
speeds up to 1.7 times apart, in stretches that last from seconds to minutes,
and process CPU time slows with it.  So ``run.py`` times this job next to every
``run_sweep`` call and divides the call's time by it.  The job uses numpy and
Python only, never hrislink, so no change to the package can move it.

numpy is imported when a ``ReferenceJob`` is made, so this module can be
imported before BLAS is pinned.
"""

from __future__ import annotations

import time

# A round figure for the job's time on the machine the benchmark was built on, where it
# reads 0.8 to 1.5 ms (see README.md).  It only scales the reported figures.
NOMINAL_S = 1.0e-3
REPEATS = 3             # the fastest of these is taken, so a one-off hiccup does not count


class ReferenceJob:
    """Small pseudo-inverses and a Python loop, the mix a Monte Carlo trial is made of."""

    def __init__(self):
        import numpy

        rng = numpy.random.default_rng(0)
        self._pinv = numpy.linalg.pinv
        self._matrices = [rng.standard_normal((8, 16)) for _ in range(8)]

    def _run(self) -> float:
        total = 0.0
        for _ in range(3):
            for matrix in self._matrices:
                total += self._pinv(matrix)[0, 0]
            total += sum(i * 0.5 for i in range(200))
        return total

    def seconds(self) -> float:
        """The fastest of ``REPEATS`` timed runs of the job."""
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            self._run()
            times.append(time.perf_counter() - start)
        return min(times)
