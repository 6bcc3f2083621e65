"""A fixed calibration kernel that follows the speed of a shared machine.

On a shared host the CPU slows down and speeds up with other tenants'
load, in bursts of seconds and by up to 1.5x over minutes, so the wall
time of the same pass drifts between runs by more than any bound a
regression check can use.  The worker therefore times this kernel between
items, at most every INTERVAL_S, and measures each item in units of the
median kernel time of the NEAREST samples taken around it.  The kernel
does the kind of work the program's hot paths do (15-node quadrature
panels on small numpy arrays in a Python loop, and a small symmetric
eigendecomposition), but calls no varqfi code, so a change to the program
moves the ratio and a change of machine speed moves both sides alike.
"""

import time

import numpy as np

INTERVAL_S = 0.025
NEAREST = 9
_NODES = np.linspace(-1.0, 1.0, 15)
_WEIGHTS = np.full(15, 2.0 / 15.0)
_MATRIX = np.add.outer(np.arange(16.0), np.arange(16.0)) / 16.0 + np.eye(16)


def kernel():
    total = 0.0
    for i in range(60):
        total += float(_WEIGHTS @ (1.0 / (1.0 + (_NODES + 1e-3 * i) ** 2)))
    return total + float(np.linalg.eigvalsh(_MATRIX)[0])


class Sampler:
    """Times the kernel whenever INTERVAL_S has passed since the last time."""

    def __init__(self):
        self.samples = []
        self._next = 0.0

    def maybe_sample(self):
        """Time the kernel if it is due; returns the index of the latest sample."""
        now = time.perf_counter()
        if now >= self._next:
            kernel()
            done = time.perf_counter()
            self.samples.append(done - now)
            self._next = done + INTERVAL_S
        return len(self.samples) - 1

    def around(self, index):
        """Median kernel time of the NEAREST samples centred on sample index."""
        lo = max(0, min(index - NEAREST // 2, len(self.samples) - NEAREST))
        return float(np.median(self.samples[lo : lo + NEAREST]))
