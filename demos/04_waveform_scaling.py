"""Tracking a drifting phase: where the scaling advantage survives loss.

A squeezed beam from an optical parametric oscillator monitors a phase
that diffuses with a Lorentzian power spectrum (kappa = lambda_c = 1).
The spectral variational bound on the steady-state mean-square error is
maximized over its one free parameter beta at each photon flux, with the
anti-squeezing level growing as R+ = 16 N^(1/3).

Lossless, the error falls as N^(-2/3); with 5% loss it bends over to the
classical N^(-1/2), and the maximizing beta drifts toward eta/(eta-1),
the value that converts the beam's number fluctuations into a flat,
white-noise-equivalent cost.
"""

import numpy as np

from varqfi.numerics import loglog_slope
from varqfi.waveform import fig3_curve, scaling_construction_D

grid = list(np.logspace(2, 7, 11))

print(f"{'flux N':>10} {'lossless':>12} {'eta=0.95':>12} {'beta*':>9}")
lossless = fig3_curve(1.0, grid)
lossy = fig3_curve(0.95, grid)
for flux, ll, lo in zip(grid, lossless, lossy):
    print(f"{flux:>10.3g} {ll.bound:>12.4e} {lo.bound:>12.4e} {lo.beta_star:>9.3f}")

top = (grid[0] * 1e3, grid[-1])  # fit the top decades, away from the knee
s_lossless = loglog_slope(grid, [r.bound for r in lossless], top)
s_lossy = loglog_slope(grid, [r.bound for r in lossy], top)
print()
print(f"fitted slopes: lossless {s_lossless:.3f} (ideal -2/3), "
      f"eta=0.95 {s_lossy:.3f} (ideal -1/2)")
print(f"flat-channel beta target: eta/(eta-1) = {0.95 / (0.95 - 1.0):.1f}")

print()
print("The same two exponents fall out of the block-measurement algebra")
print("D = 4 kappa eta N (17N + 4 mu) / (N(17 - eta) + 4 mu (1 - eta)) with the")
print("matching mu rules, with no quadrature in sight:")
flux = np.logspace(18, 28, 41)
d_lossless = np.array([scaling_construction_D(n, n ** (4.0 / 3.0), 1.0, 1.0, 2.0).D
                       for n in flux])
d_lossy = np.array([scaling_construction_D(n, n ** 1.5, 0.95, 1.0, 2.0).D
                    for n in flux])
window = (1e20, 1e26)
print(f"  mu = N^(4/3), eta = 1   : slope of D^(-1/2) = "
      f"{loglog_slope(flux, d_lossless ** -0.5, window):+.8f}")
print(f"  mu = N^(3/2), eta = 0.95: slope of D^(-1/2) = "
      f"{loglog_slope(flux, d_lossy ** -0.5, window):+.8f}")
