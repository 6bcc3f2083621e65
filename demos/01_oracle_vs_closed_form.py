"""Brute-force information versus the closed form, on a truncated basis.

A squeezed vacuum is built on a finite number basis, mixed with a thermal
bath on a beam splitter, and the quantum Fisher information of the result
is computed from scratch: spectral decomposition, symmetric logarithmic
derivative, no formulas from the bounds module involved.  The closed form

    F_Q = 4 u^2 / (1 + v^2 - u^2),   u = eta sinh 2r,
                                     v = eta cosh 2r + (1 - eta)(2 n_T + 1)

should agree to a few parts in 1e6; the residual is the 1e-8 population
tail chopped by the truncation rule, not numerical error in either route.
"""

from varqfi.bounds import exact_qfi_squeezed
from varqfi.qfi_oracle import squeezed_probe_qfi

print(f"{'r':>4} {'eta':>5} {'n_T':>4} {'oracle':>14} {'closed form':>14} {'rel diff':>10}")
for r in (0.2, 0.5, 0.8):
    for eta in (0.8, 1.0):
        for n_T in (0.0, 0.5):
            oracle = squeezed_probe_qfi(r, eta, n_T)
            closed = exact_qfi_squeezed(r, eta, n_T)
            rel = abs(oracle - closed) / closed
            print(f"{r:>4.1f} {eta:>5.2f} {n_T:>4.1f} {oracle:>14.8f} {closed:>14.8f} {rel:>10.1e}")

print()
print("The oracle sizes both registers so the beam splitter can move every")
print("populated photon sector between probe and bath without clipping;")
print("shrink either register below that and the pipeline refuses rather")
print("than degrade:")
for key, size in (("dim", 6), ("bath_dim", 2)):
    try:
        squeezed_probe_qfi(0.5, 0.8, **{key: size})
    except Exception as exc:
        print(f"  {key}={size} -> {type(exc).__name__}: {exc}")
