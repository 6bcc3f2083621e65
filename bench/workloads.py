"""The four seeded workloads of the varqfi benchmark.

A workload turns a seed into a table of items, runs one item through the
public API of the varqfi modules, and checks every output against a
reference the timed code path does not compute: closed forms written out
here, or the independent route the package keeps for that purpose.

Each workload imports the varqfi modules it drives inside its own methods,
so a worker process loads only the layers its workload uses, as one CLI
subcommand would.  Sampling is stratified: one draw per equal-width
stratum, with the strata of different variables paired in a fixed
scattered pattern.  The seed moves every draw within its stratum and
shuffles the item order, while the work in a table stays nearly the same.
"""

from __future__ import annotations

import math

import numpy as np

# the tolerance every waveform row is computed at (the fig3 CLI default)
WAVEFORM_REL_TOL = 1e-8
# acceptance limits, as in tests/test_acceptance.py
ORACLE_REL_LIMIT = 1e-3
SANDWICH_SLACK_LIMIT = -1e-9
QUADRATURE_ABS_LIMIT = 1e-7
RAW_MIN_REL_LIMIT = 1e-6


def _strata(rng, count, lo, hi, stride=1):
    """count draws in [lo, hi], one in each of count equal-width strata.

    Draw i lies in stratum (i * stride) mod count.  Variables drawn with
    different strides coprime to count are paired across strata in a
    fixed scattered pattern instead of a seed-dependent one.
    """
    if math.gcd(stride, count) != 1:
        raise ValueError(f"stride {stride} shares a factor with {count}")
    strata = (np.arange(count) * stride) % count
    return lo + (hi - lo) * (strata + rng.random(count)) / count


def _squeezed_moments(mean_n):
    from varqfi.fock_core import InputMoments

    return InputMoments(mean_n, 2.0 * mean_n * (mean_n + 1.0))


class Waveform:
    """Optimized waveform MSE bound rows: the paper's Fig. 3 task.

    Rows take R = 16 N^(1/3) and a log-uniform flux in [1e2, 1e8].  A
    quarter of the rows are lossless (one mse_bound call each); the rest
    draw eta from [0.9, 0.99] and cost 66 mse_bound calls, so item_cal.p50
    sits well inside the lossy population.  lorentzian=False swaps the
    Lorentzian prior for power laws with lambda_c = 0 and p in [2, 4].
    """

    ROWS = 100
    LOSSLESS = 25

    def __init__(self, lorentzian):
        self.lorentzian = lorentzian

    def make(self, rng):
        from varqfi.waveform import PriorSpectrum

        lossy = self.ROWS - self.LOSSLESS
        etas = np.concatenate(
            [np.ones(self.LOSSLESS), _strata(rng, lossy, 0.9, 0.99, stride=7)]
        )
        fluxes = 10.0 ** np.concatenate(
            [_strata(rng, self.LOSSLESS, 2.0, 8.0), _strata(rng, lossy, 2.0, 8.0)]
        )
        if self.lorentzian:
            priors = [PriorSpectrum(1.0, 2.0, 1.0)] * self.ROWS
        else:
            ps = _strata(rng, self.ROWS, 2.0, 4.0, stride=13)
            priors = [PriorSpectrum(1.0, float(p)) for p in ps]
        order = rng.permutation(self.ROWS)
        return [(priors[i], float(etas[i]), float(fluxes[i])) for i in order]

    def warm_up(self):
        from varqfi.waveform import PriorSpectrum

        # flux and eta outside every table
        self.run((PriorSpectrum(1.0, 2.0, 1.0), 0.5, 10.0))

    def run(self, item):
        from varqfi import waveform

        prior, eta, flux = item
        model = waveform.OpoSpectrumModel(16.0 * flux ** (1.0 / 3.0), flux)
        out = waveform.mse_bound_optimized(prior, model, eta, rel_tol=WAVEFORM_REL_TOL)
        return (out.beta_star, out.bound)

    def properties(self, items):
        return {"waveform.lossless_share": sum(eta == 1.0 for _, eta, _ in items) / len(items)}

    @staticmethod
    def _flat_closed_form(prior, cost):
        """(1/pi) int_0^inf dw / (info_deficit(w) + cost) for kappa = 1 priors."""
        if prior.lambda_c > 0.0:
            return prior.kappa / (2.0 * math.sqrt(prior.lambda_c**2 + prior.kappa * cost))
        p = prior.p
        return cost ** (1.0 / p - 1.0) / (p * math.sin(math.pi / p))

    @staticmethod
    def _cost_range(eta, beta, flux):
        """Spectral cost at omega = infinity and omega = 0 of the OPO probe.

        The photon-number spectrum falls monotonically from its omega = 0
        value to the shot-noise floor 4N, so these two values bracket the
        cost at every frequency.
        """
        root = math.sqrt(16.0 * flux ** (1.0 / 3.0))
        x = (root - 1.0) / (root + 1.0)
        gamma = 16.0 * flux * root / (2.0 * (root - 1.0) ** 2)
        r_plus = root * root
        peak = gamma / 16.0 * (
            (r_plus - 1.0) ** 2 * (1.0 - x) + (1.0 / r_plus - 1.0) ** 2 * (1.0 + x)
        )
        weight = (eta + beta * (1.0 - eta)) ** 2
        flat = 4.0 * flux * (1.0 - beta) ** 2 * eta * (1.0 - eta)
        return 4.0 * flux * weight + flat, (4.0 * flux + peak) * weight + flat

    def check(self, items, outputs):
        """Flat-weight closed form, maximization certificate, cost sandwich."""
        from varqfi.waveform import OpoSpectrumModel, SpectralCqParams, mse_bound

        failures = []
        worst = 0.0
        slack = 1.0 + WAVEFORM_REL_TOL
        for k, ((prior, eta, flux), out) in enumerate(zip(items, outputs)):
            if out is None:
                continue
            beta_star, bound = out
            lo_cost, hi_cost = self._cost_range(eta, beta_star, flux)
            upper = self._flat_closed_form(prior, lo_cost)
            lower = self._flat_closed_form(prior, hi_cost)
            if not (lower <= bound * slack and bound <= upper * slack):
                failures.append(f"row {k}: bound {bound!r} outside [{lower!r}, {upper!r}]")
            if eta == 1.0:
                continue
            model = OpoSpectrumModel(16.0 * flux ** (1.0 / 3.0), flux)
            flat_beta = eta / (eta - 1.0)
            at_flat = mse_bound(prior, model, SpectralCqParams(eta, flat_beta),
                                rel_tol=WAVEFORM_REL_TOL)
            at_one = mse_bound(prior, model, SpectralCqParams(eta, 1.0),
                               rel_tol=WAVEFORM_REL_TOL)
            want = self._flat_closed_form(prior, 4.0 * flux * eta / (1.0 - eta))
            err = abs(at_flat - want) / want
            worst = max(worst, err)
            if err > WAVEFORM_REL_TOL:
                failures.append(f"row {k}: flat-weight bound off the closed form by {err:.2e}")
            if bound * slack < max(at_flat, at_one):
                failures.append(f"row {k}: bound(beta*) below bound(1) or bound(flat)")
        return failures, worst


class Oracle:
    """Truncated-Fock QFI of a squeezed probe after loss and diffusion.

    100 items come from two fig2-style sweeps at n_T = 0 (shared eta,
    fixed dim and bath_dim, so every point after the first reuses the
    beam-splitter blocks); 50 are scattered points with their own eta,
    n_T in {0, 0.5} and automatic sizing, so their blocks are built cold.
    Cheap warm items are 65% of the mix and cold ones 35%, which keeps
    item_cal.p90 inside the cold population.  The sweeps differ in cost
    (the second has the larger dim and adds diffusion), and item_cal.p50
    falls inside the second sweep's points, away from the step in cost
    between two groups of warm items.  r stays within the 4096 product
    cap: r <= 1.0 at n_T = 0 and r <= 0.8 at n_T = 0.5.
    """

    SWEEPS = 2
    SWEEP_POINTS = 50
    SCATTERED = 50
    R_MAX = {0.0: 1.0, 0.5: 0.8}

    def make(self, rng):
        from varqfi.fock_core import squeezed_dim

        blocks = []
        # fixed sweep ranges, so the warm population's dimensions and hence
        # item_cal.p50 do not move with the seed
        r_tops = np.linspace(0.8, self.R_MAX[0.0], self.SWEEPS)
        sweep_etas = _strata(rng, self.SWEEPS, 0.8, 0.99, stride=3)
        for k in range(self.SWEEPS):
            dim = squeezed_dim(r_tops[k]) + 1
            rs = np.sort(_strata(rng, self.SWEEP_POINTS, 0.1, r_tops[k]))
            eta, lam = float(sweep_etas[k]), 0.1 * (k % 2)
            blocks.append([(float(r), eta, 0.0, lam, dim) for r in rs])
        half = self.SCATTERED // 2
        for n_T in (0.0, 0.5):
            rs = _strata(rng, half, 0.05, self.R_MAX[n_T])
            etas = _strata(rng, half, 0.8, 0.99, stride=7)
            for j in range(half):
                blocks.append([(float(rs[j]), float(etas[j]), n_T, 0.1 * (j % 2), None)])
        return [item for i in rng.permutation(len(blocks)) for item in blocks[i]]

    def warm_up(self):
        # eta below every table, so its blocks are never reused
        self.run((0.3, 0.5, 0.0, 0.05, None))

    def run(self, item):
        from varqfi import qfi_oracle

        r, eta, n_T, lam, dim = item
        return qfi_oracle.squeezed_probe_qfi(r, eta, n_T, lam, dim=dim, bath_dim=dim)

    def properties(self, items):
        return {"channels.thermal_share": sum(it[2] > 0.0 for it in items) / len(items)}

    def check(self, items, outputs):
        """exact_qfi_squeezed at lam = 0; the im/cq sandwich at n_T = 0;
        the reciprocal variance floor otherwise."""
        from varqfi.bounds import (
            cq_min_loss_diffusion,
            exact_qfi_squeezed,
            im_opt_squeezed,
            phase_variance_bound_full,
        )

        failures = []
        worst = 0.0
        for k, ((r, eta, n_T, lam, _), qfi) in enumerate(zip(items, outputs)):
            if qfi is None:
                continue
            m = _squeezed_moments(math.sinh(r) ** 2)
            if lam == 0.0:
                want = exact_qfi_squeezed(r, eta, n_T)
                err = abs(qfi - want) / want
                worst = max(worst, err)
                ok = err <= ORACLE_REL_LIMIT
            elif n_T == 0.0:
                lower = im_opt_squeezed(r, eta, lam)
                upper = cq_min_loss_diffusion(m, eta, lam)
                ok = min(qfi - lower, upper - qfi) >= SANDWICH_SLACK_LIMIT
            else:
                upper = 1.0 / phase_variance_bound_full(m, eta, n_T, lam)
                ok = upper - qfi >= SANDWICH_SLACK_LIMIT
            if not ok:
                failures.append(f"item {k} (r={r}, eta={eta}, n_T={n_T}, lam={lam}): {qfi!r}")
        return failures, worst


class Crosscheck:
    """The two independent verification routes.

    A third of the items average random states over Gaussian phase kicks
    by quadrature (dim in [8, 42], lam in [0.05, 0.3]).  Two thirds
    minimize the raw variational costs of squeezed probes (mean photon
    number in [0.1, 10], eta in [0.6, 0.99]) for thermal loss (n_T in
    [0.05, 2]) and for loss plus diffusion (lam in [0.05, 0.3]).  The
    quadrature items are the slow population, so item_cal.p90 tracks them
    and item_cal.p50 the minimizations.
    """

    QUADRATURE = 35
    RAW = 70

    def make(self, rng):
        from varqfi.fock_core import DensityMatrix

        items = []
        dims = np.rint(_strata(rng, self.QUADRATURE, 7.5, 42.5)).astype(int)
        lams = _strata(rng, self.QUADRATURE, 0.05, 0.3, stride=13)
        for dim, lam in zip(dims, lams):
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = a @ a.conj().T
            items.append(("quadrature", DensityMatrix(int(dim), h / np.trace(h)), float(lam)))
        half = self.RAW // 2
        for kind, noise_hi in (("thermal", 2.0), ("diffusion", 0.3)):
            means = 10.0 ** _strata(rng, half, -1.0, 1.0)
            etas = _strata(rng, half, 0.6, 0.99, stride=3)
            noise = _strata(rng, half, 0.05, noise_hi, stride=4)
            items += [(kind, float(m), float(e), float(n))
                      for m, e, n in zip(means, etas, noise)]
        return [items[i] for i in rng.permutation(len(items))]

    def warm_up(self):
        from varqfi.fock_core import DensityMatrix

        # lam, eta and n_T outside every table
        self.run(("quadrature", DensityMatrix(4, np.eye(4) / 4.0), 0.5))
        self.run(("thermal", 1.0, 0.4, 3.0))

    def run(self, item):
        from varqfi import bounds, channels, qfi_oracle

        kind = item[0]
        if kind == "quadrature":
            return channels.phase_diffusion_by_quadrature(item[1], item[2]).elems
        m = _squeezed_moments(item[1])
        eta, noise = item[2], item[3]
        if kind == "thermal":
            value, arg = qfi_oracle.minimize_raw_cq(
                lambda a, b, g: bounds.raw_cq_loss_thermal(m, eta, noise, a, b, g),
                (0.9, 0.1, 0.1),
            )
        else:
            value, arg = qfi_oracle.minimize_raw_cq(
                lambda a, b: bounds.raw_cq_loss_diffusion(m, eta, noise, a, b),
                (0.9, 0.1),
            )
        return np.concatenate([[value], arg])

    def properties(self, items):
        thermal = sum(it[0] == "thermal" and it[3] > 0.0 for it in items)
        return {"channels.thermal_share": thermal / len(items)}

    def check(self, items, outputs):
        """Quadrature against entrywise diffusion, minima against closed forms."""
        from varqfi.bounds import cq_min_loss_diffusion, cq_min_loss_thermal
        from varqfi.channels import phase_diffusion

        failures = []
        worst = 0.0
        for k, (item, out) in enumerate(zip(items, outputs)):
            if out is None:
                continue
            kind = item[0]
            if kind == "quadrature":
                want = phase_diffusion(item[1], item[2]).elems
                dev = float(np.max(np.abs(out - want)))
                worst = max(worst, dev / float(np.max(np.abs(want))))
                if dev > QUADRATURE_ABS_LIMIT:
                    failures.append(f"item {k}: quadrature off entrywise by {dev:.2e}")
                continue
            m = _squeezed_moments(item[1])
            if kind == "thermal":
                want = cq_min_loss_thermal(m, item[2], item[3])
            else:
                want = cq_min_loss_diffusion(m, item[2], item[3])
            err = abs(float(out[0]) - want) / want
            worst = max(worst, err)
            if err > RAW_MIN_REL_LIMIT:
                failures.append(f"item {k} ({kind}): minimum off the closed form by {err:.2e}")
        return failures, worst


WORKLOADS = {
    "fig3-lorentzian": Waveform(lorentzian=True),
    "waveform-powerlaw": Waveform(lorentzian=False),
    "oracle": Oracle(),
    "crosscheck": Crosscheck(),
}


def run_probes():
    """Known defects, kept visible outside the timed mixes.

    Returns (name, outcome, detail) per probe; outcome is "fails" while the
    defect is present as described, "changed" if it fails another way, and
    "passes" once fixed (then the input belongs in the workload mix).
    """
    from varqfi.numerics import AccuracyError
    from varqfi.qfi_oracle import squeezed_probe_qfi
    from varqfi.waveform import OpoSpectrumModel, PriorSpectrum, mse_bound_optimized

    def powerlaw_row():
        model = OpoSpectrumModel(16.0 * 1e4 ** (1.0 / 3.0), 1e4)
        mse_bound_optimized(PriorSpectrum(1.0, 1.5), model, 0.95, rel_tol=WAVEFORM_REL_TOL)

    def oracle_point():
        squeezed_probe_qfi(1.2, 0.9, 0.0, 0.0)

    probes = (
        ("powerlaw-p1.5", powerlaw_row,
         lambda e: type(e) is AccuracyError and "roundoff floor" in str(e)),
        ("oracle-r1.2", oracle_point,
         lambda e: type(e) is ValueError and "exceeds the cap" in str(e)),
    )
    results = []
    for name, call, is_known in probes:
        try:
            call()
        except Exception as exc:  # a probe reports any failure, it never stops the run
            detail = f"{type(exc).__name__}: {exc}"
            results.append((name, "fails" if is_known(exc) else "changed", detail))
        else:
            results.append((name, "passes", "defect fixed; add this input to the mix"))
    return results


def self_test():
    """Counts on the paper's default fig3 grid (eta in {1, 0.95}, 25 fluxes)."""
    from varqfi.waveform import fig3_curve

    grid = np.logspace(2.0, 8.0, 25)
    for eta in (1.0, 0.95):
        fig3_curve(eta, grid, rel_tol=WAVEFORM_REL_TOL)


# input properties an optimization might target, as shares of the items
PROPERTIES = ("waveform.lossless_share", "channels.thermal_share")

SELF_TEST_COUNTS = {
    "numerics.integrate.calls": 10_050,
    "numerics.panels": 74_658,
    "waveform.mse_bound.calls": 1_675,
}
