"""Uncertainty exponent: exact power-law recovery, the analytic ball-cap
oracle for a linear classifier, and bootstrap confidence intervals."""

import numpy as np
import pytest
from scipy import special

from epbench import uncertainty
from epbench.uncertainty import DisagreementCurve, disagreement_curve, fit_exponent


def synthetic_curve(eps, rates):
    eps = np.asarray(eps, dtype=float)
    rates = np.asarray(rates, dtype=float)
    n = np.full(len(eps), 10 ** 9, dtype=np.int64)
    return DisagreementCurve(eps=eps, rate=rates,
                             flips=(rates * n).astype(np.int64), samples=n)


def cap_fraction(a, d):
    """Fraction of the unit d-ball beyond a hyperplane at distance a."""
    a = np.clip(a, 0.0, 1.0)
    return 0.5 * special.betainc((d + 1) / 2.0, 0.5, 1.0 - a ** 2)


class TestFitExponent:
    def test_exact_square_law(self):
        eps = np.geomspace(0.01, 0.3, 8)
        fit = fit_exponent(synthetic_curve(eps, eps ** 2))
        assert fit.alpha == pytest.approx(2.0, abs=1e-6)
        assert fit.residual < 1e-9

    def test_exact_linear_law_with_prefactor(self):
        eps = np.geomspace(0.02, 0.5, 6)
        fit = fit_exponent(synthetic_curve(eps, 0.3 * eps))
        assert fit.alpha == pytest.approx(1.0, abs=1e-6)
        assert np.exp(fit.intercept) == pytest.approx(0.3, rel=1e-9)

    def test_too_few_interior_cells(self):
        eps = np.array([0.1, 0.2, 0.3])
        with pytest.raises(ValueError, match="widen"):
            fit_exponent(synthetic_curve(eps, [0.0, 0.0, 0.5]))

    def test_boundary_cells_excluded_from_fit(self):
        eps = np.geomspace(0.01, 1.0, 10)
        rates = np.clip(eps ** 1.5, 0, 1)
        rates[0] = 0.0  # cell pinned to the boundary must be ignored
        fit = fit_exponent(synthetic_curve(eps, rates))
        assert fit.alpha == pytest.approx(1.5, abs=1e-6)


class TestDisagreementCurve:
    def _linear_eval(self, w, b):
        def model_eval(xs):
            flat = np.asarray(xs).reshape(len(xs), -1)
            return (flat @ w + b > 0).astype(int)
        return model_eval

    def test_tiny_eps_no_disagreement(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal(16)
        x0 = np.full((4, 1, 4, 4), 0.5)
        b = -float(x0[0].reshape(-1) @ w)
        xs = x0 + 0.05 * (w / np.linalg.norm(w)).reshape(1, 1, 4, 4)
        curve = disagreement_curve(self._linear_eval(w, b), xs, "l2",
                                   [1e-8], samples_per_eps=50, seed=1)
        assert curve.rate[0] == 0.0

    def test_constant_model_never_disagrees(self):
        xs = np.random.default_rng(2).uniform(0, 1, (5, 1, 4, 4))
        curve = disagreement_curve(lambda z: np.zeros(len(z), dtype=int), xs,
                                   "linf", [0.01, 0.1, 0.5], 40, seed=3)
        assert np.all(curve.rate == 0.0)

    def test_grid_validation(self):
        xs = np.zeros((1, 1, 4, 4))
        with pytest.raises(ValueError, match="increasing"):
            disagreement_curve(lambda z: np.zeros(len(z)), xs, "l2",
                               [0.2, 0.1], 5)

    def test_samples_per_eps_below_one_rejected(self):
        xs = np.zeros((1, 1, 4, 4))
        with pytest.raises(ValueError, match="samples_per_eps"):
            disagreement_curve(lambda z: np.zeros(len(z)), xs, "l2", [0.1], 0)

    def test_matches_analytic_ball_cap_within_ci(self):
        d = 16
        rng = np.random.default_rng(4)
        w = rng.standard_normal(d)
        w /= np.linalg.norm(w)
        x0 = np.full(d, 0.5)
        b = -float(x0 @ w)
        margins = np.linspace(0.01, 0.4, 40)
        xs = (x0[None, :] + margins[:, None] * w[None, :]).reshape(-1, 1, 4, 4)
        eval_fn = self._linear_eval(w, b)
        eps_grid = [0.05, 0.1, 0.2, 0.4]
        curve = disagreement_curve(eval_fn, xs, "l2", eps_grid,
                                   samples_per_eps=300, seed=5)
        rate = np.clip(curve.rate, 1e-12, 1 - 1e-12)
        binomial_se = np.sqrt(rate * (1 - rate) / curve.samples)
        for e_i, eps in enumerate(eps_grid):
            analytic = float(np.mean(cap_fraction(margins / eps, d)))
            sigma = max(binomial_se[e_i], 1e-6)
            assert abs(curve.rate[e_i] - analytic) < 4 * sigma + 1e-9

    def test_monotone_in_eps_within_noise(self):
        d = 16
        rng = np.random.default_rng(6)
        w = rng.standard_normal(d)
        w /= np.linalg.norm(w)
        x0 = np.full(d, 0.5)
        b = -float(x0 @ w)
        margins = np.linspace(0.02, 0.3, 30)
        xs = (x0[None, :] + margins[:, None] * w[None, :]).reshape(-1, 1, 4, 4)
        curve = disagreement_curve(self._linear_eval(w, b), xs, "l2",
                                   [0.05, 0.1, 0.2, 0.4], 200, seed=7)
        rate = np.clip(curve.rate, 1e-12, 1 - 1e-12)
        sig = np.sqrt(rate * (1 - rate) / curve.samples)  # binomial standard error
        for k in range(1, len(curve.eps)):
            assert curve.rate[k] >= curve.rate[k - 1] - 2 * (sig[k] + sig[k - 1])


class TestBootstrap:
    def test_ci_contains_analytic_exponent(self):
        # margins uniform in (0, M) make disagreement ~ eps for eps << M
        d = 16
        rng = np.random.default_rng(8)
        w = rng.standard_normal(d)
        w /= np.linalg.norm(w)
        x0 = np.full(d, 0.5)
        b = -float(x0 @ w)
        margins = (np.arange(160) + 0.5) / 160 * 0.8  # midpoint rule
        xs = (x0[None, :] + margins[:, None] * w[None, :]).reshape(-1, 1, 4, 4)
        eps_grid = [0.04, 0.08, 0.16, 0.32]
        curve = disagreement_curve(
            lambda z: (np.asarray(z).reshape(len(z), -1) @ w + b > 0).astype(int),
            xs, "l2", eps_grid, samples_per_eps=250, seed=9)
        # the analytic curve for these margins, through the same fit
        analytic_rates = [float(np.mean(cap_fraction(margins / e, d)))
                          for e in eps_grid]
        analytic_alpha = fit_exponent(synthetic_curve(eps_grid, analytic_rates)).alpha
        alphas = uncertainty.bootstrap_exponent(curve, n_boot=300, seed=10)
        lo, hi = np.percentile(alphas, [1.0, 99.0])
        assert lo <= analytic_alpha <= hi
        assert analytic_alpha == pytest.approx(1.0, abs=0.12)
