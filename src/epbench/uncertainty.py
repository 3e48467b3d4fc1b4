"""Monte-Carlo estimate of the uncertainty exponent.

Samples perturbations uniformly from the epsilon-ball around each input,
measures how often the prediction changes, and fits log(disagreement) against
log(epsilon). The fitted slope is the exponent relating perturbation radius
to prediction instability; larger means a flatter disagreement onset and
hence more stability at small radii.

Each radius draws its samples from its own generator, one sample (a draw
around every input) after another, and scores them in as few model calls as
the row cap allows; the draws, and so the curve, do not depend on that cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attacks import NORMS, uniform_ball
from .bench import EVAL_BATCH


@dataclass
class DisagreementCurve:
    eps: np.ndarray        # strictly increasing radii
    rate: np.ndarray       # disagreement fraction per radius
    samples: np.ndarray    # draws per radius


@dataclass
class ExponentFit:
    alpha: float
    intercept: float
    residual: float              # rms of log-log fit residuals
    n_cells: int


def disagreement_curve(model_eval, xs, norm: str, eps_grid, samples_per_eps: int,
                       seed: int = 0) -> DisagreementCurve:
    """Fraction of ball samples whose prediction differs from the center's.

    model_eval(images) -> labels. Deterministic for a fixed seed. A sample is
    one draw around every input; whole samples share a call of at most
    max(len(xs), EVAL_BATCH) rows, so model_eval must be batch-invariant for
    the rates to match one call per sample.
    """
    if norm not in NORMS:
        raise ValueError(f"unknown norm {norm!r}")
    eps_grid = np.asarray(eps_grid, dtype=np.float64)
    if eps_grid.ndim != 1 or len(eps_grid) == 0:
        raise ValueError("eps_grid must be a non-empty 1-d sequence")
    if not (np.all((0 < eps_grid) & (eps_grid < np.inf)) and np.all(np.diff(eps_grid) > 0)):
        raise ValueError("eps_grid must be strictly increasing, positive and finite")
    if samples_per_eps < 1:
        raise ValueError(f"samples_per_eps must be >= 1, got {samples_per_eps}")
    xs = np.asarray(xs, dtype=np.float64)
    base = np.asarray(model_eval(xs))
    flips = np.zeros(len(eps_grid), dtype=np.int64)
    total = np.full(len(eps_grid), samples_per_eps * len(xs), dtype=np.int64)
    per_call = max(EVAL_BATCH // max(len(xs), 1), 1)  # whole samples per call
    for e_i, eps in enumerate(eps_grid):
        rng = np.random.default_rng((seed, e_i))
        for s0 in range(0, samples_per_eps, per_call):
            k = min(per_call, samples_per_eps - s0)
            draws = [xs + uniform_ball(rng, xs.shape, norm, float(eps)) for _ in range(k)]
            pred = np.asarray(model_eval(np.concatenate(draws)))
            flips[e_i] += int(np.sum(pred != np.tile(base, k)))
    return DisagreementCurve(eps=eps_grid, rate=flips / np.maximum(total, 1),
                             samples=total)


def fit_exponent(curve: DisagreementCurve) -> ExponentFit:
    """Least-squares slope of log(rate) vs log(eps) over interior cells."""
    keep = (curve.rate > 0.0) & (curve.rate < 1.0)
    if int(keep.sum()) < 3:
        raise ValueError(
            "need at least 3 disagreement rates strictly inside (0,1) to fit; "
            "widen the eps grid"
        )
    lx = np.log(curve.eps[keep])
    ly = np.log(curve.rate[keep])
    A = np.stack([lx, np.ones_like(lx)], axis=1)
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    resid = ly - A @ coef
    return ExponentFit(
        alpha=float(coef[0]),
        intercept=float(coef[1]),
        residual=float(np.sqrt(np.mean(resid ** 2))),
        n_cells=int(keep.sum()),
    )


def bootstrap_exponent(curve: DisagreementCurve, n_boot: int = 200,
                       seed: int = 0) -> np.ndarray:
    """Bootstrap alphas by resampling each cell's flip count binomially."""
    rng = np.random.default_rng(seed)
    alphas = []
    for _ in range(n_boot):
        flips = rng.binomial(curve.samples, np.clip(curve.rate, 0, 1))
        boot = DisagreementCurve(eps=curve.eps, rate=flips / np.maximum(curve.samples, 1),
                                 samples=curve.samples)
        try:
            alphas.append(fit_exponent(boot).alpha)
        except ValueError:
            continue
    if not alphas:
        raise ValueError("no bootstrap replicate had enough interior cells")
    return np.asarray(alphas)
