"""White-box and black-box attacks plus the composite suite runner.

PGD and C&W take a ModelHandle (see epbench.handle) and consume its exact
input gradients; the Square attack and its random-noise baseline are strictly
query-based, touching nothing but a logits callable, and send the rows still
unbroken to it as one batch per iteration. All attacks operate on raw pixels
in [0,1]; every emitted example satisfies the norm-ball and box constraints.
An attack is set by one strength, AttackConfig.epsilon (C&W's constant c),
and one step count.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import ops

_F = np.float64

FAMILIES = ("pgd", "cw", "square")
NORMS = ("l2", "linf")

# Square-attack patch-fraction schedule: (threshold on the iteration count
# rescaled to a 10000-step budget, divisor of p_init).
SQUARE_P_SCHEDULE = (
    (10, 1), (50, 2), (200, 4), (500, 8), (1000, 16),
    (2000, 32), (4000, 64), (6000, 128), (8000, 256), (10**9, 512),
)


@dataclass
class AttackConfig:
    """epsilon: ball radius (PGD, Square) or constant c (C&W). steps: PGD or
    C&W iterations; None means 20 for PGD and 100 for C&W. Square spends
    query_budget queries instead."""

    family: str = "pgd"
    norm: str = "linf"
    epsilon: float = 0.0
    steps: int | None = None
    cw_lr: float = 0.01
    query_budget: int = 5000
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown attack family {self.family!r}")
        if self.norm not in NORMS:
            raise ValueError(f"unknown norm {self.norm!r}")
        if not 0 <= self.epsilon < math.inf:
            raise ValueError(f"epsilon must be >= 0 and finite, got {self.epsilon}")
        if self.steps is None:
            self.steps = 100 if self.family == "cw" else 20
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.family == "square" and self.norm != "linf":
            raise ValueError("square attack is defined for the linf norm")
        if not 0 < self.cw_lr < math.inf:
            raise ValueError(f"cw_lr must be > 0 and finite, got {self.cw_lr}")
        if self.query_budget < 1:
            raise ValueError("query_budget must be >= 1")


@dataclass
class AttackResult:
    adversarial: np.ndarray
    success: np.ndarray      # misclassified after the attack
    queries: np.ndarray
    norms: np.ndarray        # achieved perturbation size under the attack norm

    def robust_accuracy(self) -> float:
        """Fraction still classified as the true label after the attack
        (success flags already encode prediction != label)."""
        return float(np.mean(~self.success))


def _batch_norms(delta: np.ndarray, norm: str) -> np.ndarray:
    flat = delta.reshape(delta.shape[0], -1)
    if norm == "linf":
        return np.abs(flat).max(axis=1) if flat.size else np.zeros(flat.shape[0])
    return np.sqrt((flat ** 2).sum(axis=1))


def project(x0: np.ndarray, x: np.ndarray, norm: str, epsilon: float) -> np.ndarray:
    """Nearest point to each x[n] in the epsilon-ball around x0[n], then
    box-clipped; both are [B, C, H, W].

    Box clipping after ball projection cannot re-violate either ball, since
    x0 itself lies in [0,1].
    """
    x0 = np.asarray(x0, dtype=_F)
    x = ops._as_batch(np.asarray(x, dtype=_F), "project")
    if x0.shape != x.shape:
        raise ValueError(f"project: shapes differ ({x0.shape} vs {x.shape})")
    delta = x - x0
    if norm == "linf":
        delta = np.clip(delta, -epsilon, epsilon)
    else:
        norms = _batch_norms(delta, "l2")
        scale = np.ones_like(norms)
        over = norms > epsilon
        scale[over] = epsilon / norms[over]
        delta = delta * scale[:, None, None, None]
    return np.clip(x0 + delta, 0.0, 1.0)


def steepest_ascent(g: np.ndarray, norm: str) -> np.ndarray:
    """Per example of g [B, C, H, W], argmax_{||v||<=1} v.g: sign(g) for
    linf, g/||g|| for l2 (0 if g=0)."""
    g = ops._as_batch(np.asarray(g, dtype=_F), "steepest_ascent gradient")
    if norm == "linf":
        return np.sign(g)
    norms = _batch_norms(g, "l2")
    out = np.zeros_like(g)
    nz = norms > 0
    out[nz] = g[nz] / norms[nz][:, None, None, None]
    return out


def uniform_ball(rng: np.random.Generator, shape, norm: str, epsilon: float) -> np.ndarray:
    """Uniform draw from the epsilon-ball; shape includes the batch axis."""
    if norm == "linf":
        return rng.uniform(-epsilon, epsilon, size=shape)
    d = int(np.prod(shape[1:]))
    direction = rng.standard_normal(shape).reshape(shape[0], -1)
    direction /= np.maximum(np.linalg.norm(direction, axis=1, keepdims=True), 1e-30)
    radius = epsilon * rng.uniform(0.0, 1.0, size=(shape[0], 1)) ** (1.0 / d)
    return (direction * radius).reshape(shape)


def _pgd(loss_grad, xs, ys, norm, epsilon, steps, alpha, rng):
    """PGD ascent on loss_grad(x, ys) -> (losses, grads): a uniform start in the
    epsilon-ball (none at epsilon 0), then `steps` projected moves of alpha along
    steepest_ascent. Returns the last iterate."""
    x = xs.copy()
    if epsilon > 0:
        x = project(xs, xs + uniform_ball(rng, xs.shape, norm, epsilon), norm, epsilon)
    for _ in range(steps):
        _, grads = loss_grad(x, ys)
        x = project(xs, x + alpha * steepest_ascent(grads, norm), norm, epsilon)
    return x


def pgd_attack(xs, ys, model, cfg: AttackConfig) -> AttackResult:
    """PGD on the handle's cross-entropy gradients: uniform start, step epsilon / 8."""
    if cfg.family != "pgd":
        raise ValueError("cfg.family must be 'pgd'")
    xs = np.asarray(xs, dtype=_F)
    ys = np.asarray(ys)
    x = _pgd(model.loss_grad, xs, ys, cfg.norm, cfg.epsilon, cfg.steps,
             cfg.epsilon / 8.0, np.random.default_rng(cfg.seed))
    return AttackResult(
        adversarial=x,
        success=model.predict(x) != ys,
        queries=np.full(len(xs), cfg.steps + 1),
        norms=_batch_norms(x - xs, cfg.norm),
    )


def _margin(logits: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """z_y - max_{j != y} z_j; negative means misclassified."""
    z = np.asarray(logits, dtype=_F)
    true = np.take_along_axis(z, ys[:, None], axis=1)[:, 0]
    masked = z.copy()
    masked[np.arange(len(ys)), ys] = -np.inf
    return true - masked.max(axis=1)


def cw_attack(xs, ys, model, cfg: AttackConfig) -> AttackResult:
    """l2 norm-minimizing attack with margin hinge under a tanh box change
    of variables; cfg.steps of plain gradient descent with the single fixed
    constant c = cfg.epsilon.

    Returns the smallest-norm successful iterate per example (final iterate
    when none succeeded). No epsilon ball applies; the box always does.
    """
    if cfg.family != "cw":
        raise ValueError("cfg.family must be 'cw'")
    xs = np.asarray(xs, dtype=_F)
    ys = np.asarray(ys)
    eps = 1e-6
    w = np.arctanh((2.0 * np.clip(xs, eps, 1.0 - eps) - 1.0) * (1.0 - eps))
    best = xs.copy()
    best_norm = np.full(len(xs), np.inf)
    succeeded = np.zeros(len(xs), dtype=bool)
    x_adv = xs.copy()
    for _ in range(cfg.steps):
        x_adv = 0.5 * (np.tanh(w) + 1.0)
        logits, vjp = model.logits_vjp(x_adv)
        margin = _margin(logits, ys)
        delta = x_adv - xs
        l2sq = (delta.reshape(len(xs), -1) ** 2).sum(axis=1)
        # track the best (smallest) successful perturbation
        newly = (margin < 0) & (np.sqrt(l2sq) < best_norm)
        best[newly] = x_adv[newly]
        best_norm[newly] = np.sqrt(l2sq[newly])
        succeeded |= margin < 0
        g_logits = np.zeros_like(logits)
        active = margin > 0
        if active.any():
            masked = logits.copy()
            masked[np.arange(len(ys)), ys] = -np.inf
            runner = masked.argmax(axis=1)
            rows = np.where(active)[0]
            g_logits[rows, ys[rows]] = cfg.epsilon
            g_logits[rows, runner[rows]] = -cfg.epsilon
        g_x = 2.0 * delta + vjp(g_logits)
        g_w = g_x * 2.0 * x_adv * (1.0 - x_adv)  # d x'/d w for x' = (tanh w + 1)/2
        w = w - cfg.cw_lr * g_w
    out = np.where(succeeded[:, None, None, None], best, x_adv)
    return AttackResult(
        adversarial=out,
        success=succeeded.copy(),
        queries=np.full(len(xs), cfg.steps),
        norms=_batch_norms(out - xs, "l2"),
    )


def _square_patch_side(it_scaled: int, p_init: float, n_features: int, channels: int,
                       max_side: int) -> int:
    divisor = next(div for thresh, div in SQUARE_P_SCHEDULE if it_scaled <= thresh)
    p = p_init / divisor
    side = int(round(math.sqrt(p * n_features / channels)))
    return min(max(side, 1), max_side)


def square_attack(xs, ys, query_model, cfg: AttackConfig) -> AttackResult:
    """linf Square attack: random vertical-stripe start, then square patch
    proposals accepted only on strict margin-loss decrease.

    query_model(xs) -> logits is the only access to the model. Each iteration
    sends the proposals of every still-unbroken example as one batch; example
    i draws from its own stream default_rng([seed, i]), and the per-example
    counters count the images each example submitted.
    """
    if cfg.family != "square":
        raise ValueError("cfg.family must be 'square'")
    xs = np.asarray(xs, dtype=_F)
    ys = np.asarray(ys)
    n, C, H, W = xs.shape
    eps = cfg.epsilon
    p_init = 0.8
    rngs = [np.random.default_rng([cfg.seed, i]) for i in range(n)]
    x_best = xs.copy()
    if eps > 0:
        for i, rng in enumerate(rngs):
            stripes = eps * rng.choice([-1.0, 1.0], size=(C, 1, W))
            x_best[i] = np.clip(xs[i] + stripes, 0.0, 1.0)
    margin = _margin(query_model(x_best), ys) if n else np.zeros(0)
    queries = np.ones(n, dtype=int)
    active = np.flatnonzero(margin >= 0) if eps > 0 else np.zeros(0, dtype=int)
    # every active example has spent it + 1 queries, so one schedule serves all
    it = 0
    while len(active) and it + 1 < cfg.query_budget:
        it_scaled = int(it / cfg.query_budget * 10000)
        side = _square_patch_side(it_scaled, p_init, C * H * W, C, min(H, W))
        proposals = np.empty((len(active), C, H, W))
        for k, i in enumerate(active):
            rng = rngs[i]
            r = int(rng.integers(0, H - side + 1))
            c = int(rng.integers(0, W - side + 1))
            delta = x_best[i] - xs[i]
            # resample patch signs until the proposal actually moves the image
            for _ in range(20):
                new_delta = delta.copy()
                new_delta[:, r:r + side, c:c + side] += (
                    2.0 * eps * rng.choice([-1.0, 1.0], size=(C, 1, 1)))
                proposals[k] = np.clip(xs[i] + np.clip(new_delta, -eps, eps), 0.0, 1.0)
                if np.any(np.abs(proposals[k] - x_best[i]) > 1e-12):
                    break
        m_new = _margin(query_model(proposals), ys[active])
        queries[active] += 1
        it += 1
        better = m_new < margin[active]  # strict decrease only
        margin[active[better]] = m_new[better]
        x_best[active[better]] = proposals[better]
        active = active[margin[active] >= 0]
    return AttackResult(
        adversarial=x_best,
        success=margin < 0,
        queries=queries,
        norms=_batch_norms(x_best - xs, "linf"),
    )


def random_noise_baseline(xs, ys, query_model, cfg: AttackConfig) -> AttackResult:
    """Sanity baseline: uniform +/-epsilon corner draws under the same budget,
    one batched query per draw over the examples not yet broken; example i
    draws from default_rng([seed, i, 1])."""
    xs = np.asarray(xs, dtype=_F)
    ys = np.asarray(ys)
    n = len(xs)
    rngs = [np.random.default_rng([cfg.seed, i, 1]) for i in range(n)]
    adv = xs.copy()
    best = np.full(n, np.inf)
    queries = np.zeros(n, dtype=int)
    active = np.arange(n)
    for _ in range(cfg.query_budget):
        if not len(active):
            break
        noise = cfg.epsilon * np.stack([rngs[i].choice([-1.0, 1.0], size=xs.shape[1:])
                                        for i in active])
        x_try = np.clip(xs[active] + noise, 0.0, 1.0)
        m = _margin(query_model(x_try), ys[active])
        queries[active] += 1
        better = m < best[active]
        best[active[better]] = m[better]
        adv[active[better]] = x_try[better]
        active = active[~(m < 0)]
    return AttackResult(adversarial=adv, success=best < 0, queries=queries,
                        norms=_batch_norms(adv - xs, "linf"))


@dataclass
class SuiteResult:
    results: list[AttackResult]  # one per config, in the configs' order
    worst_case_accuracy: float
    wall_ms: list[float]  # per config: time spent in that attack


def attack_suite(xs, ys, model, configs: list[AttackConfig]) -> SuiteResult:
    """Run each configured attack against the handle; an example counts as
    robust only if it keeps its label under all of them (worst-case
    aggregation). Square sees nothing but model.logits.
    """
    xs = np.asarray(xs, dtype=_F)
    ys = np.asarray(ys)
    results: list[AttackResult] = []
    wall_ms: list[float] = []
    robust = np.ones(len(xs), dtype=bool)
    for cfg in configs:
        t0 = time.perf_counter()
        if cfg.family == "pgd":
            res = pgd_attack(xs, ys, model, cfg)
        elif cfg.family == "cw":
            res = cw_attack(xs, ys, model, cfg)
        else:  # square; AttackConfig admits no other family
            res = square_attack(xs, ys, model.logits, cfg)
        wall_ms.append((time.perf_counter() - t0) * 1000)
        results.append(res)
        robust &= ~res.success
    return SuiteResult(results=results,
                       worst_case_accuracy=float(np.mean(robust)), wall_ms=wall_ms)
