"""Parameter estimation: contrastive fixed-point updates and the training loop.

The energy-weight gradients come from differences of dPhi/dtheta between
nudged and free fixed points (one-sided or symmetric rule); the readout is
trained by the delta rule at the free fixed point and stays outside the
energy. Optimization is plain SGD with momentum and one learning rate per
connection (its weight and bias share it). The per-connection gradient math
is energy's, shared with the dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import bench
from .energy import (_as_batch_x, _layers64, _logits, _weight_grad,
                     cross_entropy_grad, free_phase, nudged_phase, readout)
from .model import ModelSpec, NetworkState, Params, init_params

_F = np.float64


class DivergenceError(RuntimeError):
    """Training produced a non-finite parameter."""


@dataclass
class AdversarialBlock:
    """Inner-attack settings for adversarially trained baselines."""

    norm: str = "l2"
    epsilon: float = 0.5
    steps: int = 10

    def __post_init__(self):
        if self.norm not in ("l2", "linf"):
            raise ValueError(f"unknown norm {self.norm!r}")
        if self.epsilon < 0 or self.steps < 1:
            raise ValueError("adversarial block needs epsilon >= 0 and steps >= 1")


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 64
    learning_rates: tuple[float, ...] = ()  # empty: 0.05 for every connection
    beta: float | None = None  # falls back to ModelSpec.beta
    momentum: float = 0.9
    update_rule: str = "symmetric"
    seed: int = 0
    adversarial: AdversarialBlock | None = None

    def __post_init__(self):
        if self.update_rule not in ("one_sided", "symmetric"):
            raise ValueError(f"unknown update rule {self.update_rule!r}")
        if any(lr < 0 for lr in self.learning_rates):
            raise ValueError("learning rates must be >= 0")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")

    def validate_for(self, spec: ModelSpec) -> None:
        want = spec.n_layers + 1  # one per connection incl. readout
        if self.learning_rates and len(self.learning_rates) != want:
            raise ValueError(
                f"need {want} learning rates (one per connection incl. readout), "
                f"got {len(self.learning_rates)}"
            )


def phi_grad_params(x, state: NetworkState, params: Params,
                    spec: ModelSpec) -> Params:
    """dPhi/dtheta at the given state, the mean over the batch.

    Conv weights: correlation between the unpool-routed post-synaptic state
    and the pre-synaptic state; fc weights: outer products; biases: summed
    post-synaptic states. Readout slots stay zero (outside the energy).
    """
    xb = _as_batch_x(x, spec)
    p64 = params.map(np.asarray, dtype=_F)
    layers = _layers64(state, spec)
    n = xb.shape[0]
    est = params.map(np.zeros_like, dtype=_F)
    for i, (src, s) in enumerate(zip([xb] + layers[:-1], layers)):
        # conv weights use the pooling routes of the bottom-up pass at this state
        dw, db = _weight_grad(i, src, s, p64, spec)
        est.w[i], est.b[i] = dw / n, db / n
    return est


def ep_estimate(x, y, params: Params, spec: ModelSpec, cfg: TrainConfig,
                s_star: NetworkState | None = None) -> Params:
    """Contrastive loss-gradient estimate under cfg.update_rule; s_star is the
    free fixed point of x when the caller already has it.

    one_sided is (G(s_*) - G(s^beta)) / beta from one nudged phase. symmetric
    anchors its two nudged phases at +/-|beta| with the signed prefactor
    1/(2*beta), which makes the estimate an exactly odd function of beta.
    """
    beta = cfg.beta if cfg.beta is not None else spec.beta
    if cfg.update_rule == "symmetric" and beta == 0:
        raise ValueError("symmetric update needs beta != 0")
    if s_star is None:
        s_star = free_phase(x, params, spec)
    if cfg.update_rule == "one_sided":
        s_plus = nudged_phase(x, params, spec, s_star, y, beta)
        lo = phi_grad_params(x, s_star, params, spec)
        hi = phi_grad_params(x, s_plus, params, spec)
        a, b = 1.0 / beta, -1.0 / beta
    else:
        mag = abs(beta)
        s_plus = nudged_phase(x, params, spec, s_star, y, +mag)
        s_minus = nudged_phase(x, params, spec, s_star, y, -mag)
        hi = phi_grad_params(x, s_plus, params, spec)
        lo = phi_grad_params(x, s_minus, params, spec)
        a, b = 1.0 / (2.0 * beta), -1.0 / (2.0 * beta)
    return lo.map(lambda u, v: a * u + b * v, hi)


def sgd_momentum_step(params: Params, grads: Params, velocity: Params,
                      cfg: TrainConfig) -> None:
    """In-place: v <- mu*v + g; theta <- theta - lr * v, where connection i's
    weight and bias take rate i."""
    rates = cfg.learning_rates or (0.05,) * len(params.w)
    for p, g, v, lr in zip(params.w + params.b, grads.w + grads.b,
                           velocity.w + velocity.b, rates * 2, strict=True):
        v *= cfg.momentum
        v += g
        p -= np.asarray(lr * v, dtype=p.dtype)


def _ep_batch_grads(params, spec, cfg, xs, ys):
    s_star = free_phase(xs, params, spec)
    est = ep_estimate(xs, ys, params, spec, cfg, s_star)
    # the readout learns by the delta rule at the free fixed point
    p64, top, n = params.map(np.asarray, dtype=_F), s_star.layers[-1], spec.n_layers
    err = cross_entropy_grad(_logits(top, p64, spec), ys)
    gw, gb = _weight_grad(n, top, err, p64, spec)
    est.w[n], est.b[n] = gw / len(ys), gb / len(ys)
    return est


def _ep_predict(params, spec, xs):
    state = free_phase(xs, params, spec)
    return np.argmax(readout(state, params, spec), axis=-1)


def run_training(dataset, spec: ModelSpec, cfg: TrainConfig, grad_fn, predict_fn,
                 val_dataset=None):
    """Shared minibatch SGD loop; returns (Params, per-epoch history)."""
    cfg.validate_for(spec)
    rng = np.random.default_rng(cfg.seed)
    params = init_params(spec, rng, dtype=np.float32)
    velocity = params.map(np.zeros_like, dtype=_F)
    n = len(dataset.labels)
    if n == 0:
        raise ValueError("dataset is empty")
    history = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for b0 in range(0, n, cfg.batch_size):
            take = order[b0:b0 + cfg.batch_size]
            xs = np.asarray(dataset.images[take], dtype=_F)
            ys = dataset.labels[take]
            grads = grad_fn(params, xs, ys, rng)
            sgd_momentum_step(params, grads, velocity, cfg)
            if not params.all_finite():
                raise DivergenceError(
                    f"non-finite parameter at epoch {epoch}, batch {b0 // cfg.batch_size}"
                )
        predict = partial(predict_fn, params)
        entry = {"epoch": epoch, "train_acc": bench.evaluate(predict, dataset)}
        if val_dataset is not None:
            entry["val_acc"] = bench.evaluate(predict, val_dataset)
        history.append(entry)
    return params, history


def train_ep(dataset, spec: ModelSpec, cfg: TrainConfig, val_dataset=None):
    """Train the energy model with the configured contrastive rule."""
    return run_training(
        dataset, spec, cfg,
        grad_fn=lambda p, xs, ys, rng: _ep_batch_grads(p, spec, cfg, xs, ys),
        predict_fn=lambda p, xs: _ep_predict(p, spec, xs),
        val_dataset=val_dataset,
    )
