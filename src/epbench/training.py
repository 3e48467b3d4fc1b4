"""Parameter estimation and the one training loop for ep, bp and adv models.

The energy-weight gradients come from differences of dPhi/dtheta between
nudged and free fixed points (one-sided or symmetric rule); the readout is
trained by the delta rule at the free fixed point and stays outside the
energy. The bp and adv models are the feedforward twin in `baseline`,
trained by backprop; adv replaces each minibatch with PGD examples crafted
against the current model first, under TrainConfig's adv_norm, adv_epsilon
and adv_steps (set by the config keys of the same names). Optimization is
plain SGD with momentum and one learning rate per connection (its weight and
bias share it). The per-connection gradient math is energy's, shared with
the dynamics. An ep model's last training-set evaluation also hands its
per-example free-phase steps and residuals to the caller, which `epbench
train` reads as its convergence probe.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import bench
from .attacks import NORMS, _pgd
from .baseline import _bp_batch_grads
from .checkpoint import MODEL_KINDS
from .energy import (_as_batch_x, _layers64, _logits, _prepare, _weight_grad,
                     cross_entropy_grad, free_phase, nudged_phase, readout)
from .handle import for_params
from .model import ModelSpec, NetworkState, Params, init_params

_F = np.float64


class DivergenceError(RuntimeError):
    """Training produced a non-finite parameter."""


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 64
    learning_rates: tuple[float, ...] = ()  # empty: 0.05 for every connection
    momentum: float = 0.9
    update_rule: str = "symmetric"
    seed: int = 0
    adv_norm: str = "l2"  # adv only: the inner PGD attack's norm, radius and steps
    adv_epsilon: float = 0.5
    adv_steps: int = 10

    def __post_init__(self):
        if self.update_rule not in ("one_sided", "symmetric"):
            raise ValueError(f"unknown update rule {self.update_rule!r}")
        if not all(0 <= lr < np.inf for lr in self.learning_rates):
            raise ValueError(f"learning_rates must be >= 0 and finite, got "
                             f"{self.learning_rates}")
        for name in ("momentum", "adv_epsilon"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.adv_norm not in NORMS:
            raise ValueError(f"unknown norm {self.adv_norm!r} for adv_norm")
        if self.adv_epsilon < 0 or self.adv_steps < 1:
            raise ValueError("adv_epsilon must be >= 0 and adv_steps >= 1")

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
    and the pre-synaptic state; biases: summed post-synaptic states. Readout
    slots stay zero (outside the energy).
    """
    xb = _as_batch_x(x, spec)
    net = _prepare(params, spec)
    n = xb.shape[0]
    layers = _layers64(state.layers, spec, n)
    est = params.map(np.zeros_like, dtype=_F)
    for i, (src, s) in enumerate(zip([xb] + layers[:-1], layers)):
        # conv weights use the pooling routes of the bottom-up pass at this state
        dw, db = _weight_grad(i, src, s, net)
        est.w[i], est.b[i] = dw / n, db / n
    return est


def ep_estimate(x, y, params: Params, spec: ModelSpec, cfg: TrainConfig,
                s_star: NetworkState | None = None) -> Params:
    """Contrastive loss-gradient estimate (G(s_lo) - G(s^beta)) / span under
    cfg.update_rule at the nudging strength spec.beta (> 0); s_star is the
    free fixed point of x when the caller already has it. one_sided takes
    s_lo = s_star and span = beta (error O(beta)); symmetric nudges again at
    -beta for s_lo and takes span = 2*beta (error O(beta^2)).
    """
    beta = spec.beta
    if s_star is None:
        s_star = free_phase(x, params, spec)
    s_plus = nudged_phase(x, params, spec, s_star, y, beta)
    if cfg.update_rule == "one_sided":
        s_lo, span = s_star, beta
    else:
        s_lo, span = nudged_phase(x, params, spec, s_star, y, -beta), 2.0 * beta
    hi = phi_grad_params(x, s_plus, params, spec)
    lo = phi_grad_params(x, s_lo, params, spec)
    a, b = 1.0 / span, -1.0 / span
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


def _ep_batch_grads(params, spec, cfg, xs, ys, free_log=None):
    """EP gradient estimate of one minibatch; free_log, when given, receives
    the free phase's per-example (example_steps, residual)."""
    s_star = free_phase(xs, params, spec)
    if free_log is not None:
        free_log.append((s_star.example_steps, s_star.residual))
    est = ep_estimate(xs, ys, params, spec, cfg, s_star)
    # the readout learns by the delta rule at the free fixed point
    net, top, n = _prepare(params, spec), s_star.layers[-1], spec.n_layers
    err = cross_entropy_grad(_logits(top, net), ys)
    gw, gb = _weight_grad(n, top, err, net)
    est.w[n], est.b[n] = gw / len(ys), gb / len(ys)
    return est


def _ep_predict(params, spec, xs, free_log=None):
    """Labels from an early-exit free phase; free_log, when given, receives
    the phase's per-example (example_steps, residual)."""
    state = free_phase(xs, params, spec)
    if free_log is not None:
        free_log.append((state.example_steps, state.residual))
    return np.argmax(readout(state, params, spec), axis=-1)


def train(kind: str, dataset, spec: ModelSpec, cfg: TrainConfig, val_dataset=None,
          eval_log=None):
    """Minibatch SGD of an ep, bp or adv model; returns (Params, per-epoch history).

    adv crafts each minibatch with PGD under cfg's adv_* settings before the bp
    step; adv_epsilon = 0 skips crafting, reproducing bp bit for bit. An ep
    history entry also holds the mean and max of the epoch's per-example
    free-phase steps and the fraction of examples whose free phase ended at
    the cap unconverged. For an ep model, eval_log, when given, receives the
    last epoch's training-set evaluation under the final params: one
    per-example (example_steps, residual) pair per evaluation batch, in
    dataset order. Each example's free phase gives its solo bits, so these
    are the values a fresh free phase on the same rows would give.
    """
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    cfg.validate_for(spec)
    rng = np.random.default_rng(cfg.seed)
    params = init_params(spec, rng, dtype=np.float32)
    velocity = params.map(np.zeros_like, dtype=_F)
    history = []
    for epoch in range(cfg.epochs):
        # an empty dataset runs no batch; bench.evaluate then rejects it
        order = rng.permutation(len(dataset.labels))
        free_log = []
        for b0 in range(0, len(order), cfg.batch_size):
            take = order[b0:b0 + cfg.batch_size]
            xs = np.asarray(dataset.images[take], dtype=_F)
            ys = dataset.labels[take]
            if kind == "adv" and cfg.adv_epsilon > 0:
                xs = _pgd(for_params(params, spec, "bp", None).loss_grad, xs, ys,
                          cfg.adv_norm, cfg.adv_epsilon, cfg.adv_steps,
                          2.5 * cfg.adv_epsilon / cfg.adv_steps, rng)
            grads = (_ep_batch_grads(params, spec, cfg, xs, ys, free_log) if kind == "ep"
                     else _bp_batch_grads(params, spec, xs, ys))
            sgd_momentum_step(params, grads, velocity, cfg)
            if not params.all_finite():
                raise DivergenceError(f"non-finite parameter at epoch {epoch}, "
                                      f"batch {b0 // cfg.batch_size}")
        predict = (partial(_ep_predict, params, spec) if kind == "ep"
                   else for_params(params, spec, kind, None).predict)
        train_predict = (partial(predict, free_log=eval_log)
                         if kind == "ep" and epoch == cfg.epochs - 1 else predict)
        entry = {"epoch": epoch, "train_acc": bench.evaluate(train_predict, dataset)}
        if val_dataset is not None:
            entry["val_acc"] = bench.evaluate(predict, val_dataset)
        if kind == "ep":
            steps, residual = (np.concatenate(a) for a in zip(*free_log))
            entry.update(free_steps_mean=float(steps.mean()), free_steps_max=int(steps.max()),
                         unconverged_frac=float(np.mean(residual >= spec.fp_tol)))
        history.append(entry)
    return params, history
