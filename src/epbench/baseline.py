"""Backprop-trained baselines on the same architecture as the energy model.

The feedforward pass is a single sweep: clamp(pool(conv(s)) + b) per conv
connection, clamp(W s + b) per fc connection, then the linear readout. No
batch normalization (deliberate simplification; it would introduce
train/eval mode divergence orthogonal to what these baselines are for).
Both sweeps are made of the connection drives, adjoints and weight gradients
in `energy`, the ones the energy model's dynamics and EP rules use; the
adversarially trained variant replaces each minibatch with PGD examples
crafted against the current model before the step.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .attacks import project, steepest_ascent, uniform_ball
from .energy import (_add_bias, _adjoint, _as_batch_x, _drive, _logits, _unpool,
                     _weight_grad, cross_entropy, cross_entropy_grad)
from .model import ModelSpec, Params
from .training import TrainConfig, run_training

_F = np.float64


def bp_forward(xs, params: Params, spec: ModelSpec, collect: bool = False):
    """Feedforward logits; with collect=True also the per-layer cache."""
    xb = _as_batch_x(xs, spec)
    p64 = params.map(np.asarray, dtype=_F)
    cache = []
    s = xb
    for i in range(spec.n_layers):
        drive, route = _drive(i, s, p64, spec)
        pre = _add_bias(i, drive, p64, spec)
        if collect:
            cache.append({"src": s, "route": route, "mask": (pre >= 0) & (pre <= 1)})
        s = ops.hard_clamp(pre)
    logits = _logits(s, p64, spec)
    if collect:
        return logits, {"layers": cache, "top": s}
    return logits


def bp_backward(cache, params: Params, spec: ModelSpec, g_logits):
    """Parameter gradients (summed over the batch) and the input gradient."""
    p64 = params.map(np.asarray, dtype=_F)
    n, top = spec.n_layers, cache["top"]
    grads = Params([None] * (n + 1), [None] * (n + 1))  # every connection is set below
    grads.w[n], grads.b[n] = _weight_grad(n, top, g_logits, p64, spec)
    g = _adjoint(n, g_logits, p64, spec).reshape(top.shape)
    for i in reversed(range(n)):
        layer = cache["layers"][i]
        g_pre = g.reshape(layer["mask"].shape) * layer["mask"]
        u = _unpool(g_pre, layer["route"])  # shared by both gradients: one unpool
        grads.w[i], grads.b[i] = _weight_grad(i, layer["src"], g_pre, p64, spec, u)
        g = _adjoint(i, u, p64, spec).reshape(layer["src"].shape)
    return grads, g


def bp_loss_and_input_grad(xs, ys, params: Params, spec: ModelSpec):
    """Per-example cross-entropy losses [B] and input gradients."""
    logits, vjp = bp_logits_and_vjp(xs, params, spec)
    return cross_entropy(logits, ys), vjp(cross_entropy_grad(logits, ys))


def bp_predict(xs, params: Params, spec: ModelSpec):
    return np.argmax(bp_forward(xs, params, spec), axis=-1)


def bp_logits_and_vjp(xs, params: Params, spec: ModelSpec):
    """Feedforward logits plus a pullback from logit space to input space."""
    xb = _as_batch_x(xs, spec)
    logits, cache = bp_forward(xb, params, spec, collect=True)

    def vjp(g_logits):
        _, g_x = bp_backward(cache, params, spec, np.asarray(g_logits, dtype=_F))
        return g_x

    return logits, vjp


def _bp_batch_grads(params, spec, xs, ys):
    logits, cache = bp_forward(xs, params, spec, collect=True)
    g_logits = cross_entropy_grad(logits, ys) / len(ys)  # batch-mean loss
    grads, _ = bp_backward(cache, params, spec, g_logits)
    return grads


def _craft_train_batch(xs, ys, params, spec, adv, rng):
    """PGD examples against the current model (random start, alpha=2.5 eps/steps)."""
    x = project(xs, xs + uniform_ball(rng, xs.shape, adv.norm, adv.epsilon),
                adv.norm, adv.epsilon)
    alpha = 2.5 * adv.epsilon / adv.steps
    for _ in range(adv.steps):
        _, g = bp_loss_and_input_grad(x, ys, params, spec)
        x = project(xs, x + alpha * steepest_ascent(g, adv.norm), adv.norm, adv.epsilon)
    return x


def train_bp(dataset, spec: ModelSpec, cfg: TrainConfig, val_dataset=None):
    """Plain backprop training of the feedforward twin."""
    return run_training(
        dataset, spec, cfg,
        grad_fn=lambda p, xs, ys, rng: _bp_batch_grads(p, spec, xs, ys),
        predict_fn=lambda p, xs: bp_predict(xs, p, spec),
        val_dataset=val_dataset,
    )


def train_adv(dataset, spec: ModelSpec, cfg: TrainConfig, val_dataset=None):
    """Adversarial training: PGD-crafted minibatches against the live model.

    epsilon = 0 skips crafting entirely, reproducing train_bp bit for bit.
    """
    if cfg.adversarial is None:
        raise ValueError("train_adv needs cfg.adversarial")
    adv = cfg.adversarial

    def grad_fn(params, xs, ys, rng):
        if adv.epsilon > 0:
            xs = _craft_train_batch(xs, ys, params, spec, adv, rng)
        return _bp_batch_grads(params, spec, xs, ys)

    return run_training(
        dataset, spec, cfg,
        grad_fn=grad_fn,
        predict_fn=lambda p, xs: bp_predict(xs, p, spec),
        val_dataset=val_dataset,
    )
