"""The feedforward twin of the energy model, behind the bp and adv baselines.

The forward pass is a single sweep: clamp(pool(conv(s)) + b) per conv
connection, then the linear readout. No batch normalization (deliberate
simplification; it would introduce train/eval mode divergence orthogonal to
what these baselines are for).
Both sweeps are made of the connection drives, adjoints and weight gradients
in `energy`, the ones the energy model's dynamics and EP rules use.
`training.train` trains the twin; `handle.for_params` evaluates and attacks it.
"""

from __future__ import annotations

from . import ops
from .energy import (_adjoint, _as_batch_x, _cotangent, _drive, _logits, _prepare,
                     _weight_grad, cross_entropy_grad)
from .model import ModelSpec, Params


def bp_forward(xs, params: Params, spec: ModelSpec, collect: bool = False):
    """Feedforward logits; with collect=True also the per-layer cache."""
    xb = _as_batch_x(xs, spec)
    net = _prepare(params, spec)
    cache = []
    s = xb
    for i in range(spec.n_layers):
        drive, route = _drive(i, s, net)
        pre = drive + net.b[i]
        if collect:
            cache.append({"src": s, "route": route, "mask": (pre >= 0) & (pre <= 1)})
        s = ops.hard_clamp(pre)
    logits = _logits(s, net)
    if collect:
        return logits, {"layers": cache, "top": s}
    return logits


def bp_backward(cache, params: Params, spec: ModelSpec, g_logits, *,
                param_grads: bool = True, input_grad: bool = True):
    """Parameter gradients (summed over the batch) and the input gradient from
    one backward sweep. A part the caller turns off is returned as None and
    never computed: the pullback skips every weight gradient, a training step
    skips connection 0's adjoint."""
    net = _prepare(params, spec)
    n, top = spec.n_layers, cache["top"]
    grads = Params([None] * (n + 1), [None] * (n + 1)) if param_grads else None
    if param_grads:
        grads.w[n], grads.b[n] = _weight_grad(n, top, g_logits, net)
    g = _adjoint(n, g_logits, net).reshape(top.shape)
    for i in reversed(range(n)):
        layer = cache["layers"][i]
        g_pre = g * layer["mask"]
        u = ops.unpool2(g_pre, layer["route"])  # shared by both gradients: one unpool
        if param_grads:
            grads.w[i], grads.b[i] = _weight_grad(i, layer["src"], g_pre, net, u)
        if i or input_grad:
            g = _adjoint(i, u, net)
    return grads, (g if input_grad else None)


def bp_logits_and_vjp(xs, params: Params, spec: ModelSpec):
    """Feedforward logits plus a pullback from logit space to input space."""
    xb = _as_batch_x(xs, spec)
    logits, cache = bp_forward(xb, params, spec, collect=True)

    def vjp(g_logits):
        g_logits = _cotangent(g_logits, len(xb), spec)
        _, g_x = bp_backward(cache, params, spec, g_logits, param_grads=False)
        return g_x

    return logits, vjp


def _bp_batch_grads(params, spec, xs, ys):
    logits, cache = bp_forward(xs, params, spec, collect=True)
    g_logits = cross_entropy_grad(logits, ys) / len(ys)  # batch-mean loss
    grads, _ = bp_backward(cache, params, spec, g_logits, input_grad=False)
    return grads
