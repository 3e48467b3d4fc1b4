"""Energy function, free/nudged fixed-point dynamics, and the readout.

The scalar energy over input x and states s^1..s^N is

    Phi = sum_conv <s^n, P(w_n * s^{n-1}) + b_n>
        + sum_fc   <s^n, w_n s^{n-1} + b_n>

with * cross-correlation, P 2x2 stride-2 max pooling, and s^0 = x. The state
update is s_{t+1} = clamp(dPhi/ds_t) applied synchronously to every layer,
with pooling argmax routes refreshed from the current bottom-up pass at each
step. The readout (logits on the flattened top state) stays outside Phi; the
nudged phase injects -beta * dL/ds^N through it, where L is softmax
cross-entropy. Free, nudged and recorded runs all go through one loop,
`_relax`.

Connections are numbered conv first, then fc, then the readout; connection
i reads its weight and bias as Params.w[i] and Params.b[i]. Each one's drive,
bias, adjoint at fixed pool routes and weight gradient are written once here;
the unrolled reverse pass, the EP rules and the backprop twin reuse them.

All dynamics run in float64 regardless of parameter dtype. Every input,
state and result carries a leading batch axis: x is [B, C, H, W], each state
layer [B, ...], logits [B, K]; an input without it is rejected with
ops.ShapeError.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .model import ModelSpec, NetworkState, Params, zero_state

_F = np.float64


def _as_batch_x(x, spec: ModelSpec) -> np.ndarray:
    """x as float64, checked to be [B, C, H, W] with the model's (C, H, W)."""
    x = np.asarray(x, dtype=_F)
    if x.ndim != 4 or x.shape[1:] != spec.input_shape:
        raise ops.ShapeError(
            f"input shape {x.shape} is not [B, C, H, W] with (C, H, W) = "
            f"{spec.input_shape}"
        )
    return x


def _flat(s: np.ndarray) -> np.ndarray:
    return s.reshape(s.shape[0], -1)


def _layers64(state: NetworkState, spec: ModelSpec) -> list[np.ndarray]:
    """State layers as float64, each checked to be [B] + its layer shape."""
    shapes = spec.state_shapes()
    layers = [np.asarray(s, dtype=_F) for s in state.layers]
    if len(layers) != len(shapes):
        raise ops.ShapeError(
            f"state has {len(layers)} layers, model has {len(shapes)}"
        )
    for n, (s, shp) in enumerate(zip(layers, shapes)):
        if s.shape[1:] != shp:
            raise ops.ShapeError(f"layer {n} state shape {s.shape} != [B] + {shp}")
    return layers


def _drive(i, src, params: Params, spec: ModelSpec, route=None):
    """Connection i's drive on the batched src, bias excluded: (drive, route).

    A conv drive is P(w * src), max-pooled along fresh argmax routes when
    route is None and gathered along the given route otherwise; an fc
    connection or the readout gives w flat(src) and route None.
    """
    w = params.w[i]
    if i >= spec.n_conv:
        # einsum (fixed reduction order) instead of BLAS `@` keeps results
        # bit-identical across batch sizes
        return np.einsum("kd,bd->bk", w, _flat(src), dtype=_F), None
    c = ops.conv2d(src, w, spec.conv[i])
    return ops.maxpool2(c) if route is None else (ops.pool_gather(c, route), route)


def _add_bias(i, drive, params: Params, spec: ModelSpec):
    """drive + b_i, the bias broadcast over a conv drive's spatial axes."""
    b = params.b[i]
    return drive + b.reshape(b.shape + (1,) * (drive.ndim - 2))


def _unpool(g, route):
    """A gradient on a connection's drive moved back through its pooling:
    unpooled along a conv's route, only flattened when route is None."""
    return _flat(g) if route is None else ops.unpool2(g, route)


def _adjoint(i, u, params: Params, spec: ModelSpec):
    """Transpose of connection i's linear map applied to u = _unpool(g, route);
    with the pooling routes held fixed this is the adjoint of the drive."""
    w = params.w[i]
    if i < spec.n_conv:
        return ops.conv2d_transpose(u, w, spec.conv[i])
    return np.einsum("kd,bk->bd", w, u, dtype=_F)


def _weight_grad(i, src, g, params: Params, spec: ModelSpec, u=None):
    """Batch-summed (dw, db) of <g, drive_i(src) + b_i> at fixed routes.

    u is _unpool(g, route) if the caller has it; a conv without it pools
    along the fresh routes of its drive from src. db sums g itself, so a
    conv's stays on the pooled shape (the summation order the bits rely on).
    """
    db = g.sum(axis=(0,) + tuple(range(2, g.ndim)))
    if i >= spec.n_conv:
        return np.einsum("bk,bd->kd", _flat(g), _flat(src), dtype=_F), db
    if u is None:
        u = ops.unpool2(g, _drive(i, src, params, spec)[1])
    return ops.conv2d_weight_grad(src, u, spec.conv[i]), db


def _route(routes, i):
    """Pool route of connection i from a list holding the conv routes only."""
    return routes[i] if i < len(routes) else None


def _logits(top, params: Params, spec: ModelSpec):
    """Readout logits flat(s^N) W^T + b of a batched top state."""
    n = spec.n_layers
    return _add_bias(n, _drive(n, top, params, spec)[0], params, spec)


def _bottom_up(x, layers, params: Params, spec: ModelSpec):
    """P(w_i * s^{i-1}) + b_i for every connection; also the conv pool routes."""
    pre, routes = [], []
    for i, src in enumerate([x] + layers[:-1]):
        drive, route = _drive(i, src, params, spec)
        pre.append(_add_bias(i, drive, params, spec))
        if route is not None:
            routes.append(route)
    return pre, routes


def _add_top_down(pre, layers, params: Params, spec: ModelSpec, routes):
    """Add the feedback term from connection i into layer i-1 (top layer gets none)."""
    for i in range(1, spec.n_layers):
        td = _adjoint(i, _unpool(layers[i], _route(routes, i)), params, spec)
        pre[i - 1] = pre[i - 1] + td.reshape(pre[i - 1].shape)
    return pre


def phi(x, state: NetworkState, params: Params, spec: ModelSpec):
    """Per-example energies [B]."""
    xb = _as_batch_x(x, spec)
    params = params.map(np.asarray, dtype=_F)
    layers = _layers64(state, spec)
    pre, _ = _bottom_up(xb, layers, params, spec)
    total = np.zeros(xb.shape[0], dtype=_F)
    for s, p in zip(layers, pre):
        total += np.einsum("bi,bi->b", _flat(s), _flat(p), dtype=_F)
    return total


def phi_grad_state(x, state: NetworkState, params: Params, spec: ModelSpec):
    """dPhi/ds^n for every layer: bottom-up drive plus feedback from above."""
    xb = _as_batch_x(x, spec)
    params = params.map(np.asarray, dtype=_F)
    layers = _layers64(state, spec)
    pre, idx = _bottom_up(xb, layers, params, spec)
    return _add_top_down(pre, layers, params, spec, idx)


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _labels(logits: np.ndarray, y) -> np.ndarray:
    """y checked to be [B] integer labels in [0, K) for logits [B, K]."""
    y = np.asarray(y)
    if y.shape != logits.shape[:1] or not np.issubdtype(y.dtype, np.integer):
        raise ops.ShapeError(f"labels: expected [B] integers with B = {len(logits)}, "
                             f"got shape {y.shape} of {y.dtype}")
    bad = (y < 0) | (y >= logits.shape[-1])
    if bad.any():
        raise ValueError(f"label {y[bad][0]} is outside [0, {logits.shape[-1]})")
    return y


def cross_entropy(logits: np.ndarray, y) -> np.ndarray:
    """Per-example softmax cross-entropy of logits [B, K] at labels y [B]."""
    y = _labels(logits, y)
    z = logits - logits.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1))
    return lse - np.take_along_axis(z, y[:, None], axis=-1)[:, 0]


def cross_entropy_grad(logits: np.ndarray, y) -> np.ndarray:
    """d cross_entropy / d logits per example: softmax(logits) - onehot(y)."""
    y = _labels(logits, y)
    g = softmax(logits)
    g[np.arange(len(g)), y] -= 1.0
    return g


def readout(state: NetworkState, params: Params, spec: ModelSpec) -> np.ndarray:
    """Logits [B, K] from the flattened top state [B, ...]."""
    top = ops._as_batch(np.asarray(state.layers[-1], dtype=_F), "top state",
                        "B, D" if spec.fc else "B, C, H, W")
    return _logits(top, params, spec)


def _nudge_force(state_layers, params: Params, spec: ModelSpec, y, beta_signed: float):
    """-beta * dL/ds^N routed through the readout: -beta * W^T (softmax - onehot)."""
    top = state_layers[-1]
    err = cross_entropy_grad(_logits(top, params, spec), y)
    force = -beta_signed * _adjoint(spec.n_layers, err, params, spec)
    return force.reshape(top.shape)


def dynamics_step(x, layers, params: Params, spec: ModelSpec, *, y=None,
                  beta_signed: float = 0.0, collect: bool = False):
    """One synchronous update of all layers. Returns (new_layers, idx, masks).

    masks (clamp pass-through, boundary counted as pass) are only built when
    collect is set.
    """
    pre, idx = _bottom_up(x, layers, params, spec)
    pre = _add_top_down(pre, layers, params, spec, idx)
    if beta_signed != 0.0:
        pre[-1] = pre[-1] + _nudge_force(layers, params, spec, y, beta_signed)
    masks = None
    if collect:
        masks = [(p >= 0.0) & (p <= 1.0) for p in pre]
    new = [ops.hard_clamp(p) for p in pre]
    return new, idx, masks


def _relax(x, layers, params: Params, spec: ModelSpec, t: int, tol: float, *,
           y=None, beta_signed: float = 0.0, record: bool = False):
    """The one relaxation loop behind free, nudged and recorded runs.

    Applies up to t dynamics steps to the batched float64 `layers` (None
    starts from the all-zero state) and stops early once the largest
    infinity-norm step difference across layers drops below tol (tol <= 0
    runs all t steps). Returns (state, routes, masks): with record set
    routes[k] and masks[k] are the pool routes and clamp masks used by step k
    (both lists stay empty otherwise).
    """
    if t < 1:
        raise ValueError(f"a relaxation needs t >= 1, got t={t}")
    xb = _as_batch_x(x, spec)
    params = params.map(np.asarray, dtype=_F)
    if layers is None:
        layers = zero_state(spec, xb.shape[0]).layers
    routes, masks = [], []
    for steps in range(1, t + 1):
        new, idx, mask = dynamics_step(xb, layers, params, spec, y=y,
                                       beta_signed=beta_signed, collect=record)
        if record:
            routes.append(idx)
            masks.append(mask)
        done = tol > 0 and max(np.max(np.abs(n - o)) for n, o in zip(new, layers)) < tol
        layers = new
        if done:
            break
    return NetworkState(layers=layers, steps=steps), routes, masks


def free_phase(x, params: Params, spec: ModelSpec, t: int | None = None,
               fp_tol: float | None = None) -> NetworkState:
    """Relax from the all-zero state for up to t steps.

    Exits early once the largest infinity-norm step difference across layers
    drops below fp_tol (fp_tol=0 disables early exit).
    """
    t = spec.t_free if t is None else t
    tol = spec.fp_tol if fp_tol is None else fp_tol
    return _relax(x, None, params, spec, t, tol)[0]


def nudged_phase(x, params: Params, spec: ModelSpec, s_star: NetworkState, y,
                 beta_signed: float, t: int | None = None) -> NetworkState:
    """Relax for t_nudge steps from s_star with the loss force -beta * dL/ds.

    beta_signed = 0 reproduces plain free-phase continuation bit for bit.
    """
    t = spec.t_nudge if t is None else t
    state, _, _ = _relax(x, _layers64(s_star, spec), params, spec, t, 0.0,
                         y=y, beta_signed=beta_signed)
    state.steps += s_star.steps
    return state


def logits_at(x, params: Params, spec: ModelSpec, t: int) -> np.ndarray:
    """Readout logits [B, K] after exactly t free-phase steps (no early exit)."""
    return readout(free_phase(x, params, spec, t=t, fp_tol=0.0), params, spec)
