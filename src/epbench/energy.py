"""Energy function, free/nudged fixed-point dynamics, and the readout.

The scalar energy over input x and states s^1..s^N is

    Phi = sum_n <s^n, P(w_n * s^{n-1}) + b_n>

with * cross-correlation, P 2x2 stride-2 max pooling, and s^0 = x. The state
update is s_{t+1} = clamp(dPhi/ds_t) applied synchronously to every layer,
with pooling argmax routes refreshed from the current bottom-up pass at each
step. Connection 0's drive and route depend only on the clamped x, so a
relaxation computes them once, before its first step. The readout (logits
on the flattened top state) stays outside Phi; the nudged phase injects
-beta * dL/ds^N through it, where L is softmax cross-entropy. Free, nudged
and recorded runs all go through one loop, `_relax`. An early-exit
relaxation freezes each example at its own first step below the tolerance
and steps only the examples still moving, so an example's result never
depends on its batch-mates.

Connections are numbered conv 0..N-1, then the readout at N; connection i
reads its weight and bias as Params.w[i] and Params.b[i]. Each one's drive,
bias, adjoint at fixed pool routes and weight gradient are written once here;
the unrolled reverse pass, the EP rules and the backprop twin reuse them.
They read one parameter view, `_prepare`'s: the weights and biases as
float64, each bias shaped to broadcast over its drive, and each conv
kernel's flipped adjoint kernel. Every entry point prepares the model, and
so flips each kernel, once per call; no step flips one. Where an op's
buffers live is `ops`' business alone: it keeps them per thread by operand
geometry, so a relaxation's steps, across its row compressions, and the
relaxations after it reuse them.

All dynamics run in float64 regardless of parameter dtype. Every input,
state and result carries a leading batch axis: x is [B, C, H, W], each state
layer [B, ...], logits [B, K]; an input without it is rejected with
ops.ShapeError.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import NamedTuple

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
    # an explicit width: -1 cannot be inferred from an empty batch
    return s.reshape(s.shape[0], math.prod(s.shape[1:]))


def _layers64(layers, spec: ModelSpec, batch: int | None = None) -> list[np.ndarray]:
    """State layers as float64, each checked to be [B] + its layer shape with
    one B for every layer: x's batch when the caller gives it, else layer 0's."""
    shapes = spec.state_shapes()
    layers = [np.asarray(s, dtype=_F) for s in layers]
    if len(layers) != len(shapes):
        raise ops.ShapeError(
            f"state has {len(layers)} layers, model has {len(shapes)}"
        )
    whose = "layer 0's" if batch is None else "the input's"
    for n, (s, shp) in enumerate(zip(layers, shapes)):
        if s.shape[1:] != shp:
            raise ops.ShapeError(f"layer {n} state shape {s.shape} != [B] + {shp}")
        batch = len(s) if batch is None else batch
        if len(s) != batch:
            raise ops.ShapeError(f"layer {n} state batch {len(s)} != {whose} batch {batch}")
    return layers


class _Net(NamedTuple):
    """The one parameter view the connection helpers read, computed once per
    entry-point call by `_prepare`, which flips every conv kernel there."""

    params: Params        # every weight and bias as float64
    spec: ModelSpec
    w_adj: list           # conv connection i's adjoint kernel
    b: list               # bias i shaped to broadcast over connection i's drive
    n_layers: int


def _prepare(params: Params, spec: ModelSpec) -> _Net:
    """params prepared for every connection-helper call of one entry point."""
    p64 = params.map(np.asarray, dtype=_F)
    w_adj = [ops._adjoint_kernel(w) for w in p64.w[:-1]]
    b = [bi[:, None, None] for bi in p64.b[:-1]] + [p64.b[-1]]
    return _Net(p64, spec, w_adj, b, spec.n_layers)


def _drive(i, src, net: _Net, route=None):
    """Connection i's drive on the batched src, bias excluded: (drive, route).

    A conv drive is P(w * src), max-pooled along fresh argmax routes when
    route is None and gathered along the given route otherwise; the readout
    (i = n_layers) gives w flat(src) and route None.
    """
    w = net.params.w[i]
    if i == net.n_layers:
        # einsum (fixed reduction order) instead of BLAS `@` keeps results
        # bit-identical across batch sizes
        return np.einsum("kd,bd->bk", w, _flat(src), dtype=_F), None
    c = ops.conv2d(src, w, net.spec.conv[i])
    if route is None:
        return ops.maxpool2(c)
    return ops.pool_gather(c, route), route


def _adjoint(i, u, net: _Net):
    """Transpose of connection i's linear map applied to u: a conv's u is its
    drive's gradient unpooled along the route (ops.unpool2), so with the
    pooling routes held fixed this is the adjoint of the drive; the readout's
    u is a logit gradient [B, K]."""
    w = net.params.w[i]
    if i == net.n_layers:
        return np.einsum("kd,bk->bd", w, u, dtype=_F)
    return ops.conv2d_transpose(u, w, net.spec.conv[i], net.w_adj[i])


def _weight_grad(i, src, g, net: _Net, u=None):
    """Batch-summed (dw, db) of <g, drive_i(src) + b_i> at fixed routes.

    u is ops.unpool2(g, route) if the caller has it; a conv without it pools
    along the fresh routes of its drive from src. db sums g itself, so a
    conv's stays on the pooled shape (the summation order the bits rely on).
    """
    db = g.sum(axis=(0,) + tuple(range(2, g.ndim)))
    if i == net.n_layers:
        return np.einsum("bk,bd->kd", g, _flat(src), dtype=_F), db
    if u is None:
        u = ops.unpool2(g, _drive(i, src, net)[1])
    return ops.conv2d_weight_grad(src, u, net.spec.conv[i]), db


def _logits(top, net: _Net):
    """Readout logits flat(s^N) W^T + b of a batched top state."""
    n = net.n_layers
    return _drive(n, top, net)[0] + net.b[n]


def _input_drive(x, net: _Net):
    """Connection 0's biased drive on the clamped x and its pool route:
    (pre0, route0). Callers only read it."""
    drive, route = _drive(0, x, net)
    return drive + net.b[0], route


def _bottom_up(layers, net: _Net, x_drive):
    """P(w_i * s^{i-1}) + b_i for every connection, and each one's pool
    route; x_drive = _input_drive(x, net) is connection 0's."""
    pre0, route0 = x_drive
    pre, routes = [pre0], [route0]
    for i in range(1, net.n_layers):
        drive, route = _drive(i, layers[i - 1], net)
        drive += net.b[i]  # the pooled result is a new array
        pre.append(drive)
        routes.append(route)
    return pre, routes


def _grad_state(layers, net: _Net, x_drive):
    """(dPhi/ds^n for every layer, pool routes of the bottom-up pass by connection).

    Each layer's feedback from connection i + 1 above is added to a new
    array, so the input drive in pre[0] is never written.
    """
    pre, routes = _bottom_up(layers, net, x_drive)
    for i in range(1, net.n_layers):
        pre[i - 1] = pre[i - 1] + _adjoint(i, ops.unpool2(layers[i], routes[i]), net)
    return pre, routes


def phi(x, state: NetworkState, params: Params, spec: ModelSpec):
    """Per-example energies [B]."""
    xb = _as_batch_x(x, spec)
    layers = _layers64(state.layers, spec, len(xb))
    net = _prepare(params, spec)
    pre, _ = _bottom_up(layers, net, _input_drive(xb, net))
    total = np.zeros(xb.shape[0], dtype=_F)
    for s, p in zip(layers, pre):
        total += np.einsum("bi,bi->b", _flat(s), _flat(p), dtype=_F)
    return total


def phi_grad_state(x, state: NetworkState, params: Params, spec: ModelSpec):
    """dPhi/ds^n for every layer: bottom-up drive plus feedback from above."""
    xb = _as_batch_x(x, spec)
    net = _prepare(params, spec)
    return _grad_state(_layers64(state.layers, spec, len(xb)), net, _input_drive(xb, net))[0]


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


def _cotangent(g_logits, batch: int, spec: ModelSpec) -> np.ndarray:
    """A pullback's logit cotangent as float64, checked to be [B, K] for its
    forward's batch B and K = spec.readout_dim."""
    g = np.asarray(g_logits, dtype=_F)
    if g.shape != (batch, spec.readout_dim):
        raise ops.ShapeError(f"logit cotangent shape {g.shape} is not [B, K] = "
                             f"{(batch, spec.readout_dim)}")
    return g


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
    return _logits(_layers64(state.layers, spec)[-1], _prepare(params, spec))


def _nudge_force(layers, net: _Net, y, beta_signed: float):
    """-beta * dL/ds^N routed through the readout: -beta * W^T (softmax - onehot)."""
    top = layers[-1]
    err = cross_entropy_grad(_logits(top, net), y)
    force = -beta_signed * _adjoint(net.n_layers, err, net)
    return force.reshape(top.shape)


def dynamics_step(x, layers, params: Params, spec: ModelSpec, *, y=None,
                  beta_signed: float = 0.0, collect: bool = False, fixed=None):
    """One synchronous update of all layers. Returns (new_layers, idx, masks),
    where idx[i] is connection i's pool route.

    masks (clamp pass-through, boundary counted as pass) are only built when
    collect is set. fixed is the relaxation's work that no step changes, as
    `_relax` holds it: (_prepare(params, spec), _input_drive(x, net)), with x
    and the layers already checked; None checks them and computes both in
    this step.
    """
    if fixed is None:
        x = _as_batch_x(x, spec)
        layers = _layers64(layers, spec, len(x))
        net = _prepare(params, spec)
        fixed = net, _input_drive(x, net)
    net, x_drive = fixed
    pre, idx = _grad_state(layers, net, x_drive)
    if beta_signed != 0.0:
        pre[-1] = pre[-1] + _nudge_force(layers, net, y, beta_signed)
    new = [ops.hard_clamp(p) for p in pre]
    # a value passes the clamp unchanged iff it lies in [0, 1]; NaN never does
    masks = [n == p for n, p in zip(new, pre)] if collect else None
    return new, idx, masks


def _residual(new, old) -> np.ndarray:
    """Per-example infinity-norm step difference across layers: [B]."""
    gaps = (_flat(n - o) for n, o in zip(new, old))  # one temporary per layer
    return reduce(np.maximum, (np.abs(g, out=g).max(axis=1) for g in gaps))


def _relax(x, start: NetworkState | None, params: Params, spec: ModelSpec, t: int,
           tol: float, *, y=None, beta_signed: float = 0.0, record: bool = False):
    """The one relaxation loop behind free, nudged and recorded runs.

    Applies up to t dynamics steps to the layers of `start` (None starts
    from the all-zero state). With tol > 0 each example is frozen at
    the first step where its own infinity-norm step difference across layers
    drops below tol, and later steps run on the remaining rows only: x, the
    layers, y and connection 0's drive and route are compressed together on
    each step where some rows finish. tol <= 0 runs every row for all t steps
    with no row bookkeeping (record needs this: its routes and masks are
    full-batch). Returns (state, routes, masks): with record set routes[k]
    and masks[k] are the pool routes and clamp masks used by step k (both
    lists stay empty otherwise). Connection 0 has one route, computed
    with its drive before the first step and shared by every step.
    """
    if t < 1:
        raise ValueError(f"a relaxation needs t >= 1, got t={t}")
    xb = _as_batch_x(x, spec)
    n = xb.shape[0]
    layers = zero_state(spec, n).layers if start is None else _layers64(start.layers, spec, n)
    net = _prepare(params, spec)
    x_drive = _input_drive(xb, net)
    routes, masks = [], []
    rows = np.arange(n)  # the output row of each row still stepping
    example_steps, residual = np.empty(n, dtype=np.int64), np.empty(n)  # set per row
    out = None  # full-batch result, made once rows first finish at different steps
    for steps in range(1, t + 1):
        # rebinding old here frees the previous input, which after a
        # compression still holds every row, before this step runs
        old = layers
        layers, idx, mask = dynamics_step(xb, old, params, spec, y=y,
                                          beta_signed=beta_signed, collect=record,
                                          fixed=(net, x_drive))
        if record:
            routes.append(idx)
            masks.append(mask)
        if tol <= 0 and steps < t:
            continue
        res = _residual(layers, old)
        done = res < tol
        if steps == t or done.all():
            break
        if done.any():
            if out is None:
                out = [np.empty((n,) + s.shape[1:]) for s in layers]
            fin, keep = rows[done], ~done
            for o, s in zip(out, layers):
                o[fin] = s[done]
            example_steps[fin], residual[fin] = steps, res[done]
            rows, xb = rows[keep], xb[keep]
            layers = [s[keep] for s in layers]
            x_drive = tuple(a[keep] for a in x_drive)
            y = None if y is None else np.asarray(y)[keep]
    example_steps[rows], residual[rows] = steps, res
    if out is not None:
        for o, s in zip(out, layers):
            o[rows] = s
        layers = out
    return NetworkState(layers, example_steps, residual), routes, masks


def free_phase(x, params: Params, spec: ModelSpec, t: int | None = None,
               fp_tol: float | None = None) -> NetworkState:
    """Relax from the all-zero state for up to t steps.

    Each example stops at the first step where its own infinity-norm step
    difference across layers drops below fp_tol (fp_tol=0 disables early
    exit), so its layers, example_steps and residual are the bits of its solo
    run whatever the batch. An example converged iff residual < fp_tol.
    """
    t = spec.t_free if t is None else t
    tol = spec.fp_tol if fp_tol is None else fp_tol
    return _relax(x, None, params, spec, t, tol)[0]


def nudged_phase(x, params: Params, spec: ModelSpec, s_star: NetworkState, y,
                 beta_signed: float) -> NetworkState:
    """Relax for spec.t_nudge steps from s_star with the loss force
    -beta_signed * dL/ds, without early exit.

    beta_signed = 0 reproduces plain free-phase continuation bit for bit.
    example_steps, and so steps, count s_star's steps too.
    """
    state, _, _ = _relax(x, s_star, params, spec, spec.t_nudge, 0.0, y=y,
                         beta_signed=beta_signed)
    state.example_steps += s_star.example_steps
    return state


def logits_at(x, params: Params, spec: ModelSpec, t: int) -> np.ndarray:
    """Readout logits [B, K] after exactly t free-phase steps (no early exit)."""
    return readout(free_phase(x, params, spec, t=t, fp_tol=0.0), params, spec)
