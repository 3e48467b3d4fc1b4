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

All dynamics run in float64 regardless of parameter dtype. Functions accept
either a single example (x of rank 3) or a batch (rank 4) and return matching
structure.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .model import ModelSpec, NetworkState, Params, zero_state

_F = np.float64


def _as_batch_x(x, spec: ModelSpec):
    x = np.asarray(x, dtype=_F)
    if x.shape == spec.input_shape:
        return x[None], False
    if x.ndim == 4 and x.shape[1:] == spec.input_shape:
        return x, True
    raise ops.ShapeError(
        f"input shape {x.shape} does not match model input {spec.input_shape}"
    )


def _flat(s: np.ndarray) -> np.ndarray:
    return s.reshape(s.shape[0], -1)


# einsum (fixed reduction order) instead of BLAS `@` keeps results
# bit-identical across batch sizes
def _linmap(x2d: np.ndarray, w: np.ndarray) -> np.ndarray:
    """w @ x per example: x[B,D], w[K,D] -> [B,K]."""
    return np.einsum("kd,bd->bk", w, x2d, dtype=_F)


def _linmap_t(g2d: np.ndarray, w: np.ndarray) -> np.ndarray:
    """w^T @ g per example: g[B,K], w[K,D] -> [B,D]."""
    return np.einsum("kd,bk->bd", w, g2d, dtype=_F)


def _layers64(state: NetworkState, spec: ModelSpec) -> tuple[list[np.ndarray], bool]:
    """Cast state layers to float64 with a batch axis; report if one was added."""
    shapes = spec.state_shapes()
    layers = [np.asarray(s, dtype=_F) for s in state.layers]
    if len(layers) != len(shapes):
        raise ops.ShapeError(
            f"state has {len(layers)} layers, model has {len(shapes)}"
        )
    batched = layers[0].ndim == len(shapes[0]) + 1
    for n, (s, shp) in enumerate(zip(layers, shapes)):
        want = s.shape[1:] if batched else s.shape
        if want != shp:
            raise ops.ShapeError(f"layer {n} state shape {s.shape} != {shp}")
    if not batched:
        layers = [s[None] for s in layers]
    return layers, batched


def _bottom_up(x, layers, params: Params, spec: ModelSpec):
    """P(w_i * s^{i-1}) + b_i for every connection; also the pool routes."""
    srcs = [x] + layers[:-1]
    pre, idx = [], []
    for i, cs in enumerate(spec.conv):
        c = ops.conv2d(srcs[i], params.conv_w[i], cs)
        p, ix = ops.maxpool2(c)
        pre.append(p + params.conv_b[i][:, None, None])
        idx.append(ix)
    for j in range(len(spec.fc)):
        i = spec.n_conv + j
        pre.append(ops.affine(_flat(srcs[i]), params.fc_w[j], params.fc_b[j]))
    return pre, idx


def _add_top_down(pre, layers, params: Params, spec: ModelSpec, idx):
    """Add the feedback term from connection i into layer i-1 (top layer gets none)."""
    for i in range(1, spec.n_layers):
        if i < spec.n_conv:
            td = ops.conv2d_transpose(
                ops.unpool2(layers[i], idx[i]), params.conv_w[i], spec.conv[i]
            )
        else:
            j = i - spec.n_conv
            td = _linmap_t(layers[i].reshape(layers[i].shape[0], -1), params.fc_w[j])
            td = td.reshape(pre[i - 1].shape)
        pre[i - 1] = pre[i - 1] + td
    return pre


def phi(x, state: NetworkState, params: Params, spec: ModelSpec):
    """Scalar energy; a vector of per-example energies for batched input."""
    xb, batched = _as_batch_x(x, spec)
    params = params.map(np.asarray, dtype=_F)
    layers, _ = _layers64(state, spec)
    pre, _ = _bottom_up(xb, layers, params, spec)
    total = np.zeros(xb.shape[0], dtype=_F)
    for s, p in zip(layers, pre):
        total += np.einsum("bi,bi->b", _flat(s), _flat(p), dtype=_F)
    return total if batched else float(total[0])


def phi_grad_state(x, state: NetworkState, params: Params, spec: ModelSpec):
    """dPhi/ds^n for every layer: bottom-up drive plus feedback from above."""
    xb, batched = _as_batch_x(x, spec)
    params = params.map(np.asarray, dtype=_F)
    layers, _ = _layers64(state, spec)
    pre, idx = _bottom_up(xb, layers, params, spec)
    pre = _add_top_down(pre, layers, params, spec, idx)
    if batched:
        return pre
    return [p[0] for p in pre]


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(logits: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-example softmax cross-entropy."""
    z = logits - logits.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1))
    return lse - np.take_along_axis(z, np.asarray(y)[..., None], axis=-1)[..., 0]


def cross_entropy_grad(logits: np.ndarray, y) -> np.ndarray:
    """d cross_entropy / d logits per example: softmax(logits) - onehot(y)."""
    g = softmax(logits)
    g[np.arange(len(g)), y] -= 1.0
    return g


def readout(state: NetworkState, params: Params) -> np.ndarray:
    """Logits from the flattened top state; batched in, batched out."""
    top = np.asarray(state.layers[-1], dtype=_F)
    w = np.asarray(params.readout_w, dtype=_F)
    b = np.asarray(params.readout_b, dtype=_F)
    d = w.shape[1]
    if top.ndim >= 2 and top[0].size == d:  # leading batch axis
        return ops.affine(_flat(top), w, b)
    if top.size == d:
        return ops.affine(top.reshape(d), w, b)
    raise ops.ShapeError(
        f"top state with shape {top.shape} does not flatten to readout width {d}"
    )


def _nudge_force(state_layers, params: Params, spec: ModelSpec, y, beta_signed: float):
    """-beta * dL/ds^N routed through the readout: -beta * W^T (softmax - onehot)."""
    top = _flat(state_layers[-1])
    logits = _linmap(top, params.readout_w) + params.readout_b
    force = -beta_signed * _linmap_t(cross_entropy_grad(logits, y), params.readout_w)
    return force.reshape(state_layers[-1].shape)


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
    runs all t steps). Returns (state, routes, masks): the state is shaped
    like x, and with record set routes[k] and masks[k] are the pool routes
    and clamp masks used by step k (both lists stay empty otherwise).
    """
    if t < 1:
        raise ValueError(f"a relaxation needs t >= 1, got t={t}")
    xb, batched = _as_batch_x(x, spec)
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
    if not batched:
        layers, idx = [s[0] for s in layers], [i[0] for i in idx]
    return NetworkState(layers=layers, pool_idx=idx, steps=steps), routes, masks


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
    layers, _ = _layers64(s_star, spec)
    state, _, _ = _relax(x, layers, params, spec, t, 0.0,
                         y=np.atleast_1d(np.asarray(y)), beta_signed=beta_signed)
    state.steps += s_star.steps
    return state


def logits_at(x, params: Params, spec: ModelSpec, t: int) -> np.ndarray:
    """Readout logits after exactly t free-phase steps (no early exit)."""
    xb, batched = _as_batch_x(x, spec)
    state = free_phase(xb, params, spec, t=t, fp_tol=0.0)
    z = readout(state, params)
    return z if batched else z[0]


def predict_at(x, params: Params, spec: ModelSpec, t: int):
    """(label, logits) after exactly t free-phase steps; ties -> lowest index."""
    z = logits_at(x, params, spec, t)
    label = np.argmax(z, axis=-1)  # argmax takes the first (lowest) index on ties
    if z.ndim == 1:
        return int(label), z
    return label, z


def convergence_step(x, params: Params, spec: ModelSpec, t: int | None = None,
                     fp_tol: float | None = None) -> int:
    """Free-phase steps until the fixed-point tolerance is met on this batch."""
    state = free_phase(x, params, spec, t=t, fp_tol=fp_tol)
    return state.steps
