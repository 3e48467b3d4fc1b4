"""Exact input gradients by reverse mode through the unrolled free phase.

The forward pass records, per step, only the pooling argmax routes and the
clamp pass-through masks, plus the final state that the readout reads; no
intermediate states are kept. The backward pass walks the tape in
reverse, treating pooling routes as constants of the forward pass and using
clamp subgradient 1 on [0,1] (boundary included) and 0 outside. Because the
clamped input x feeds the first connection at every step, its gradient
accumulates across all t steps. Connection 0's pool route depends only on x,
so a tape holds it once, and connection 0 is one linear map at every step:
the reverse pass sums its cotangents over the steps and applies its adjoint
once. Each reverse step keeps only the terms of connections 1 and up. Every
entry point here prepares the model once per call (`energy._prepare`), so
a reverse step only pulls cotangents through the recorded routes and masks;
its convolutions reuse the buffers that `ops` keeps per operand geometry,
most of them built by the forward relaxation already.

Inputs are batched ([B, C, H, W]; logit gradients [B, K]). Everything here
is per-example exact, and an example's result is bit-identical whatever
batch it is computed in. Each step's reverse pass is built from the
connection drives and their adjoints in `energy`, the same ones the forward
dynamics use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .energy import _adjoint, _as_batch_x, _cotangent, _drive, _logits, _prepare, _relax
from .model import ModelSpec, Params


@dataclass
class UnrolledTape:
    """Recorded free-phase trajectory.

    route0 is connection 0's pool route, the same at every step.
    pool_idx[t][i - 1] is connection i's pool route at step t for i >= 1
    and masks[t] the clamp masks of step t. final is the batched state after
    the last step.
    """

    route0: np.ndarray
    pool_idx: list[list[np.ndarray]]
    masks: list[list[np.ndarray]]
    final: list[np.ndarray]

    @property
    def steps(self) -> int:
        return len(self.masks)

    def nbytes(self) -> int:
        """Bytes of the arrays the tape holds, each counted once: route 0,
        every step's other routes and masks, and the final state."""
        held = [self.route0, *self.final]
        for routes, masks in zip(self.pool_idx, self.masks):
            held += routes + masks
        return sum(a.nbytes for a in held)


def record_free_phase(x, params: Params, spec: ModelSpec, t: int) -> UnrolledTape:
    """Run exactly t steps (no early exit), keeping connection 0's route once
    and each step's other routes and its masks."""
    state, routes, masks = _relax(x, None, params, spec, t, 0.0, record=True)
    return UnrolledTape(routes[0][0], [r[1:] for r in routes], masks, state.layers)


def backward_input(tape: UnrolledTape, x, params: Params, spec: ModelSpec,
                   g_logits: np.ndarray) -> np.ndarray:
    """Pull a logit-space gradient [B, K] back through readout and unrolled
    dynamics to the input [B, C, H, W].

    Connection 0 reads only x, along one route and with one weight at every
    step, so its cotangents are summed over the steps and its adjoint is
    applied once. A tape that does not fit spec (see _tape_batch), and an x
    or g_logits whose batch is not the tape's, are refused with
    ops.ShapeError before any work.
    """
    xb = _as_batch_x(x, spec)
    batch = _tape_batch(tape, spec)
    if len(xb) != batch:
        raise ops.ShapeError(f"input batch {len(xb)} != the tape's batch {batch}")
    g_logits = _cotangent(g_logits, batch, spec)
    if tape.steps == 0:
        return np.zeros_like(xb)
    net = _prepare(params, spec)
    shapes = [s.shape for s in tape.final]
    g_layers = [np.zeros(shp) for shp in shapes]
    g_layers[-1] = _adjoint(net.n_layers, g_logits, net).reshape(shapes[-1])
    g_in = None  # connection 0's cotangent summed over the steps walked so far

    for step in reversed(range(tape.steps)):
        g_pre = [g * m for g, m in zip(g_layers, tape.masks[step])]
        g_in = g_pre[0] if g_in is None else g_in + g_pre[0]
        g_layers = [np.zeros(shp) for shp in shapes]
        for i, route in enumerate(tape.pool_idx[step], 1):
            # bottom-up term of connection i read s^{i-1}
            g_layers[i - 1] += _adjoint(i, ops.unpool2(g_pre[i], route), net)
            # top-down term of connection i (into layer i-1) read s^i
            g_layers[i] += _drive(i, g_pre[i - 1], net, route)[0]
    return _adjoint(0, ops.unpool2(g_in, tape.route0), net)


def _tape_batch(tape: UnrolledTape, spec: ModelSpec) -> int:
    """The batch B of the tape's final state, once the arrays of the tape
    that backward_input reads are checked against spec at B: the final state
    layer by layer, one list of routes per list of masks, and at each step a
    bool clamp mask of each layer's shape and a route of each pooled shape
    for connections 1 and up. The routes' dtype and range, and route 0, are
    ops.unpool2's to check."""
    shapes = spec.state_shapes()
    if len(tape.final) != len(shapes):
        raise ops.ShapeError(f"tape final state has {len(tape.final)} layers, the model "
                             f"has {len(shapes)}")
    # shapes and dtypes are read by attribute, so that the check costs a
    # small part of a reverse step; anything but an array fails it
    lead = getattr(tape.final[0], "shape", ())[:1]
    want = [lead + shp for shp in shapes]
    for n, (s, shp) in enumerate(zip(tape.final, want)):
        if getattr(s, "shape", None) != shp:
            raise ops.ShapeError(f"tape final layer {n} is {_described(s)}, not {shp}")
    if len(tape.pool_idx) != tape.steps:
        raise ops.ShapeError(f"tape holds routes for {len(tape.pool_idx)} steps and masks "
                             f"for {tape.steps}")
    masks_want = [(shp, np.dtype(bool)) for shp in want]
    for t, (routes, masks) in enumerate(zip(tape.pool_idx, tape.masks)):
        got = [(getattr(m, "shape", None), getattr(m, "dtype", None)) for m in masks]
        if got != masks_want:
            if len(got) != len(want):
                raise ops.ShapeError(f"tape step {t} holds {len(got)} masks, the model has "
                                     f"{len(want)} layers")
            n = next(n for n, (g, w) in enumerate(zip(got, masks_want)) if g != w)
            raise ops.ShapeError(f"tape step {t} layer {n} mask is {_described(masks[n])}, "
                                 f"not bool {want[n]}")
        got = [getattr(r, "shape", None) for r in routes]
        if got != want[1:]:
            if len(got) != len(want) - 1:
                raise ops.ShapeError(f"tape step {t} holds {len(got)} routes for connections 1 "
                                     f"and up, the model has {len(want) - 1}")
            n = next(n for n, (g, w) in enumerate(zip(got, want[1:]), 1) if g != w)
            raise ops.ShapeError(f"tape step {t} connection {n} route is "
                                 f"{_described(routes[n - 1])}, not {want[n]}")
    return lead[0]


def _described(a) -> str:
    """dtype and shape of an array, or the type of anything else."""
    return f"{a.dtype} {a.shape}" if isinstance(a, np.ndarray) else type(a).__name__


def logits_and_vjp(xs, params: Params, spec: ModelSpec, t: int):
    """Logits at step t plus a pullback mapping logit gradients to input space.

    Shares one recorded tape between the forward value and the backward call;
    every input gradient of a dynamics model, cross-entropy included, is a
    pullback through it.
    """
    xb = _as_batch_x(xs, spec)
    tape = record_free_phase(xb, params, spec, t)
    logits = _logits(tape.final[-1], _prepare(params, spec))

    def vjp(g_logits: np.ndarray) -> np.ndarray:
        return backward_input(tape, xb, params, spec, g_logits)

    return logits, vjp
