"""Dense tensor primitives: convolution and pooling with their adjoints, and the clamp.

Tensors are plain row-major numpy arrays. The convolutions and maxpool2 read
every real operand as float64 and return float64, with int64 routes;
unpool2, pool_gather and hard_clamp keep their input's dtype. Spatial convolution
uses the cross-correlation convention (no kernel flip) with stride fixed at 1;
``conv2d_transpose`` is its exact adjoint, and ``unpool2`` is the adjoint of
``maxpool2`` for a fixed set of argmax indices. Every operand carries a
leading batch axis: images and feature maps are [B, C, H, W]; an operand
without it is rejected with ShapeError.

All functions are pure (inputs never mutated) and deterministic. The three
convolution primitives build a float64 column matrix [C*k*k, Ho*Wo] per
example (im2col) and issue one BLAS dgemm per example through a stacked
``np.matmul``, so an example's output bits depend only on that example, not
on its batch-mates or on the BLAS thread count. That lets the columns be
built for one run of examples at a time, as many as fit ``_RUN_BYTES`` (at
least one), with each run multiplied into its rows of a preallocated output
by ``np.matmul(..., out=...)``. The columns are built in one of two copy
orders, chosen per run from the run's examples n and the output width Wo,
which the code reads from its operands, so no setting chooses:
- row by row (n <= 2 Wo): the run goes into the interior of a
  zero-bordered padded buffer [n, C, H+2p, W+2p], and one strided view of
  its k x k windows is copied into the columns, the innermost loop along an
  output row;
- batch-innermost (n > 2 Wo, in runs of about half what ``_RUN_BYTES``
  holds, where such a run can hold more than 2 Wo examples): the run goes into a zero-bordered batch-last buffer
  [C, H+2p, W+2p, n], its [C, k, k, Ho, Wo, n] windows into a window
  buffer, and that buffer, viewed as [C*k*k*Ho*Wo, n], is written
  transposed into the columns. Every inner loop but the last runs along the
  n examples. It makes three copies where the row order makes two, so it
  pays once those loops are about twice as long as an output row: timed per
  call at desk shapes (Wo of 4 or 8), the switch at n = Wo left calls of
  9-16 rows at Wo 8 up to 1.3x slower than the row copy.
Both orders give the same columns, so each example meets the same dgemm
with byte-identical operands whatever the order or the run length, and no
bit moves. The weight gradient sums the per-example products over the batch
in index order. maxpool2 copies each window's four cells into four
contiguous float64 planes, one run of examples at a time, and compares them
there. Pooling routes are int64 flat indices into each [H, W] plane, as
maxpool2 returns them, checked for dtype, shape and range before use.

Every call takes its buffers from a plan (``_ConvPlan``, ``_PoolPlan``) that
this module keeps per thread, by the operand's geometry: its shape past the
batch axis, with the ConvSpec for a convolution. A plan is built at the
first call of its geometry, which runs the checks that depend on nothing
else (channel axis, output extent, even pooling extents), and built again
only when a call brings a larger batch than it holds; a smaller batch fills
its first rows, as a relaxation's row compressions leave it. A conv plan
owns its zero-bordered padded buffers and their window views: the
batch-first one, and the batch-last one only when its batch-innermost runs
are wider than 2 Wo (the batch-first one then holds 2 Wo rows). Its
columns, with the batch-innermost window buffer after them, and a pool
plan's window cells, are views of a scratch array that each thread keeps between calls,
grown to its largest run, at most ``_RUN_BYTES`` unless one example needs
more. So held memory is one run's columns rather than the batch's, the
steps of a relaxation or a reverse pass allocate only their outputs, and a
conv call checks only its kernel, against a shape tuple that the ConvSpec
stores beside the int tuple that keys its plans. A thread's plans are
dropped together when they reach ``_PLANS``.

What depends only on shapes is computed once per shape and cached read-only:
the first cell of each pooling window and the flat offset of each stacked
plane that a route check adds. ``conv2d_transpose`` flips its kernel on every
call unless the caller passes the flipped kernel, as the connection helpers
in ``energy`` do: an entry point of the model flips each kernel once, when
it prepares the model.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are inconsistent; the message names the offending axis."""


@dataclass(frozen=True)
class ConvSpec:
    """Geometry of one convolution: square kernel, stride fixed at 1."""

    in_channels: int
    out_channels: int
    kernel: int
    padding: int = 0

    def __post_init__(self):
        for name, v in (("in_channels", self.in_channels), ("out_channels", self.out_channels),
                        ("kernel", self.kernel), ("padding", self.padding)):
            if type(v) is not int:
                raise ValueError(f"{name} must be an integer, got {v!r}")
        if self.kernel < 1:
            raise ValueError(f"kernel must be >= 1, got {self.kernel}")
        if self.padding < 0:
            raise ValueError(f"padding must be >= 0, got {self.padding}")
        if self.in_channels < 1 or self.out_channels < 1:
            raise ValueError("channel counts must be >= 1")
        # the plan key and the kernel shape as int tuples, which hash and
        # compare in C: the generated __hash__ and __eq__ run in Python
        object.__setattr__(self, "_key", (self.in_channels, self.out_channels,
                                          self.kernel, self.padding))
        object.__setattr__(self, "_kernel_shape", (self.out_channels, self.in_channels,
                                                   self.kernel, self.kernel))

    def out_extent(self, extent: int) -> int:
        out = extent + 2 * self.padding - self.kernel + 1
        if out < 1:
            raise ShapeError(
                f"conv output extent {out} < 1 for input extent {extent} "
                f"(kernel {self.kernel}, padding {self.padding})"
            )
        return out


def _as_batch(x: np.ndarray, what: str) -> np.ndarray:
    """x as an array, checked to be rank 4: [B, C, H, W]."""
    x = np.asarray(x)
    if x.ndim != 4:
        raise ShapeError(f"{what}: expected [B, C, H, W], got shape {x.shape}")
    return x


# Column bytes one run of examples may fill (it holds at least one example):
# a run's columns stay in a core's cache while BLAS reads them
_RUN_BYTES = 1 << 19


def _im2col(xb: np.ndarray, plan: _ConvPlan) -> np.ndarray:
    """One run xb [n, C, H, W] of a call's examples (see _ConvPlan) -> float64
    [n, C*k*k, Ho*Wo] in the plan's column buffer; row (c, a, b) of example m
    holds x_padded[m, c, i+a, j+b] over the output positions (i, j) in
    row-major order. The padded buffer's zero border is left as it was."""
    fill, copies, cols = plan._scratch(len(xb))
    fill[...] = xb
    for dst, src in copies:
        dst[...] = src
    return cols


# Each thread's scratch array (buf), grown to the largest run its plans have
# needed, and its plans (plans), kept between calls
_scratch = threading.local()

# The plans a thread keeps: it drops them all when they reach this many
_PLANS = 64


def _scratch_array(size: int) -> np.ndarray:
    """This thread's scratch array, grown to hold at least size elements."""
    buf = getattr(_scratch, "buf", None)
    if buf is None or len(buf) < size:
        buf = _scratch.buf = np.empty(size)
    return buf


def _plan(a: np.ndarray, spec: ConvSpec | None = None, what: str = "") -> _Plan:
    """This thread's plan for operands of a's geometry: a _ConvPlan under
    spec for `what` (the op, named in its errors), a _PoolPlan without spec.
    Built at the geometry's first call and again for a larger batch."""
    plans = getattr(_scratch, "plans", None)
    if plans is None:
        plans = _scratch.plans = {}
    key = a.shape[1:], None if spec is None else spec._key
    plan = plans.get(key)
    if plan is None or len(a) > plan.capacity:
        if len(plans) >= _PLANS:
            plans.clear()
        plan = plans[key] = (_PoolPlan(a.shape) if spec is None
                             else _ConvPlan(a.shape, spec, what))
    return plan


class _Plan:
    """What one op reuses call after call for operands of one geometry
    [B, ...], with B at most the batch the plan was built for (its capacity):
    buffers for one run of examples, a smaller batch filling their first
    rows."""

    held: tuple       # the shape of the buffer it keeps in the scratch array
    _base = _views = None  # the scratch array, and _scratch's views of it by rows

    def __init__(self, capacity: int, example_bytes: int):
        # examples per run: as many as _RUN_BYTES holds, at most the
        # capacity, at least one
        self.capacity = capacity
        self.run = max(min(_RUN_BYTES // max(example_bytes, 1), capacity), 1)

    def _scratch(self, n: int):
        """`_over` of the first n rows (n <= run) of a `held`-shaped view of
        the head of this thread's scratch array, built once for each n until
        that array is replaced (it grows). Every call fills the buffer before
        reading it, so a thread's plans share that memory rather than each
        holding its own."""
        if self._views is None or getattr(_scratch, "buf", None) is not self._base:
            size = math.prod(self.held)
            self._base = buf = _scratch_array(size)
            self._head, self._views = buf[:size].reshape(self.held), {}
        views = self._views.get(n)
        if views is None:
            views = self._views[n] = self._over(self._head, n)
        return views


class _ConvPlan(_Plan):
    """The im2col buffers of conv2d and conv2d_weight_grad for operands of
    the given shape under spec, in the two copy orders of the module
    docstring: the padded buffers and their window views, which the plan
    owns, and the columns, with the batch-innermost window buffer after
    them, in the scratch array. Only a plan whose batch-innermost runs can
    hold more than 2 Wo examples copies batch-innermost. Its runs are then
    as long as the capacity, or as the columns and the window buffer, with
    its one spare row, let _RUN_BYTES hold; a run of at most 2 Wo rows, as a
    short call or a call's last run brings, is still copied row by row.
    `what` names the op in a channel-axis error."""

    def __init__(self, shape, spec: ConvSpec, what: str):
        B, C, H, W = shape
        if C != spec.in_channels:
            raise ShapeError(f"{what} input channel axis has extent {C}, spec expects "
                             f"{spec.in_channels}")
        p, k = spec.padding, spec.kernel
        self.ho, self.wo = ho, wo = spec.out_extent(H), spec.out_extent(W)
        example = 8 * C * k * k * ho * wo
        super().__init__(B, example)
        wide = min((_RUN_BYTES // example - 1) // 2, B)
        padded = (C, H + 2 * p, W + 2 * p)
        self.xpt = None
        rows = held = self.run
        if wide > 2 * wo:
            # the batch-last buffer's interior as [n, C, H, W], and its
            # [C, k, k, Ho, Wo, n] windows; the row copy serves at most 2 Wo
            # rows
            self.run, rows, held = wide, 2 * wo, 2 * wide + 1
            self.xpt = xpt = np.zeros(padded + (wide,))
            self.fill_t = xpt[:, p:p + H, p:p + W].transpose(3, 0, 1, 2)
            self.win_t = np.ndarray((C, k, k, ho, wo, wide), np.float64, xpt, 0,
                                    xpt.strides[:3] + xpt.strides[1:])
        self.held = (held, C * k * k, ho * wo)  # the columns, then the window buffer
        self.xp = xp = np.zeros((rows,) + padded)
        # the interior that each run fills, and the [n, C, k, k, Ho, Wo]
        # windows, copied out in C order: a bare reshape can return an
        # overlapping view, which matmul multiplies with other bits
        self.fill = xp[:, :, p:p + H, p:p + W]
        self.win = np.ndarray((rows, C, k, k, ho, wo), np.float64, xp, 0,
                              xp.strides + xp.strides[2:])

    def _over(self, cols, n):
        """_im2col's views of n rows: (the padded interior as [n, C, H, W],
        the (destination, source) copies that build the columns from it, the
        columns)."""
        if n <= len(self.xp):  # row by row
            win = self.win[:n]
            return self.fill[:n], ((cols[:n].reshape(win.shape), win),), cols[:n]
        # the window buffer's rows lie n apart, or n + 1 when n is a multiple
        # of 16: at 128-byte multiples the transposing read keeps hitting
        # the same cache sets and took 2.5-4x as long (n of 16, 32 and 48)
        win, m = self.win_t[..., :n], math.prod(cols.shape[1:])
        ld = n + (n % 16 == 0)
        flat = cols.reshape(-1)
        cols = flat[:n * m].reshape((n,) + cols.shape[1:])
        wins = flat[n * m:(n + ld) * m].reshape(m, ld)[:, :n]
        return (self.fill_t[:n], ((wins.reshape(win.shape), win), (cols.reshape(n, m), wins.T)),
                cols)


class _PoolPlan(_Plan):
    """maxpool2's window-cell buffer in the scratch array."""

    def __init__(self, shape):
        B, C, H, W = shape
        _even(H, W)
        super().__init__(B, 8 * C * H * W)
        self.held = (4, self.run, C, H // 2, W // 2)  # the window cells

    def _over(self, cells, n):
        """_pool_cells' views of n rows: the cells [4, n, C, h, w] as
        [2, 2, n, C, h, w] (row offset, column offset), each cell's plane, and
        the first three planes."""
        cells = cells[:, :n]
        return (cells.reshape((2, 2) + cells.shape[1:]), cells[0], cells[1], cells[2],
                cells[3], cells[:3])


def conv2d(x: np.ndarray, w: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Cross-correlate x[B,C_in,H,W] with w[C_out,C_in,k,k].

    y[n,o,i,j] = sum_{c,a,b} w[o,c,a,b] * x_padded[n,c,i+a,j+b]
    """
    xb = _as_batch(x, "conv2d input")
    w = np.asarray(w)
    if w.shape != spec._kernel_shape:
        if w.ndim != 4:
            raise ShapeError(f"conv2d kernel: expected rank 4, got rank {w.ndim}")
        raise ShapeError(
            f"conv2d kernel shape {w.shape} does not match spec "
            f"({spec.out_channels},{spec.in_channels},{spec.kernel},{spec.kernel})"
        )
    plan = _plan(xb, spec, "conv2d")
    w2 = w.reshape(spec.out_channels, -1)
    B, n = len(xb), plan.run
    y = np.empty((B, spec.out_channels, plan.ho * plan.wo))
    # [O, C*k*k] @ [n, C*k*k, Ho*Wo]: one dgemm per example
    for s in range(0, B, n):
        np.matmul(w2, _im2col(xb[s:s + n], plan), out=y[s:s + n])
    return y.reshape(B, spec.out_channels, plan.ho, plan.wo)


def conv2d_transpose(g: np.ndarray, w: np.ndarray, spec: ConvSpec,
                     w_adj: np.ndarray | None = None) -> np.ndarray:
    """Exact adjoint of conv2d: <conv2d(x,w), g> == <x, conv2d_transpose(g,w)>.

    w_adj is _adjoint_kernel(w) when the caller holds it (the model's entry
    points flip it when they prepare the model); None derives it from w here.
    """
    gb = _as_batch(g, "conv2d_transpose input")
    if gb.shape[1] != spec.out_channels:
        raise ShapeError(
            f"conv2d_transpose input channel axis has extent {gb.shape[1]}, "
            f"spec expects {spec.out_channels}"
        )
    # Adjoint = cross-correlation with the channel-swapped, spatially flipped
    # kernel at padding k-1-p; negative padding means cropping g instead.
    q = spec.kernel - 1 - spec.padding
    if q < 0:
        c = -q
        if gb.shape[2] <= 2 * c or gb.shape[3] <= 2 * c:
            raise ShapeError(
                f"conv2d_transpose input spatial extent {gb.shape[2:]} too small "
                f"for padding {spec.padding} (kernel {spec.kernel})"
            )
        gb = gb[:, :, c:-c, c:-c]
    if w_adj is None:
        w_adj = _adjoint_kernel(w)
    return conv2d(gb, w_adj, _transpose_spec(spec._key))


def _adjoint_kernel(w: np.ndarray) -> np.ndarray:
    """The kernel conv2d_transpose correlates with: w[O, C, k, k] with its
    channel axes swapped and each k x k plane flipped, as a C-ordered
    [C, O, k, k] copy."""
    return np.ascontiguousarray(np.asarray(w).transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])


@lru_cache(maxsize=None)
def _transpose_spec(key: tuple) -> ConvSpec:
    """The geometry conv2d_transpose correlates with for the spec whose _key
    is key: channels swapped, padding k-1-p, or 0 where that is negative and
    g is cropped instead."""
    c, o, k, p = key
    return ConvSpec(o, c, k, max(k - 1 - p, 0))


def conv2d_weight_grad(x: np.ndarray, u: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Gradient of <u, conv2d(x, w)> with respect to w, summed over the batch.

    u must be shaped like the conv2d output for x under spec; an empty batch
    gives zeros of the kernel shape.
    """
    xb = _as_batch(x, "conv2d_weight_grad input")
    ub = _as_batch(u, "conv2d_weight_grad upstream")
    plan = _plan(xb, spec, "conv2d_weight_grad")
    B, C = xb.shape[:2]
    out = (B, spec.out_channels, plan.ho, plan.wo)
    for axis, got, want in zip(("batch", "channel", "height", "width"), ub.shape, out):
        if got != want:
            raise ShapeError(
                f"conv2d_weight_grad upstream {axis} axis has extent {got}, the "
                f"conv2d output for this input has {want}"
            )
    k, n = spec.kernel, plan.run
    u3 = ub.reshape(B, out[1], out[2] * out[3])
    # [n, O, Ho*Wo] @ [n, Ho*Wo, C*k*k]: one dgemm per example, then a sum
    # over the batch axis in index order
    per_example = np.empty((B, out[1], C * k * k))
    for s in range(0, B, n):
        np.matmul(u3[s:s + n], _im2col(xb[s:s + n], plan).transpose(0, 2, 1),
                  out=per_example[s:s + n])
    g = np.add.reduce(per_example, axis=0)
    return g.reshape(out[1], C, k, k)


def maxpool2(x: np.ndarray):
    """2x2 stride-2 max pooling. Returns (pooled, indices).

    indices[n,c,i,j] is the flat row-major index into the [H,W] plane of the
    argmax of window (i,j); ties break toward the lowest flat index, and a
    window holding a NaN pools to NaN and routes to its first NaN.
    """
    xb = _as_batch(x, "maxpool2 input")
    B, C, H, W = xb.shape
    plan = _plan(xb)
    m = np.empty((B, C, H // 2, W // 2))
    idx = np.empty(m.shape, np.int64)
    n = plan.run
    for s in range(0, B, n):
        run = xb[s:s + n]
        _pool_cells(run, plan._scratch(len(run)), m[s:s + n], idx[s:s + n])
    return m, idx


def _pool_cells(xb, views, m, idx):
    """maxpool2 of one run of examples xb [n, C, H, W] through the plan's
    views of its float64 window cells, written into m and idx."""
    B, C, H, W = xb.shape
    cells6, a, b, c, d, abc = views
    # one transposing copy lays each window's cells out as four contiguous
    # float64 planes, in ascending flat-index order
    cells6[...] = xb.reshape(B, C, H // 2, 2, W // 2, 2).transpose(3, 5, 0, 1, 2, 4)
    # np.maximum returns its second operand on a tie, so the earlier cell's
    # bits (-0.0 against 0.0) are kept
    np.maximum(np.maximum(d, c), np.maximum(b, a), out=m)
    # a cell is passed over when it is not the maximum and not a NaN; the
    # route is the first cell not passed over: offset 0, 1, W or W+1. A NaN
    # anywhere makes the sum NaN (np.maximum passes it on to m); without one
    # every cell is <= m, so it is passed over iff it is below m. The first
    # form is exact for any input, so a sum of +inf and -inf may take it too
    total = np.add.reduce(m, axis=None)
    passed = (abc != m) & (abc == abc) if total != total else abc < m
    # na: a is passed over; nab: a and b are; nabc: a, b and c are
    na = passed[0]
    nab = na & passed[1]
    nabc = nab & passed[2]
    np.multiply(nab, W - 1, out=idx)
    idx += _first_cells(H, W)
    idx += na
    idx += nabc


def _even(H: int, W: int) -> None:
    if H % 2 or W % 2:
        raise ShapeError(
            f"maxpool2 needs even spatial extents, got {H}x{W}; pad the input first"
        )


@lru_cache(maxsize=None)
def _first_cells(H: int, W: int) -> np.ndarray:
    """Read-only [H/2, W/2] flat index of each 2x2 window's first cell."""
    cells = np.arange(H * W).reshape(H, W)[0::2, 0::2].copy()
    cells.flags.writeable = False
    return cells


def _route(idx: np.ndarray, plane: int, what: str) -> np.ndarray:
    """Route idx [B, C, h, w] as indices into its B*C stacked planes of `plane`
    cells, each checked to lie in [0, plane), inside its own plane."""
    if idx.dtype != np.int64:
        raise ValueError(f"{what}: pool indices must be int64, got {idx.dtype}")
    rows = idx.reshape(-1, idx.shape[2] * idx.shape[3])
    # one reduction checks both ends: a negative index wraps to above plane
    if rows.size and np.maximum.reduce(rows.view(np.uint64), axis=None) >= plane:
        raise ValueError(
            f"{what}: corrupted pool indices outside [0, {plane}) "
            f"(min {rows.min()}, max {rows.max()})"
        )
    return rows + _plane_offsets(len(rows), plane)


@lru_cache(maxsize=16)
def _plane_offsets(planes: int, plane: int) -> np.ndarray:
    """Read-only [planes, 1] flat offset of each of `planes` stacked planes."""
    offsets = np.arange(0, planes * plane, plane)[:, None]
    offsets.flags.writeable = False
    return offsets


def unpool2(g: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Adjoint of maxpool2 for fixed indices: scatter g to its argmax cells."""
    gb = _as_batch(g, "unpool2 input")
    ib = _as_batch(idx, "unpool2 indices")
    if gb.shape != ib.shape:
        raise ShapeError(f"unpool2: value shape {gb.shape} != index shape {ib.shape}")
    B, C, h, w = gb.shape
    out = np.zeros(B * C * 4 * h * w, dtype=gb.dtype)
    out[_route(ib, 4 * h * w, "unpool2")] = gb.reshape(B * C, h * w)
    return out.reshape(B, C, 2 * h, 2 * w)


def pool_gather(y: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Adjoint of unpool2: gather y at the recorded argmax indices.

    Equivalent to routing y through the pooling pattern that produced idx.
    """
    yb = _as_batch(y, "pool_gather input")
    ib = _as_batch(idx, "pool_gather indices")
    B, C, h, w = ib.shape
    if yb.shape != (B, C, 2 * h, 2 * w):
        raise ShapeError(
            f"pool_gather: index shape {ib.shape} is not the pooled shape of input {yb.shape}"
        )
    return yb.reshape(-1)[_route(ib, 4 * h * w, "pool_gather")].reshape(B, C, h, w)


def hard_clamp(x: np.ndarray) -> np.ndarray:
    """Elementwise min(max(x, 0), 1)."""
    # the method skips np.clip's dispatch wrapper, which costs more than the
    # clip itself on small arrays
    return np.asarray(x).clip(0.0, 1.0)
