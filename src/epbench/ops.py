"""Dense tensor primitives: convolution and pooling with their adjoints, and the clamp.

Tensors are plain row-major numpy arrays of real floats. Spatial convolution
uses the cross-correlation convention (no kernel flip) with stride fixed at 1;
``conv2d_transpose`` is its exact adjoint, and ``unpool2`` is the adjoint of
``maxpool2`` for a fixed set of argmax indices. Every operand carries a
leading batch axis: images and feature maps are [B, C, H, W]; an operand
without it is rejected with ShapeError.

All functions are pure (inputs never mutated) and deterministic. The three
convolution primitives copy the input into a zero-bordered float64 buffer of
the padded shape and copy one strided view of its k x k windows into a column
matrix per example (im2col). They issue one BLAS dgemm per example through a
stacked ``np.matmul``, so an example's output bits depend only on that
example, not on its batch-mates or on the BLAS thread count. That lets the
columns be built for one run of examples at a time, as many as fit
``_RUN_BYTES`` (at least one), with each run multiplied into its rows of a
preallocated output by ``np.matmul(..., out=...)``. The runs fill one column
buffer, a view of a scratch array that each thread keeps between calls, so
held memory is one run's columns rather than the batch's, and repeated calls
do not allocate and free them again. Only a call without a plan (below)
whose batch fits one run builds its padded buffer and columns in one pass,
into fresh arrays. Each example meets the same dgemm with byte-identical
operands whatever the run length or buffer, so no bit moves.
The weight gradient sums the per-example products over the batch in index
order. Results are cast back to the operands' dtype. maxpool2 copies each
window's four cells into four contiguous planes, one run of examples at a
time, through the same scratch array (other dtypes than float64 in fresh
memory), and compares them there. Pooling routes are integer (maxpool2
returns int64) flat indices into each [H, W] plane, checked for dtype, shape
and range before use.

``conv2d``, ``conv2d_transpose`` and ``maxpool2`` take an optional plan
(``_ConvPlan``, ``_PoolPlan``), built once for an operand shape by a caller
that makes the same call step after step: a relaxation or a reverse pass in
``energy``. A conv plan owns the zero-bordered padded buffer and its window
view for one run, which a call without a plan builds again, and takes its
columns (a pool plan its window cells) from the scratch array. A call with a
plan only checks that its operand fits: the same shape past the batch axis,
a batch no larger than the plan's, float64; anything else is refused with
ShapeError. A smaller batch fills the buffers' first rows, so one plan
serves a relaxation across its row compressions.

What depends only on shapes is computed once per shape and cached read-only:
the first cell of each pooling window and the flat offset of each stacked
plane that a route check adds. ``conv2d_transpose`` flips its kernel on every
call unless the caller passes the flipped kernel, as the connection helpers
in ``energy`` do: an entry point of the model flips each kernel the first
time it needs it.
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


def _im2col(xb: np.ndarray, spec: ConvSpec, xp: np.ndarray | None = None,
            cols: np.ndarray | None = None, views: tuple | None = None) -> np.ndarray:
    """[B, C, H, W] -> float64 [B, C*k*k, Ho*Wo]; row (c, a, b) of example n holds
    x_padded[n, c, i+a, j+b] over the output positions (i, j) in row-major order.

    xp and cols, when given, are a run's buffers (_run_buffers' or a plan's)
    with room for at least B examples: the columns are built in cols' first B
    rows, which are returned, and xp's zero border is left as it was. views
    are `_views(xp, cols, spec)` when the caller holds them (a plan does).
    """
    B = len(xb)
    if views is not None:
        fill, win, cols6 = views
        if B < len(fill):  # fewer rows than the plan's run
            fill, win, cols, cols6 = fill[:B], win[:B], cols[:B], cols6[:B]
        fill[...] = xb
        cols6[...] = win
        return cols
    p, k = spec.padding, spec.kernel
    _, C, H, W = xb.shape
    if xp is None:
        xp = np.zeros((B, C, H + 2 * p, W + 2 * p))
    xp[:B, :, p:p + H, p:p + W] = xb
    ho, wo = H + 2 * p - k + 1, W + 2 * p - k + 1
    # [B, C, k, k, Ho, Wo] windows, copied out in C order: a bare reshape can
    # return an overlapping view, which matmul multiplies with other bits
    win = np.ndarray((B, C, k, k, ho, wo), np.float64, xp, 0, xp.strides + xp.strides[2:])
    if cols is None:
        return np.ascontiguousarray(win).reshape(B, C * k * k, ho * wo)
    cols = cols[:B]
    cols.reshape(win.shape)[...] = win
    return cols


def _views(xp: np.ndarray, cols: np.ndarray, spec: ConvSpec) -> tuple:
    """The views of a run's buffers that _im2col copies through: xp's
    interior, its k x k windows (as _im2col builds them) and cols shaped
    like the windows."""
    p, k = spec.padding, spec.kernel
    n, C, Hp, Wp = xp.shape
    win = np.ndarray((n, C, k, k, Hp - k + 1, Wp - k + 1), np.float64, xp, 0,
                     xp.strides + xp.strides[2:])
    return xp[:, :, p:Hp - p, p:Wp - p], win, cols.reshape(win.shape)


# Each thread's scratch array for the runs' buffers, kept between calls and
# grown to the largest run its convolutions and poolings have needed
_scratch = threading.local()


def _scratch_array(size: int) -> np.ndarray:
    """This thread's scratch array, grown to hold at least size elements."""
    buf = getattr(_scratch, "buf", None)
    if buf is None or len(buf) < size:
        buf = _scratch.buf = np.empty(size)
    return buf


def _run_buffers(xb: np.ndarray, spec: ConvSpec, n: int):
    """A zero-filled padded buffer and a column buffer for one run of n
    examples of xb, as views of this thread's scratch array, for _im2col to
    reuse run after run."""
    p, k = spec.padding, spec.kernel
    _, C, H, W = xb.shape
    cols = (n, C * k * k, (H + 2 * p - k + 1) * (W + 2 * p - k + 1))
    padded = (n, C, H + 2 * p, W + 2 * p)
    n_cols = math.prod(cols)
    size = n_cols + math.prod(padded)
    buf = _scratch_array(size)
    xp = buf[n_cols:size].reshape(padded)
    xp.fill(0.0)
    return xp, buf[:n_cols].reshape(cols)


class _Plan:
    """What one op reuses call after call for operands of one shape [B, ...],
    with B at most the batch the plan was built for (its capacity): buffers
    for one run of examples, a smaller batch filling their first rows."""

    capacity: int
    shape: tuple      # the operand's shape past the batch axis
    run: int          # examples per run: at most the capacity
    held: tuple       # the shape of the buffer it keeps in the scratch array
    _ask: int         # the elements it grows the scratch array to hold
    _base = _bufs = None  # the scratch array, and what _scratch hands out of it

    def _fit(self, a: np.ndarray, what: str) -> None:
        """Refuse an operand the plan was not built for: another shape past
        the batch axis, a larger batch, or a dtype other than float64."""
        if a.shape[1:] != self.shape or len(a) > self.capacity or a.dtype != np.float64:
            raise ShapeError(
                f"{what} shape {a.shape} of {a.dtype} does not fit its plan's "
                f"{(self.capacity,) + self.shape} of float64 (a smaller batch fits)"
            )

    def _scratch(self):
        """What the plan holds in this thread's scratch array: `_over` of a
        `held`-shaped view of its head, kept until that array is replaced (it
        grows) or another thread calls. Every call fills the buffer before
        reading it, so the plans and unplanned calls of a thread share that
        memory rather than each holding its own."""
        if self._bufs is None or getattr(_scratch, "buf", None) is not self._base:
            self._base = buf = _scratch_array(self._ask)
            size = math.prod(self.held)
            self._bufs = self._over(buf[:size].reshape(self.held))
        return self._bufs


class _ConvPlan(_Plan):
    """conv2d's buffers for one geometry: a zero-bordered padded buffer and
    its window view, which the plan owns, and a column buffer in the scratch
    array. transpose=True plans the correlation that conv2d_transpose runs
    on a g of the given shape."""

    def __init__(self, shape, spec: ConvSpec, transpose: bool = False):
        B, C, H, W = shape
        if transpose:
            crop = max(spec.padding + 1 - spec.kernel, 0)
            H, W, spec = H - 2 * crop, W - 2 * crop, _transpose_spec(spec)
        if C != spec.in_channels:
            raise ShapeError(f"conv plan: channel axis has extent {C}, spec expects "
                             f"{spec.in_channels}")
        p, k = spec.padding, spec.kernel
        self.spec, self.capacity, self.shape = spec, B, (C, H, W)
        self.kernel = (spec.out_channels, C, k, k)
        self.ho, self.wo = spec.out_extent(H), spec.out_extent(W)
        self.run = min(_RUN_BYTES // (8 * C * k * k * self.ho * self.wo) or 1, B)
        self.xp = np.zeros((self.run, C, H + 2 * p, W + 2 * p))
        self.held = (self.run, C * k * k, self.ho * self.wo)  # the columns
        # what an unplanned call of this geometry asks (_run_buffers), so that
        # the scratch array settles at one size whichever kind of call runs
        # first, rather than regrowing as unplanned calls follow
        self._ask = math.prod(self.held) + self.xp.size

    def _over(self, cols):
        """_im2col's buffers and views: (xp, cols, views)."""
        return self.xp, cols, _views(self.xp, cols, self.spec)


class _PoolPlan(_Plan):
    """maxpool2's window-cell buffer in the scratch array (_pool_cells)."""

    def __init__(self, shape):
        B, C, H, W = shape
        _even(H, W)
        self.capacity, self.shape = B, (C, H, W)
        self.run = min(_pool_run(C, H, W), B)
        self.held = (4, self.run, C, H // 2, W // 2)  # the window cells
        self._ask = math.prod(self.held)

    def _over(self, cells):
        return cells, _pool_views(cells)


def conv2d(x: np.ndarray, w: np.ndarray, spec: ConvSpec, plan: _ConvPlan | None = None
           ) -> np.ndarray:
    """Cross-correlate x[B,C_in,H,W] with w[C_out,C_in,k,k].

    y[n,o,i,j] = sum_{c,a,b} w[o,c,a,b] * x_padded[n,c,i+a,j+b]

    plan, when given, was built for x's shape and spec (a _ConvPlan): x and w
    are only checked to fit it, and its buffers are filled instead of fresh
    or scratch ones, with the same bits.
    """
    xb = _as_batch(x, "conv2d input")
    w = np.asarray(w)
    if plan is not None:
        plan._fit(xb, "conv2d input")
        if w.shape != plan.kernel or (spec is not plan.spec and spec != plan.spec):
            raise ShapeError(f"conv2d kernel shape {w.shape} under {spec} does not fit "
                             f"its plan's {plan.kernel} under {plan.spec}")
        ho, wo = plan.ho, plan.wo
    else:
        if w.ndim != 4:
            raise ShapeError(f"conv2d kernel: expected rank 4, got rank {w.ndim}")
        if w.shape != (spec.out_channels, spec.in_channels, spec.kernel, spec.kernel):
            raise ShapeError(
                f"conv2d kernel shape {w.shape} does not match spec "
                f"({spec.out_channels},{spec.in_channels},{spec.kernel},{spec.kernel})"
            )
        if xb.shape[1] != spec.in_channels:
            raise ShapeError(
                f"conv2d input channel axis has extent {xb.shape[1]}, spec expects "
                f"{spec.in_channels}"
            )
        ho, wo = spec.out_extent(xb.shape[2]), spec.out_extent(xb.shape[3])
    w2 = w.reshape(spec.out_channels, -1).astype(np.float64, copy=False)
    B = xb.shape[0]
    n = plan.run if plan is not None else _RUN_BYTES // (8 * w2.shape[1] * ho * wo) or 1
    # [O, C*k*k] @ [B, C*k*k, Ho*Wo]: one dgemm per example
    if n >= B:
        cols = _im2col(xb, spec) if plan is None else _im2col(xb, spec, *plan._scratch())
        y = np.matmul(w2, cols)
    else:
        y = np.empty((B, spec.out_channels, ho * wo))
        bufs = _run_buffers(xb, spec, n) if plan is None else plan._scratch()
        for s in range(0, B, n):
            np.matmul(w2, _im2col(xb[s:s + n], spec, *bufs), out=y[s:s + n])
    y = y.reshape(B, spec.out_channels, ho, wo)
    # a plan's operand is float64, which every real kernel dtype promotes to
    return y if plan is not None else y.astype(np.promote_types(xb.dtype, w.dtype), copy=False)


def conv2d_transpose(g: np.ndarray, w: np.ndarray, spec: ConvSpec,
                     w_adj: np.ndarray | None = None, plan: _ConvPlan | None = None
                     ) -> np.ndarray:
    """Exact adjoint of conv2d: <conv2d(x,w), g> == <x, conv2d_transpose(g,w)>.

    w_adj is _adjoint_kernel(w) when the caller holds it (the model's entry
    points prepare it at its first use); None derives it from w here. plan,
    when given, is _ConvPlan(g's shape, spec, transpose=True), and conv2d
    fills its buffers.
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
    return conv2d(gb, w_adj, _transpose_spec(spec), plan)


def _adjoint_kernel(w: np.ndarray) -> np.ndarray:
    """The kernel conv2d_transpose correlates with: w[O, C, k, k] with its
    channel axes swapped and each k x k plane flipped, as a C-ordered
    [C, O, k, k] copy."""
    return np.ascontiguousarray(np.asarray(w).transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])


@lru_cache(maxsize=None)
def _transpose_spec(spec: ConvSpec) -> ConvSpec:
    """The geometry conv2d_transpose correlates with: channels swapped,
    padding k-1-p, or 0 where that is negative and g is cropped instead."""
    return ConvSpec(spec.out_channels, spec.in_channels, spec.kernel,
                    max(spec.kernel - 1 - spec.padding, 0))


def conv2d_weight_grad(x: np.ndarray, u: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Gradient of <u, conv2d(x, w)> with respect to w, summed over the batch.

    u must be shaped like the conv2d output for x under spec; an empty batch
    gives zeros of the kernel shape.
    """
    xb = _as_batch(x, "conv2d_weight_grad input")
    ub = _as_batch(u, "conv2d_weight_grad upstream")
    B, C, H, W = xb.shape
    if C != spec.in_channels:
        raise ShapeError(
            f"conv2d_weight_grad input channel axis has extent {C}, spec expects "
            f"{spec.in_channels}"
        )
    out = (B, spec.out_channels, spec.out_extent(H), spec.out_extent(W))
    for axis, got, want in zip(("batch", "channel", "height", "width"), ub.shape, out):
        if got != want:
            raise ShapeError(
                f"conv2d_weight_grad upstream {axis} axis has extent {got}, the "
                f"conv2d output for this input has {want}"
            )
    k = spec.kernel
    u3 = ub.reshape(B, out[1], out[2] * out[3]).astype(np.float64, copy=False)
    n = _RUN_BYTES // (8 * C * k * k * out[2] * out[3]) or 1
    # [B, O, Ho*Wo] @ [B, Ho*Wo, C*k*k]: one dgemm per example, then a sum
    # over the batch axis in index order
    if n >= B:
        per_example = np.matmul(u3, _im2col(xb, spec).transpose(0, 2, 1))
    else:
        per_example = np.empty((B, out[1], C * k * k))
        xp, cols = _run_buffers(xb, spec, n)
        for s in range(0, B, n):
            np.matmul(u3[s:s + n], _im2col(xb[s:s + n], spec, xp, cols).transpose(0, 2, 1),
                      out=per_example[s:s + n])
    g = np.add.reduce(per_example, axis=0)
    return g.reshape(out[1], C, k, k).astype(np.result_type(x, u), copy=False)


def maxpool2(x: np.ndarray, plan: _PoolPlan | None = None):
    """2x2 stride-2 max pooling. Returns (pooled, indices).

    indices[n,c,i,j] is the flat row-major index into the [H,W] plane of the
    argmax of window (i,j); ties break toward the lowest flat index, and a
    window holding a NaN pools to NaN and routes to its first NaN. plan, when
    given, was built for x's shape (a _PoolPlan): x is only checked to fit
    it.
    """
    xb = _as_batch(x, "maxpool2 input")
    B, C, H, W = xb.shape
    views = None
    if plan is not None:
        plan._fit(xb, "maxpool2 input")
        n = plan.run
        cells, views = plan._scratch()
    else:
        _even(H, W)
        n = min(_pool_run(C, H, W), B)
        shape = (4, n, C, H // 2, W // 2)
        if xb.dtype == np.float64:
            size = math.prod(shape)
            cells = _scratch_array(size)[:size].reshape(shape)
        else:
            cells = np.empty(shape, xb.dtype)
    if n >= B:
        return _pool_cells(xb, cells, views)
    m = np.empty((B, C, H // 2, W // 2), xb.dtype)
    idx = np.empty(m.shape, np.int64)
    for s in range(0, B, n):
        _pool_cells(xb[s:s + n], cells, views, m[s:s + n], idx[s:s + n])
    return m, idx


def _pool_run(C: int, H: int, W: int) -> int:
    """Examples per run of maxpool2's window cells: as many as _RUN_BYTES
    holds at float64, at least one."""
    return _RUN_BYTES // (8 * C * H * W or 1) or 1


def _pool_cells(xb, cells, views=None, m=None, idx=None):
    """maxpool2 of one run of examples xb [B, C, H, W] through cells, a
    [4, >= B, C, H/2, W/2] buffer of xb's dtype, and its _pool_views when the
    caller holds them (a plan does): (m, idx), written into the given arrays
    or new ones."""
    B, C, H, W = xb.shape
    if views is None or B < cells.shape[1]:
        views = _pool_views(cells[:, :B])
    cells6, a, b, c, d, abc = views
    # one transposing copy lays each window's cells out as four contiguous
    # planes, in ascending flat-index order; copying moves no bit
    cells6[...] = xb.reshape(B, C, H // 2, 2, W // 2, 2).transpose(3, 5, 0, 1, 2, 4)
    # np.maximum returns its second operand on a tie, so the earlier cell's
    # bits (-0.0 against 0.0) are kept
    m = np.maximum(np.maximum(d, c), np.maximum(b, a), out=m)
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
    idx = np.multiply(nab, W - 1, out=idx)
    idx += _first_cells(H, W)
    idx += na
    idx += nabc
    return m, idx


def _pool_views(cells: np.ndarray) -> tuple:
    """The views of window cells [4, n, C, h, w] that _pool_cells works
    through: the cells as [2, 2, n, C, h, w] (row offset, column offset), each
    cell's plane, and the first three planes."""
    return (cells.reshape((2, 2) + cells.shape[1:]), cells[0], cells[1], cells[2], cells[3],
            cells[:3])


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
    if idx.dtype.kind not in "iu":
        raise ValueError(f"{what}: pool indices must be integers, got {idx.dtype}")
    rows = idx.reshape(-1, idx.shape[2] * idx.shape[3]).astype(np.int64, copy=False)
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
