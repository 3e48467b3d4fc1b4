"""Tensor primitive oracles: brute-force references, adjoint identities,
linearity, determinism, the conv geometry's checks, and the convolutions'
runs of examples: bits that do not depend on the run length, buffers reused
run after run and call after call, and held memory bounded by one run. The
plans each thread keeps by operand geometry change no bit, serve no operand
of another geometry or a larger batch, and stay within their bound."""

import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from epbench import ops, unrolled
from epbench.checkpoint import load_checkpoint
from epbench.model import ModelSpec, init_params
from epbench.ops import ConvSpec, ShapeError

DESK_CKPT = Path(__file__).resolve().parents[1] / "perfbench" / "desk_ep.ckpt"


def _fresh_plans(monkeypatch):
    """Give this thread a new scratch array and no plans."""
    monkeypatch.setattr(ops, "_scratch", threading.local())


def _budget(monkeypatch, run_bytes):
    """Set _RUN_BYTES for the plans built from here on: the plans built
    under the old budget are dropped."""
    monkeypatch.setattr(ops, "_RUN_BYTES", run_bytes)
    _fresh_plans(monkeypatch)


def conv2d_reference(x, w, padding):
    """Direct sextuple-loop cross-correlation."""
    co, ci, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    H = xp.shape[1] - k + 1
    W = xp.shape[2] - k + 1
    y = np.zeros((co, H, W))
    for o in range(co):
        for i in range(H):
            for j in range(W):
                acc = 0.0
                for c in range(ci):
                    for a in range(k):
                        for b in range(k):
                            acc += w[o, c, a, b] * xp[c, i + a, j + b]
                y[o, i, j] = acc
    return y


def im2col_reference(x, k, padding):
    """Columns of the np.pad-ded float64 input: row (c, a, b) of example n holds
    x_padded[n, c, i+a, j+b] over the output positions (i, j)."""
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    B, C, H, W = xp.shape
    ho, wo = H - k + 1, W - k + 1
    cols = np.empty((B, C * k * k, ho * wo))
    for c in range(C):
        for a in range(k):
            for b in range(k):
                cols[:, (c * k + a) * k + b] = xp[:, c, a:a + ho, b:b + wo].reshape(B, -1)
    return cols


def maxpool_oracle(x):
    """np.stack + argmax over each window's cells in flat-index order: the
    first maximum wins, and a NaN counts as the maximum."""
    B, C, H, W = x.shape
    cand = np.stack([x[:, :, 0::2, 0::2], x[:, :, 0::2, 1::2],
                     x[:, :, 1::2, 0::2], x[:, :, 1::2, 1::2]], axis=-1)
    slot = np.argmax(cand, axis=-1)
    pooled = np.take_along_axis(cand, slot[..., None], axis=-1)[..., 0]
    rows = np.arange(0, H, 2)[:, None] + slot // 2
    cols = np.arange(0, W, 2)[None, :] + slot % 2
    return pooled, rows * W + cols


class TestIm2col:
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    # one channel of 3x2 at k = 2: the windows span whole padded rows, so the
    # column matrix could alias the padded buffer; it must still be a C-order copy
    @pytest.mark.parametrize("shape", [(3, 2, 5, 6), (2, 1, 3, 2)])
    def test_matches_pad_reference(self, padding, dtype, shape):
        rng = np.random.default_rng(20 + padding)
        for k in range(1, min(shape[2:]) + 2 * padding + 1):
            x = rng.standard_normal(shape).astype(dtype)
            x0 = x.copy()
            plan = ops._ConvPlan(x.shape, ConvSpec(shape[1], 1, k, padding), "conv2d")
            cols = ops._im2col(x, plan)
            ref = im2col_reference(x, k, padding)
            assert cols.dtype == np.float64 and cols.flags.c_contiguous
            assert cols.tobytes() == ref.tobytes()
            assert x.tobytes() == x0.tobytes()


class TestConv2d:
    def test_identity_kernel(self):
        x = np.ones((1, 3, 3))[None]
        w = np.ones((1, 1, 1, 1))
        y = ops.conv2d(x, w, ConvSpec(1, 1, 1, 0))
        assert np.array_equal(y, x)

    def test_sum_kernel(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])[None]
        w = np.ones((1, 1, 2, 2))
        y = ops.conv2d(x, w, ConvSpec(1, 1, 2, 0))[0]
        assert y.shape == (1, 1, 1)
        assert y[0, 0, 0] == 10.0

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 8, 8))
        w = rng.standard_normal((4, 2, 3, 3))
        y = ops.conv2d(x[None], w, ConvSpec(2, 4, 3, 1))[0]
        ref = conv2d_reference(x, w, 1)
        assert np.max(np.abs(y - ref)) < 1e-6

    @pytest.mark.parametrize("padding", [0, 2])
    def test_matches_loop_reference_at_padding(self, padding):
        rng = np.random.default_rng(30 + padding)
        x = rng.standard_normal((2, 5, 7))
        w = rng.standard_normal((3, 2, 3, 3))
        y = ops.conv2d(x[None], w, ConvSpec(2, 3, 3, padding))[0]
        assert y.shape == (3, 5 + 2 * padding - 2, 7 + 2 * padding - 2)
        assert np.max(np.abs(y - conv2d_reference(x, w, padding))) < 1e-12

    @pytest.mark.parametrize("dtype", [np.float32, np.int8, np.uint8, np.int32])
    def test_other_dtypes_give_the_float64_result(self, dtype):
        # operands of another dtype give the bytes of their float64 cast
        rng = np.random.default_rng(32)
        spec = ConvSpec(2, 3, 3, 1)
        x, w, u = (np.clip(rng.standard_normal(shape) * 20, 0, 100).astype(dtype)
                   for shape in ((4, 2, 6, 6), (3, 2, 3, 3), (4, 3, 6, 6)))
        x64, w64, u64 = (a.astype(np.float64) for a in (x, w, u))
        for got, want in ((ops.conv2d(x, w, spec), ops.conv2d(x64, w64, spec)),
                          (ops.conv2d_transpose(u, w, spec),
                           ops.conv2d_transpose(u64, w64, spec)),
                          (ops.conv2d_weight_grad(x, u, spec),
                           ops.conv2d_weight_grad(x64, u64, spec))):
            assert got.dtype == np.float64
            assert got.tobytes() == want.tobytes()

    def test_non_contiguous_input_matches_its_copy(self):
        rng = np.random.default_rng(33)
        spec = ConvSpec(3, 4, 3, 1)
        x = rng.standard_normal((2, 3, 6, 6))
        w = rng.standard_normal((4, 3, 3, 3))
        u = rng.standard_normal((2, 4, 6, 6))
        for view in (x[:, :, ::-1, :], x.transpose(0, 1, 3, 2), x[::-1]):
            x0 = view.copy()
            copy = np.ascontiguousarray(view)
            assert ops.conv2d(view, w, spec).tobytes() == ops.conv2d(copy, w, spec).tobytes()
            assert (ops.conv2d_weight_grad(view, u, spec).tobytes()
                    == ops.conv2d_weight_grad(copy, u, spec).tobytes())
            assert np.array_equal(view, x0)
        g = u[:, :, ::-1, ::-1]
        assert (ops.conv2d_transpose(g, w, spec).tobytes()
                == ops.conv2d_transpose(np.ascontiguousarray(g), w, spec).tobytes())

    def test_linearity_in_input(self):
        rng = np.random.default_rng(1)
        spec = ConvSpec(2, 3, 3, 1)
        w = rng.standard_normal((3, 2, 3, 3))
        x1 = rng.standard_normal((2, 6, 6))[None]
        x2 = rng.standard_normal((2, 6, 6))[None]
        left = ops.conv2d(2.0 * x1 - 0.5 * x2, w, spec)
        right = 2.0 * ops.conv2d(x1, w, spec) - 0.5 * ops.conv2d(x2, w, spec)
        assert np.max(np.abs(left - right)) < 1e-5

    def test_linearity_in_kernel(self):
        rng = np.random.default_rng(11)
        spec = ConvSpec(2, 3, 3, 1)
        x = rng.standard_normal((2, 6, 6))[None]
        w1 = rng.standard_normal((3, 2, 3, 3))
        w2 = rng.standard_normal((3, 2, 3, 3))
        left = ops.conv2d(x, 1.5 * w1 + 0.25 * w2, spec)
        right = 1.5 * ops.conv2d(x, w1, spec) + 0.25 * ops.conv2d(x, w2, spec)
        assert np.max(np.abs(left - right)) < 1e-5

    def test_shape_errors_name_axis(self):
        spec = ConvSpec(2, 3, 3, 1)
        w = np.zeros((3, 2, 3, 3))
        with pytest.raises(ShapeError, match="channel"):
            ops.conv2d(np.zeros((1, 6, 6))[None], w, spec)
        with pytest.raises(ShapeError, match="kernel"):
            ops.conv2d(np.zeros((2, 6, 6))[None], np.zeros((3, 2, 2, 2)), spec)

    def test_pure_and_deterministic(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 6, 6))[None]
        w = rng.standard_normal((3, 2, 3, 3))
        x0 = x.copy()
        a = ops.conv2d(x, w, ConvSpec(2, 3, 3, 1))
        b = ops.conv2d(x, w, ConvSpec(2, 3, 3, 1))
        assert np.array_equal(a, b)
        assert np.array_equal(x, x0)
        # mid shape, large enough for BLAS to split one example's product
        # across threads: each row of the batch equals its solo call, bitwise
        spec = ConvSpec(32, 64, 3, 1)
        x = rng.uniform(0, 1, (8, 32, 16, 16))
        w = rng.standard_normal((64, 32, 3, 3)) * 0.1
        y = ops.conv2d(x, w, spec)
        g = ops.conv2d_transpose(y, w, spec)
        for i in range(len(x)):
            assert np.array_equal(ops.conv2d(x[i:i + 1], w, spec)[0], y[i])
            assert np.array_equal(ops.conv2d_transpose(y[i:i + 1], w, spec)[0], g[i])


class TestConv2dTranspose:
    def test_zeros(self):
        spec = ConvSpec(2, 3, 3, 1)
        w = np.random.default_rng(0).standard_normal((3, 2, 3, 3))
        g = np.zeros((3, 6, 6))[None]
        assert np.count_nonzero(ops.conv2d_transpose(g, w, spec)) == 0

    def test_scalar_kernel_adjoint(self):
        spec = ConvSpec(1, 1, 1, 0)
        w = np.full((1, 1, 1, 1), 2.0)
        g = np.random.default_rng(0).standard_normal((1, 4, 4))[None]
        assert np.allclose(ops.conv2d_transpose(g, w, spec), 2.0 * g)

    def test_adjoint_identity_100_draws(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            ci, co = int(rng.integers(1, 4)), int(rng.integers(1, 5))
            k = int(rng.integers(1, 4))
            p = int(rng.integers(0, 3))
            H = int(rng.integers(max(k, 2 * p + 1), 9))
            spec = ConvSpec(ci, co, k, p)
            x = rng.standard_normal((ci, H, H))[None]
            w = rng.standard_normal((co, ci, k, k))
            y = ops.conv2d(x, w, spec)
            g = rng.standard_normal(y.shape)
            lhs = np.vdot(y, g)
            rhs = np.vdot(x, ops.conv2d_transpose(g, w, spec))
            assert abs(lhs - rhs) <= 1e-5 * max(1.0, abs(lhs))


class TestConv2dWeightGrad:
    def test_adjoint_identity_in_kernel(self):
        # <conv2d_weight_grad(x, u), v> == <u, conv2d(x, v)>
        rng = np.random.default_rng(12)
        for p in (0, 1):
            for _ in range(50):
                ci, co = int(rng.integers(1, 4)), int(rng.integers(1, 5))
                k = int(rng.integers(1, 4))
                B = int(rng.integers(2, 5))
                H = int(rng.integers(max(k, 2 * p + 1), 9))
                spec = ConvSpec(ci, co, k, p)
                x = rng.standard_normal((B, ci, H, H))
                v = rng.standard_normal((co, ci, k, k))
                y = ops.conv2d(x, v, spec)
                u = rng.standard_normal(y.shape)
                lhs = np.vdot(ops.conv2d_weight_grad(x, u, spec), v)
                rhs = np.vdot(u, y)
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    @pytest.mark.parametrize("ci, co, H, B", [(2, 3, 6, 5), (32, 64, 16, 8)])
    def test_batch_is_index_ordered_sum_of_examples(self, ci, co, H, B):
        rng = np.random.default_rng(13)
        spec = ConvSpec(ci, co, 3, 1)
        x = rng.uniform(0, 1, (B, ci, H, H))
        u = rng.standard_normal((B, co, H, H))
        total = ops.conv2d_weight_grad(x[:1], u[:1], spec)
        for i in range(1, B):
            total = total + ops.conv2d_weight_grad(x[i:i + 1], u[i:i + 1], spec)
        assert np.array_equal(ops.conv2d_weight_grad(x, u, spec), total)

    def test_batch_axes_must_agree(self):
        with pytest.raises(ShapeError, match="batch"):
            ops.conv2d_weight_grad(np.zeros((2, 1, 4, 4)), np.zeros((3, 1, 4, 4)),
                                   ConvSpec(1, 1, 1, 0))

    @pytest.mark.parametrize("x_shape, u_shape, match", [
        ((2, 1, 8, 8), (2, 5, 8, 8), "upstream channel axis has extent 5"),
        ((2, 3, 8, 8), (2, 4, 8, 8), "input channel axis has extent 3"),
        ((2, 1, 8, 8), (2, 4, 7, 7), "upstream height axis has extent 7"),
    ], ids=["upstream channels", "input channels", "upstream extent"])
    def test_operands_must_fit_the_spec(self, x_shape, u_shape, match):
        with pytest.raises(ShapeError, match=match):
            ops.conv2d_weight_grad(np.zeros(x_shape), np.zeros(u_shape),
                                   ConvSpec(1, 4, 3, 1))

    def test_empty_batch_gives_zeros_of_the_kernel_shape(self):
        g = ops.conv2d_weight_grad(np.zeros((0, 2, 8, 8)), np.zeros((0, 4, 8, 8)),
                                   ConvSpec(2, 4, 3, 1))
        assert g.shape == (4, 2, 3, 3) and g.dtype == np.float64
        assert not g.any()


class TestConvSpec:
    @pytest.mark.parametrize("fields, match", [
        ((1.0, 4, 3, 1), "in_channels must be an integer, got 1.0"),
        ((1, 4.0, 3, 1), "out_channels must be an integer, got 4.0"),
        ((1, 4, 3.0, 1), "kernel must be an integer, got 3.0"),
        ((1, 4, 3, 1.0), "padding must be an integer, got 1.0"),
        ((1, 4, True, 1), "kernel must be an integer, got True"),
        ((1, 4, 3, False), "padding must be an integer, got False"),
        ((1, 4, np.int64(3), 1), "kernel must be an integer"),
        ((1, 4, "3", 1), "kernel must be an integer, got '3'"),
        ((1, 4, 0, 1), "kernel must be >= 1"),
        ((1, 4, 3, -1), "padding must be >= 0"),
        ((0, 4, 3, 1), "channel counts must be >= 1"),
    ], ids=["float in_channels", "float out_channels", "float kernel", "float padding",
            "bool kernel", "bool padding", "numpy kernel", "string kernel", "zero kernel",
            "negative padding", "zero channels"])
    def test_rejects_bad_geometry_naming_the_field(self, fields, match):
        with pytest.raises(ValueError, match=match):
            ConvSpec(*fields)


def _run_bytes(case, spec, shape):
    """_RUN_BYTES values that split the batch of `case` into one example per
    run, runs of two (ragged when B is odd), and one run for the whole batch."""
    B, C, H, W = shape
    k, p = spec.kernel, spec.padding
    if case == "transpose":
        # the adjoint correlates the [B, O, Ho, Wo] input back to [B, C, H, W]
        per_example = 8 * spec.out_channels * k * k * H * W
    else:
        per_example = 8 * C * k * k * (H + 2 * p - k + 1) * (W + 2 * p - k + 1)
    return 1, 2 * per_example, max(B, 1) * per_example


class TestRuns:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("B", [0, 1, 5])
    def test_run_length_moves_no_bit(self, monkeypatch, B, padding, k, dtype):
        rng = np.random.default_rng(40 + B + 3 * padding + k)
        spec = ConvSpec(3, 4, k, padding)
        x = rng.standard_normal((B, 3, 6, 7)).astype(dtype)
        w = rng.standard_normal((4, 3, k, k)).astype(dtype)
        u = rng.standard_normal((B, 4, 6 + 2 * padding - k + 1, 7 + 2 * padding - k + 1)
                                ).astype(dtype)
        calls = {
            "conv2d": lambda: ops.conv2d(x, w, spec),
            "transpose": lambda: ops.conv2d_transpose(u, w, spec),
            "weight_grad": lambda: ops.conv2d_weight_grad(x, u, spec),
        }
        for case, call in calls.items():
            outs = []
            for budget in _run_bytes(case, spec, x.shape):
                _budget(monkeypatch, budget)
                outs.append(call())
            assert all(o.dtype == np.float64 and o.shape == outs[0].shape for o in outs)
            assert len({o.tobytes() for o in outs}) == 1, case

    def test_runs_reuse_one_pair_of_buffers(self, monkeypatch):
        rng = np.random.default_rng(44)
        spec = ConvSpec(2, 3, 3, 1)
        x = rng.standard_normal((5, 2, 6, 6))
        w = rng.standard_normal((3, 2, 3, 3))
        u = rng.standard_normal((5, 3, 6, 6))
        seen = []
        im2col = ops._im2col

        def counted(xb, plan):
            cols = im2col(xb, plan)
            seen.append((len(xb), plan, cols))
            return cols

        monkeypatch.setattr(ops, "_im2col", counted)
        _fresh_plans(monkeypatch)
        one_run = ops.conv2d(x, w, spec), ops.conv2d_weight_grad(x, u, spec)
        # a batch that fits one run is a loop of one, and both ops read x
        # through the plan of its geometry
        assert [n for n, _, _ in seen] == [5, 5] and seen[0][1] is seen[1][1]
        seen.clear()
        _budget(monkeypatch, 2 * 8 * 2 * 9 * 36)
        runs = ops.conv2d(x, w, spec), ops.conv2d_weight_grad(x, u, spec)
        assert [n for n, _, _ in seen] == [2, 2, 1, 2, 2, 1]
        # the runs of both calls fill one plan's padded buffer and one column
        # buffer: the head of the thread's scratch array
        assert all(plan is seen[0][1] for _, plan, _ in seen)
        assert all(cols.ctypes.data == ops._scratch.buf.ctypes.data for _, _, cols in seen)
        assert [a.tobytes() for a in runs] == [a.tobytes() for a in one_run]

    def test_threads_keep_their_own_scratch(self, monkeypatch):
        # more threads than cores, switching often: BLAS and the column copy
        # release the interpreter lock mid-call, so a shared scratch array
        # would mix one thread's columns into another's product
        _budget(monkeypatch, 2 * 8 * 2 * 9 * 36)
        rng = np.random.default_rng(48)
        spec = ConvSpec(2, 3, 3, 1)
        xs = rng.standard_normal((6, 5, 2, 6, 6))
        us = rng.standard_normal((6, 5, 3, 6, 6))
        w = rng.standard_normal((3, 2, 3, 3))

        def both(i):
            return (ops.conv2d(xs[i], w, spec).tobytes()
                    + ops.conv2d_weight_grad(xs[i], us[i], spec).tobytes())

        want = [both(i) for i in range(len(xs))]
        bad = []

        def work(i):
            for _ in range(40):
                if both(i) != want[i]:
                    bad.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(xs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert bad == []

    def test_held_memory_is_one_run_plus_the_output(self, monkeypatch):
        # train-mid's transposed 64 -> 32 conv at B = 32: the whole batch's
        # columns would take 32 x 1.18 MB. A fresh scratch makes the call
        # build its plan and allocate its run buffers, so the peak counts them
        _fresh_plans(monkeypatch)
        spec = ConvSpec(32, 64, 3, 1)
        rng = np.random.default_rng(45)
        g = rng.standard_normal((32, 64, 16, 16))
        w = rng.standard_normal((64, 32, 3, 3))
        w_adj = ops._adjoint_kernel(w)
        per_example = 8 * 64 * 9 * 16 * 16
        n = max(ops._RUN_BYTES // per_example, 1)
        run = n * per_example + n * 8 * 64 * 18 * 18
        output = 8 * 32 * 32 * 16 * 16
        assert 32 * per_example > 4 * (run + output)
        tracemalloc.start()
        try:
            y = ops.conv2d_transpose(g, w, spec, w_adj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert y.shape == (32, 32, 16, 16)
        assert peak < run + output + (64 << 10)

    def test_unrolled_batch_spanning_runs_equals_its_examples(self):
        # desk conv 0's columns take 8 x 9 x 64 B per example, so 300
        # examples span several runs of it and of the transposed convs
        ckpt = load_checkpoint(DESK_CKPT)
        spec, params = ckpt.spec, ckpt.params
        x = np.random.default_rng(46).uniform(0, 1, (300,) + spec.input_shape)
        assert len(x) > ops._RUN_BYTES // (8 * 9 * 64)
        g_logits = np.random.default_rng(47).standard_normal((300, spec.readout_dim))
        logits, vjp = unrolled.logits_and_vjp(x, params, spec, 30)
        grad = vjp(g_logits)
        for i in range(len(x)):
            solo, solo_vjp = unrolled.logits_and_vjp(x[i:i + 1], params, spec, 30)
            assert solo.tobytes() == logits[i:i + 1].tobytes()
            assert solo_vjp(g_logits[i:i + 1]).tobytes() == grad[i:i + 1].tobytes()


class TestMaxPool:
    def test_constant_input_tie_break(self):
        x = np.full((1, 4, 4), 7.0)[None]
        pooled, idx = ops.maxpool2(x)
        assert np.all(pooled == 7.0)
        # first cell of each window, in flat [H,W] coordinates
        assert np.array_equal(idx[0, 0], np.array([[0, 2], [8, 10]]))

    def test_single_window(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])[None]
        pooled, idx = ops.maxpool2(x)
        assert pooled[0, 0, 0, 0] == 4.0
        assert idx[0, 0, 0, 0] == 3  # (1,1) flat

    def test_matches_window_loop(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 8, 8))
        pooled, idx = ops.maxpool2(x[None])
        pooled, idx = pooled[0], idx[0]
        for c in range(3):
            for i in range(4):
                for j in range(4):
                    win = x[c, 2 * i:2 * i + 2, 2 * j:2 * j + 2]
                    assert pooled[c, i, j] == win.max()
                    r, s = divmod(int(idx[c, i, j]), 8)
                    assert x[c, r, s] == win.max()
                    assert 2 * i <= r < 2 * i + 2 and 2 * j <= s < 2 * j + 2

    def test_indices_inside_own_window(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            C = int(rng.integers(1, 4))
            H = 2 * int(rng.integers(1, 5))
            x = rng.standard_normal((C, H, H))[None]
            _, idx = ops.maxpool2(x)
            idx = idx[0]
            for c in range(C):
                for i in range(H // 2):
                    for j in range(H // 2):
                        r, s = divmod(int(idx[c, i, j]), H)
                        assert r // 2 == i and s // 2 == j

    def test_odd_extent_rejected(self):
        with pytest.raises(ShapeError, match="pad"):
            ops.maxpool2(np.zeros((1, 3, 4))[None])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(2, 3, 6, 8), (1, 5, 4, 4), (3, 1, 2, 2), (2, 7, 8, 2)])
    def test_matches_argmax_oracle(self, dtype, shape):
        rng = np.random.default_rng(sum(shape))
        # values rounded to thirds: many ties within a window, +0.0 against -0.0 among them
        ties = np.round(rng.standard_normal(shape) * 3) / 3
        nans = rng.standard_normal(shape)
        nans[rng.random(shape) < 0.3] = np.nan
        for x in (ties.astype(dtype), nans.astype(dtype)):
            x0 = x.copy()
            pooled, idx = ops.maxpool2(x)
            ref_pooled, ref_idx = maxpool_oracle(x)
            assert pooled.dtype == np.float64 and idx.dtype == np.int64
            assert pooled.tobytes() == ref_pooled.astype(np.float64).tobytes()
            assert np.array_equal(idx, ref_idx)
            assert x.tobytes() == x0.tobytes()

    def test_nan_and_signed_zero_windows(self):
        # NaN routes to the first NaN; among tied zeros the first one's sign is kept
        for win, first in (([[1.0, np.nan], [np.nan, 4.0]], 1),
                           ([[np.nan, 5.0], [np.nan, 1.0]], 0),
                           ([[2.0, 3.0], [7.0, np.nan]], 3),
                           ([[-0.0, 0.0], [0.0, 0.0]], 0),
                           ([[0.0, -0.0], [-0.0, -0.0]], 0),
                           ([[-1.0, -0.0], [0.0, 0.0]], 1)):
            x = np.array(win)[None, None]
            pooled, idx = ops.maxpool2(x)
            assert idx[0, 0, 0, 0] == first
            assert pooled.tobytes() == x[0, 0].flat[first:first + 1].tobytes()

    def test_tie_break_reproducible(self):
        x = np.zeros((1, 4, 4))[None]
        _, a = ops.maxpool2(x)
        _, b = ops.maxpool2(x)
        assert np.array_equal(a, b)


class TestUnpool:
    def test_zeros(self):
        _, idx = ops.maxpool2(np.random.default_rng(0).standard_normal((2, 4, 4))[None])
        out = ops.unpool2(np.zeros((2, 2, 2))[None], idx)
        assert np.count_nonzero(out) == 0

    def test_single_window_scatter(self):
        x = np.array([[[0.0, 0.0], [9.0, 0.0]]])[None]
        _, idx = ops.maxpool2(x)
        out = ops.unpool2(np.array([[[5.0]]])[None], idx)[0]
        assert np.array_equal(out, np.array([[[0.0, 0.0], [5.0, 0.0]]]))

    def test_adjoint_with_pooling_indices(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            C = int(rng.integers(1, 4))
            H = 2 * int(rng.integers(1, 5))
            x = rng.standard_normal((C, H, H))[None]
            pooled, idx = ops.maxpool2(x)
            g = rng.standard_normal(pooled.shape)
            lhs = np.vdot(pooled, g)
            rhs = np.vdot(x, ops.unpool2(g, idx))
            assert abs(lhs - rhs) <= 1e-5 * max(1.0, abs(lhs))

    def test_corrupted_indices_rejected(self):
        g = np.ones((1, 2, 2))[None]
        idx = np.zeros((1, 2, 2), dtype=int)[None]
        idx[0, 0, 0, 0] = 99
        with pytest.raises(ValueError, match="corrupt"):
            ops.unpool2(g, idx)

    def test_pool_gather_rejects_corrupted_indices(self):
        y = np.arange(16.0).reshape(1, 1, 4, 4)
        for bad in (-1, 16):
            idx = np.array([[0, 2], [8, 10]])[None, None]
            idx[0, 0, 1, 1] = bad
            with pytest.raises(ValueError, match="corrupted pool indices"):
                ops.pool_gather(y, idx)

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.float64])
    def test_routes_are_int64_only(self, dtype):
        # a route of any dtype but int64, the one maxpool2 makes, is refused
        # by name
        y = np.arange(16.0).reshape(1, 1, 4, 4)
        idx = np.array([[0, 2], [8, 10]], dtype=np.int64)[None, None]
        assert ops.pool_gather(y, idx).ravel().tolist() == [0.0, 2.0, 8.0, 10.0]
        for call in (lambda r: ops.pool_gather(y, r),
                     lambda r: ops.unpool2(np.ones((1, 1, 2, 2)), r)):
            with pytest.raises(ValueError,
                               match=f"pool indices must be int64, got {np.dtype(dtype)}$"):
                call(idx.astype(dtype))

    def test_pool_gather_rejects_route_of_wrong_shape(self):
        y = np.zeros((2, 3, 4, 4))
        for shape in ((2, 3, 3, 3), (2, 3, 2, 1), (1, 3, 2, 2), (2, 2, 2, 2)):
            with pytest.raises(ShapeError, match="pool_gather"):
                ops.pool_gather(y, np.zeros(shape, dtype=np.int64))
        with pytest.raises(ShapeError, match="pool_gather"):
            ops.pool_gather(np.zeros((1, 1, 5, 5)), np.zeros((1, 1, 2, 2), dtype=np.int64))

    def test_pool_gather_reads_routed_cells(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((3, 2, 6, 4))
        pooled, idx = ops.maxpool2(x)
        assert pooled.tobytes() == ops.pool_gather(x, idx).tobytes()

    def test_pool_gather_is_unpool_adjoint(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 6, 6))[None]
        _, idx = ops.maxpool2(x)
        g = rng.standard_normal((2, 3, 3))[None]
        v = rng.standard_normal((2, 6, 6))[None]
        lhs = np.vdot(ops.unpool2(g, idx), v)
        rhs = np.vdot(g, ops.pool_gather(v, idx))
        assert abs(lhs - rhs) < 1e-10


def _ties_and_nans(rng, shape, dtype=np.float64):
    """Values rounded to halves, so windows tie, with +0.0 and -0.0 among
    them, and about one value in five NaN."""
    x = np.round(rng.standard_normal(shape) * 2) / 2
    x[x == 0] = rng.choice([0.0, -0.0], int((x == 0).sum()))
    x[rng.random(shape) < 0.2] = np.nan
    return x.astype(dtype)


class TestPlans:
    # desk conv 0's geometry (1 x 8 x 8 into 4 channels): 300 examples span
    # several runs of its columns, of its adjoint's and of the pooled cells
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("B", [1, 2, 5, 64, 300])
    def test_convolutions_keep_their_bits(self, B, padding, k, monkeypatch):
        rng = np.random.default_rng(50 + B + 3 * padding + k)
        spec = ConvSpec(1, 4, k, padding)
        x = rng.standard_normal((B, 1, 8, 8))
        w = rng.standard_normal((4, 1, k, k))
        g = rng.standard_normal((B, 4, 8 + 2 * padding - k + 1, 8 + 2 * padding - k + 1))
        w_adj = ops._adjoint_kernel(w)
        # each example alone, on plans built for one example
        _fresh_plans(monkeypatch)
        solo = [(ops.conv2d(x[i:i + 1], w, spec).tobytes(),
                 ops.conv2d_transpose(g[i:i + 1], w, spec, w_adj).tobytes()) for i in range(B)]
        # the full batch, then the first rows only, as after a compression,
        # through the plans built for the full batch
        _fresh_plans(monkeypatch)
        for n in sorted({B, B // 2 + 1, 1}, reverse=True):
            assert ops.conv2d(x[:n], w, spec).tobytes() == b"".join(y for y, _ in solo[:n])
            assert (ops.conv2d_transpose(g[:n], w, spec, w_adj).tobytes()
                    == b"".join(t for _, t in solo[:n]))
        assert [p.capacity for p in ops._scratch.plans.values()] == [B, B]

    @pytest.mark.parametrize("B", [1, 2, 5, 64, 300])
    def test_pooling_keeps_its_bits(self, B, monkeypatch):
        x = _ties_and_nans(np.random.default_rng(51 + B), (B, 4, 8, 8))
        x[0] = _ties_and_nans(np.random.default_rng(52), (4, 8, 8))
        x[0][np.isnan(x[0])] = 0.0  # one example without a NaN
        ref_pooled, ref_idx = maxpool_oracle(x)
        _fresh_plans(monkeypatch)
        for n in sorted({B, B // 2 + 1, 1}, reverse=True):
            pooled, idx = ops.maxpool2(x[:n])
            assert pooled.tobytes() == ref_pooled[:n].tobytes()
            assert np.array_equal(idx, ref_idx[:n])
        assert [p.capacity for p in ops._scratch.plans.values()] == [B]

    @pytest.mark.parametrize("nans", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pooling_runs_keep_the_bits_and_the_dtype(self, dtype, nans, monkeypatch):
        # one example per run, then runs of two with a ragged last one; the
        # result is float64 whatever the input's dtype
        x = _ties_and_nans(np.random.default_rng(53), (5, 3, 4, 6), dtype)
        if not nans:
            x[np.isnan(x)] = -0.0
        ref_pooled, ref_idx = maxpool_oracle(x.astype(np.float64))
        for budget in (1, 2 * 8 * 3 * 4 * 6):
            _budget(monkeypatch, budget)
            pooled, idx = ops.maxpool2(x)
            assert pooled.dtype == np.float64 and idx.dtype == np.int64
            assert pooled.tobytes() == ref_pooled.tobytes()
            assert np.array_equal(idx, ref_idx)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8, np.int8])
    def test_pooling_reads_integers_as_float64(self, dtype, monkeypatch):
        # an integer input pools as its float64 cast, in runs like a float64
        # one: int64 values past 2**53, one apart, round to ties in float64
        # and route to the first of them
        info = np.iinfo(dtype)
        rng = np.random.default_rng(58)
        x = rng.integers(info.max - 3, info.max, (5, 3, 4, 6), dtype=dtype, endpoint=True)
        x[1] = rng.integers(info.min, info.max, (3, 4, 6), dtype=dtype, endpoint=True)
        ref_pooled, ref_idx = maxpool_oracle(x.astype(np.float64))
        for budget in (1, 2 * 8 * 3 * 4 * 6, ops._RUN_BYTES):
            _budget(monkeypatch, budget)
            pooled, idx = ops.maxpool2(x)
            assert pooled.dtype == np.float64 and idx.dtype == np.int64
            assert pooled.tobytes() == ref_pooled.tobytes()
            assert np.array_equal(idx, ref_idx)
        if dtype == np.int64:
            assert not np.array_equal(ref_idx, maxpool_oracle(x)[1])

    @pytest.mark.parametrize("op", ["conv2d", "conv2d_transpose", "maxpool2"])
    @pytest.mark.parametrize("bad", ["shape", "batch", "dtype"])
    def test_a_plan_refuses_what_it_was_not_built_for(self, op, bad, monkeypatch):
        # a plan serves only operands of its geometry and at most its batch:
        # another shape gets a plan of its own, a larger batch a new plan in
        # its place. A float32 operand shares the plan, since every op copies
        # it into the same float64 buffers. Each gives the bits it gets on
        # plans built for it alone
        rng = np.random.default_rng(54)
        spec = ConvSpec(2, 3, 3, 1)
        w = rng.standard_normal((3, 2, 3, 3))
        shape = {"conv2d": (4, 2, 6, 6), "conv2d_transpose": (4, 3, 6, 6),
                 "maxpool2": (4, 3, 6, 6)}[op]
        a = {"shape": rng.standard_normal(shape[:2] + (8, 8)),
             "batch": rng.standard_normal((5,) + shape[1:]),
             "dtype": rng.standard_normal(shape).astype(np.float32)}[bad]
        call = {"conv2d": lambda a: ops.conv2d(a, w, spec),
                "conv2d_transpose": lambda a: ops.conv2d_transpose(a, w, spec),
                "maxpool2": lambda a: ops.maxpool2(a)[0]}[op]
        _fresh_plans(monkeypatch)
        want = call(a)
        _fresh_plans(monkeypatch)
        call(rng.standard_normal(shape))
        (key, built), = ops._scratch.plans.items()
        got = call(a)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        plans = ops._scratch.plans
        if bad == "shape":
            assert len(plans) == 2 and plans[key] is built
        else:
            assert list(plans) == [key]
            assert (plans[key] is built) == (bad == "dtype")
            assert plans[key].capacity == len(a)

    def test_a_conv_plan_refuses_another_kernel_or_spec(self, monkeypatch):
        # a call checks its kernel against its spec, and another spec on the
        # same operand shape gets a plan of its own
        rng = np.random.default_rng(55)
        spec, other = ConvSpec(2, 3, 3, 1), ConvSpec(2, 3, 3, 2)
        x = rng.standard_normal((4, 2, 6, 6))
        w = rng.standard_normal((3, 2, 3, 3))
        _fresh_plans(monkeypatch)
        want = ops.conv2d(x, w, other).tobytes()
        _fresh_plans(monkeypatch)
        ops.conv2d(x, w, spec)
        with pytest.raises(ShapeError, match=r"kernel shape \(3, 2, 1, 1\) does not match "
                                             r"spec \(3,2,3,3\)"):
            ops.conv2d(x, rng.standard_normal((3, 2, 1, 1)), spec)
        assert ops.conv2d(x, w, other).tobytes() == want
        assert [key[1] for key in ops._scratch.plans] == [spec._key, other._key]

    def test_plan_calls_fill_the_plans_buffers(self, monkeypatch):
        rng = np.random.default_rng(56)
        spec = ConvSpec(2, 3, 3, 1)
        x = rng.standard_normal((5, 2, 6, 6))
        w = rng.standard_normal((3, 2, 3, 3))
        seen = []
        im2col = ops._im2col

        def counted(xb, plan):
            cols = im2col(xb, plan)
            seen.append((plan, plan._views[len(xb)], cols))
            return cols

        monkeypatch.setattr(ops, "_im2col", counted)
        _fresh_plans(monkeypatch)
        for n in (5, 3):
            ops.conv2d(x[:n], w, spec)
        # one plan, whose padded buffer was built once, and one column
        # buffer at the head of the scratch array; a third call of 3 rows
        # finds the views the second built
        ops.conv2d(x[:3], w, spec)
        assert len(seen) == 3 and seen[0][0] is seen[1][0] is seen[2][0]
        assert seen[1][1] is seen[2][1] and seen[0][1] is not seen[1][1]
        assert ops._scratch.plans == {((2, 6, 6), spec._key): seen[0][0]}
        assert all(cols.ctypes.data == ops._scratch.buf.ctypes.data for *_, cols in seen)

    def test_the_plans_stay_within_their_bound(self, monkeypatch):
        # one more geometry than the bound drops every plan; the geometries
        # met again after that give the bits they gave before
        rng = np.random.default_rng(57)
        spec = ConvSpec(1, 2, 3, 1)
        w = rng.standard_normal((2, 1, 3, 3))
        xs = [rng.standard_normal((2, 1, 2, W)) for W in range(1, ops._PLANS + 11)]
        _fresh_plans(monkeypatch)
        sizes, first = [], []
        for x in xs:
            first.append(ops.conv2d(x, w, spec).tobytes())
            sizes.append(len(ops._scratch.plans))
        assert max(sizes) == ops._PLANS and sizes[ops._PLANS] == 1
        again = [ops.conv2d(x, w, spec).tobytes() for x in xs]
        assert again == first
        assert len(ops._scratch.plans) <= ops._PLANS


def _copy_orders(monkeypatch):
    """A list with (rows, Wo, batch-innermost) of every im2col run from here
    on: a run is batch-innermost when its input went into the plan's
    batch-last padded buffer."""
    seen, im2col = [], ops._im2col

    def recorded(xb, plan):
        cols = im2col(xb, plan)
        fill = plan._views[len(xb)][0]
        seen.append((len(xb), plan.wo,
                     plan.xpt is not None and np.shares_memory(fill, plan.xpt)))
        return cols

    monkeypatch.setattr(ops, "_im2col", recorded)
    return seen


def _switch_case(op, k, padding, rng):
    """(call, operands, Wo, column bytes per example) of one convolution op
    on 5 x 6 inputs under ConvSpec(2, 3, k, padding), for 72 examples; Wo and
    the column bytes are those of the correlation that builds the columns."""
    spec = ConvSpec(2, 3, k, padding)
    ho, wo = 5 + 2 * padding - k + 1, 6 + 2 * padding - k + 1
    x = rng.standard_normal((72, 2, 5, 6))
    w = rng.standard_normal((3, 2, k, k))
    u = rng.standard_normal((72, 3, ho, wo))
    if op == "conv2d_transpose":
        # the adjoint correlates [B, 3, Ho, Wo] back to [B, 2, 5, 6]
        w_adj = ops._adjoint_kernel(w)
        return (lambda g: ops.conv2d_transpose(g, w, spec, w_adj)), (u,), 6, 8 * 3 * k * k * 30
    call = {"conv2d": lambda x: ops.conv2d(x, w, spec),
            "conv2d_weight_grad": lambda x, u: ops.conv2d_weight_grad(x, u, spec)}[op]
    operands = (x,) if op == "conv2d" else (x, u)
    return call, operands, wo, 8 * 2 * k * k * ho * wo


class TestCopyOrders:
    """A run of more than twice as many examples as an output row holds
    (2 Wo) is copied into its columns batch-innermost, any other row by row;
    the columns, and so every bit, are the same either way."""

    @pytest.mark.parametrize("op", ["conv2d", "conv2d_transpose", "conv2d_weight_grad"])
    @pytest.mark.parametrize("k, padding", [(1, 0), (1, 2), (3, 0), (3, 1), (3, 2), (5, 1),
                                            (5, 2)])
    def test_both_sides_of_the_switch_give_the_solo_bits(self, op, k, padding, monkeypatch):
        rng = np.random.default_rng(60 + 3 * k + padding)
        call, operands, wo, example = _switch_case(op, k, padding, rng)
        # each example alone: one row, copied row by row
        _fresh_plans(monkeypatch)
        solo = [call(*(a[i:i + 1] for a in operands)) for i in range(72)]
        def check(B):
            got = call(*(a[:B] for a in operands))
            if op == "conv2d_weight_grad":
                assert got.tobytes() == np.add.reduce(np.stack(solo[:B]), axis=0).tobytes()
            else:
                assert got.tobytes() == b"".join(s.tobytes() for s in solo[:B])

        # runs of 2 Wo + 2 examples (the budget holds twice that, plus the
        # window buffer's spare row): the largest batch spans four, the last
        # of one example; its plans then serve 2 Wo + 1 and 2 Wo rows
        run = 2 * wo + 2
        _budget(monkeypatch, (2 * run + 1) * example)
        seen = _copy_orders(monkeypatch)
        for B in (3 * run + 1, 2 * wo + 1, 2 * wo):
            seen.clear()
            check(B)
            assert seen == ([(run, wo, True)] * 3 + [(1, wo, False)] if B > run
                            else [(B, wo, B > 2 * wo)])
        assert len(ops._scratch.plans) == 1
        # runs of 32 and 16, whose window buffers space their rows 33 and 17
        # apart; 16 rows are copied row by row where Wo is 8 or more
        _budget(monkeypatch, 65 * example)
        seen = _copy_orders(monkeypatch)
        check(48)
        check(16)
        assert seen == [(32, wo, True)] + [(16, wo, 16 > 2 * wo)] * 2

    def test_two_threads_keep_their_bits_on_both_sides(self, monkeypatch):
        # desk connection 1 (4 -> 8 channels on 4 x 4, Wo = 4) and its
        # adjoint, at 64 rows and at 3, in two threads switching often
        rng = np.random.default_rng(66)
        spec = ConvSpec(4, 8, 3, 1)
        xs = rng.standard_normal((2, 64, 4, 4, 4))
        us = rng.standard_normal((2, 64, 8, 4, 4))
        w = rng.standard_normal((8, 4, 3, 3))

        def bits(i, B):
            return b"".join(a.tobytes() for a in (
                ops.conv2d(xs[i, :B], w, spec), ops.conv2d_transpose(us[i, :B], w, spec),
                ops.conv2d_weight_grad(xs[i, :B], us[i, :B], spec)))

        want = [[bits(i, B) for B in (64, 3)] for i in range(2)]
        seen = _copy_orders(monkeypatch)
        bad = []

        def work(i):
            for _ in range(20):
                if [bits(i, B) for B in (64, 3)] != want[i]:
                    bad.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert bad == []
        assert {batch for _, _, batch in seen} == {True, False}

    def test_desk_calls_over_2_wo_rows_copy_along_the_batch(self, monkeypatch):
        # desk_ep.ckpt's relaxations and reverse passes at the benchmark's
        # batch sizes, then the mid spec's (3 x 32 x 32, convs 32 and 64,
        # runs of one or two examples): every run of more than 2 Wo rows is
        # copied batch-innermost, every other run row by row, and no mid run
        # is wider than its Wo
        ckpt = load_checkpoint(DESK_CKPT)
        rng = np.random.default_rng(67)
        _fresh_plans(monkeypatch)
        seen = _copy_orders(monkeypatch)
        for B in (1, 2, 4, 8, 16, 64, 128, 256):
            x = rng.uniform(0, 1, (B,) + ckpt.spec.input_shape)
            logits, vjp = unrolled.logits_and_vjp(x, ckpt.params, ckpt.spec, 3)
            vjp(np.ones_like(logits))
        # the adjoint of connection 0 (4 channels on 8 x 8) would hold at
        # most 13 rows in a batch-innermost run, so its plans keep the row
        # copy, in runs of 28
        assert all(batch == (n > 2 * wo) for n, wo, batch in seen if (n, wo) != (28, 8))
        assert (28, 8, False) in seen
        # Wo is 8 for connection 0 and its adjoint, 4 for connection 1 and its adjoint
        assert {wo for _, wo, batch in seen if batch} == {4, 8}
        assert {wo for _, wo, batch in seen if not batch} == {4, 8}
        spec = ModelSpec(input_shape=(3, 32, 32),
                         conv=(ConvSpec(3, 32, 3, 1), ConvSpec(32, 64, 3, 1)),
                         readout_dim=10, t_free=16, t_nudge=4, beta=0.5, fp_tol=1e-6)
        params = init_params(spec, rng)
        seen.clear()
        x = rng.uniform(0, 1, (32,) + spec.input_shape)
        logits, vjp = unrolled.logits_and_vjp(x, params, spec, 2)
        vjp(np.ones_like(logits))
        assert seen and not any(batch for *_, batch in seen)
        assert max(n for n, *_ in seen) <= 2


class TestHardClamp:
    def test_inside_unchanged(self):
        x = np.linspace(0, 1, 11)
        assert np.array_equal(ops.hard_clamp(x), x)

    def test_outside_clamped(self):
        assert ops.hard_clamp(np.array(-0.5)) == 0.0
        assert ops.hard_clamp(np.array(1.5)) == 1.0

    def test_matches_elementwise_reference(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(100) * 3
        ref = np.array([min(max(v, 0.0), 1.0) for v in x])
        assert np.array_equal(ops.hard_clamp(x), ref)


def test_all_outputs_finite_on_finite_inputs():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((2, 6, 6))[None] * 100
    w = rng.standard_normal((3, 2, 3, 3)) * 100
    spec = ConvSpec(2, 3, 3, 1)
    y = ops.conv2d(x, w, spec)
    assert np.isfinite(y).all()
    pooled, idx = ops.maxpool2(y.reshape(1, 3, 6, 6))
    assert np.isfinite(pooled).all()
    assert np.isfinite(ops.conv2d_transpose(y, w, spec)).all()
