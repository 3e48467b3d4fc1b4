"""Exact input gradients through the unrolled dynamics: closed-form single
step, finite differences, saturation, batching, and the memory contract."""

import numpy as np
import pytest

from epbench import energy, ops, unrolled
from epbench.handle import for_params
from epbench.model import ModelSpec, init_params
from epbench.ops import ConvSpec
from conftest import conv_fc_model, tiny_model


class TestInputGrad:
    def test_zero_weights_zero_gradient(self):
        spec, params = tiny_model(np.random.default_rng(0))
        for name, t in params.tensors():
            t[:] = 0.0
        x = np.random.default_rng(1).uniform(0, 1, spec.input_shape)[None]
        g = for_params(params, spec, "ep", 5).loss_grad(x, np.array([1]))[1]
        assert np.count_nonzero(g) == 0

    def test_single_step_closed_form(self):
        # t=1, one conv connection: s1 = clamp(P(w*x) + b); loss reads
        # readout(s1). Chain rule by hand through pool routes and clamp.
        spec = ModelSpec(input_shape=(1, 4, 4), conv=(ConvSpec(1, 2, 3, 1),),
                         readout_dim=2, t_free=10)
        rng = np.random.default_rng(2)
        params = init_params(spec, rng, dtype=np.float64, scale=0.6)
        x = rng.uniform(0.1, 0.9, spec.input_shape)[None]
        y = 1
        got = for_params(params, spec, "ep", 1).loss_grad(x, np.array([y]))[1]

        conv = ops.conv2d(x, params.w[0], spec.conv[0])
        pooled, idx = ops.maxpool2(conv)
        pre = pooled + params.b[0][:, None, None]
        s1 = ops.hard_clamp(pre)
        logits = params.w[-1] @ s1.reshape(-1) + params.b[-1]
        p = energy.softmax(logits)
        glog = p.copy()
        glog[y] -= 1.0
        g_s1 = (glog @ params.w[-1]).reshape(s1.shape)
        g_pre = g_s1 * ((pre >= 0) & (pre <= 1))
        expected = ops.conv2d_transpose(ops.unpool2(g_pre, idx),
                                        params.w[0], spec.conv[0])
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_matches_finite_differences_per_pixel(self):
        rng = np.random.default_rng(3)
        spec, params = tiny_model(np.random.default_rng(7), scale=0.8)
        x = rng.uniform(0.05, 0.95, spec.input_shape)[None]
        y = np.array([2])
        t = 20
        g = for_params(params, spec, "ep", t).loss_grad(x, y)[1]
        tape0 = unrolled.record_free_phase(x, params, spec, t)
        h = 1e-5
        checked = 0
        for j in rng.choice(x.size, size=24, replace=False):
            xp = x.copy()
            xp.reshape(-1)[j] += h
            xm = x.copy()
            xm.reshape(-1)[j] -= h
            tp = unrolled.record_free_phase(xp, params, spec, t)
            tm = unrolled.record_free_phase(xm, params, spec, t)
            # skip pixels whose perturbation flips a pooling argmax
            stable = all(
                np.array_equal(a, b) and np.array_equal(a, c)
                for ta, tb, tc in zip(tape0.pool_idx, tp.pool_idx, tm.pool_idx)
                for a, b, c in zip(ta, tb, tc)
            )
            if not stable:
                continue
            lp, _ = for_params(params, spec, "ep", t).loss_grad(xp, y)
            lm, _ = for_params(params, spec, "ep", t).loss_grad(xm, y)
            fd = (lp[0] - lm[0]) / (2 * h)
            an = g.reshape(-1)[j]
            if abs(an) > 1e-10:
                assert abs(fd - an) / abs(an) < 1e-3
                checked += 1
        assert checked >= 12

    def test_gradient_saturation_after_convergence(self):
        rng = np.random.default_rng(4)
        for trial in range(3):
            spec, params = tiny_model(np.random.default_rng(50 + trial), scale=0.8)
            x = rng.uniform(0, 1, spec.input_shape)[None]
            T = energy.free_phase(x, params, spec).steps
            gT = for_params(params, spec, "ep", T).loss_grad(x, np.array([0]))[1]
            for k in (10, 20):
                gk = for_params(params, spec, "ep", T + k).loss_grad(x, np.array([0]))[1]
                rel = np.linalg.norm(gk - gT) / np.linalg.norm(gT)
                assert rel < 1e-3

    @pytest.mark.parametrize("make_model", [tiny_model, conv_fc_model],
                             ids=["conv", "conv_fc"])
    def test_directional_derivative_100_pairs(self, make_model):
        rng = np.random.default_rng(5)
        spec, params = make_model(np.random.default_rng(11), scale=0.8)
        t = 15
        h = 1e-3
        passed = tried = 0
        while passed < 100 and tried < 200:
            tried += 1
            x = rng.uniform(0.05, 0.95, spec.input_shape)[None]
            y = np.array([int(rng.integers(0, 3))])
            v = rng.standard_normal(spec.input_shape)[None]
            v /= np.linalg.norm(v)
            tape0 = unrolled.record_free_phase(x, params, spec, t)
            tp = unrolled.record_free_phase(x + h * v, params, spec, t)
            tm = unrolled.record_free_phase(x - h * v, params, spec, t)
            stable = all(
                np.array_equal(a, b) and np.array_equal(a, c)
                for ta, tb, tc in zip(tape0.pool_idx, tp.pool_idx, tm.pool_idx)
                for a, b, c in zip(ta, tb, tc)
            ) and all(
                np.array_equal(a, b) and np.array_equal(a, c)
                for ta, tb, tc in zip(tape0.masks, tp.masks, tm.masks)
                for a, b, c in zip(ta, tb, tc)
            )
            if not stable:  # pooling ties and clamp kinks are non-smooth
                continue
            g = for_params(params, spec, "ep", t).loss_grad(x, y)[1]
            lp, _ = for_params(params, spec, "ep", t).loss_grad(x + h * v, y)
            lm, _ = for_params(params, spec, "ep", t).loss_grad(x - h * v, y)
            fd = (lp[0] - lm[0]) / (2 * h)
            an = float(np.vdot(g, v))
            assert abs(fd - an) / max(abs(an), 1e-12) < 1e-3
            passed += 1
        assert passed >= 100


class TestBatching:
    def test_batch_of_one_equals_row_of_larger_batch(self):
        rng = np.random.default_rng(6)
        spec, params = tiny_model(np.random.default_rng(13))
        x = rng.uniform(0, 1, spec.input_shape)[None]
        l1, g1 = for_params(params, spec, "ep", 10).loss_grad(x, np.array([1]))
        k = 2  # x sits in row k of a batch of four
        others = rng.uniform(0, 1, (3,) + spec.input_shape)
        xs = np.concatenate([others[:k], x, others[k:]])
        lb, gb = for_params(params, spec, "ep", 10).loss_grad(xs, np.array([0, 2, 1, 0]))
        assert l1[0] == lb[k]
        assert np.array_equal(g1[0], gb[k])

    def test_duplicated_examples_identical_grads(self):
        rng = np.random.default_rng(7)
        spec, params = tiny_model(np.random.default_rng(17))
        x = rng.uniform(0, 1, spec.input_shape)
        xs = np.stack([x, x, x])
        ys = np.array([2, 2, 2])
        losses, grads = for_params(params, spec, "ep", 8).loss_grad(xs, ys)
        assert losses[0] == losses[1] == losses[2]
        assert np.array_equal(grads[0], grads[1])
        assert np.array_equal(grads[0], grads[2])

    def test_batch_matches_sequential_bitwise(self):
        rng = np.random.default_rng(8)
        spec, params = tiny_model(np.random.default_rng(19))
        xs = rng.uniform(0, 1, (5,) + spec.input_shape)
        ys = np.array([0, 1, 2, 0, 1])
        losses, grads = for_params(params, spec, "ep", 12).loss_grad(xs, ys)
        for i in range(5):
            li, gi = for_params(params, spec, "ep", 12).loss_grad(xs[i:i + 1], ys[i:i + 1])
            assert li[0] == losses[i]
            assert np.array_equal(gi[0], grads[i])


class TestTape:
    def test_length_matches_steps(self):
        spec, params = tiny_model(np.random.default_rng(23))
        x = np.random.default_rng(9).uniform(0, 1, spec.input_shape)[None]
        tape = unrolled.record_free_phase(x, params, spec, 17)
        assert tape.steps == 17
        assert len(tape.pool_idx) == 17
        assert len(tape.masks) == 17

    def test_memory_grows_linearly_in_steps(self):
        spec, params = tiny_model(np.random.default_rng(29))
        x = np.random.default_rng(10).uniform(0, 1, spec.input_shape)[None]
        small = unrolled.record_free_phase(x, params, spec, 10).nbytes()
        big = unrolled.record_free_phase(x, params, spec, 20).nbytes()
        ratio = big / small
        assert 1.8 < ratio < 2.2
