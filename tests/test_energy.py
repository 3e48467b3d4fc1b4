"""Energy function and dynamics: summation oracles, finite differences of the
state gradient, fixed-point behavior, nudging, readout, and prediction."""

import numpy as np
import pytest

from epbench import energy, ops, unrolled
from epbench.model import ModelSpec, NetworkState, init_params, zero_state
from epbench.ops import ConvSpec

from conftest import tiny_model


rng_global = np.random.default_rng(0)


def random_state(spec, rng, batch=1):
    return NetworkState(
        layers=[rng.uniform(0, 1, (batch,) + s) for s in spec.state_shapes()]
    )


class TestPhi:
    def test_zero_state_zero_energy(self):
        spec, params = tiny_model(np.random.default_rng(1))
        x = rng_global.uniform(0, 1, spec.input_shape)[None]
        st = zero_state(spec, 1)
        assert energy.phi(x, st, params, spec)[0] == 0.0

    def test_single_fc_hand_value(self):
        # one fc connection 1->1: phi = s1 * w * s0, with s0 = flattened input
        spec = ModelSpec(input_shape=(1, 2, 2),
                         conv=(ConvSpec(1, 1, 1, 0),),
                         fc=((1, 1),), readout_dim=2, t_free=10)
        params = init_params(spec, np.random.default_rng(0), dtype=np.float64)
        # silence everything except the fc connection under test
        params.w[0][:] = 0.0
        params.b[0][:] = 0.0
        params.b[1][:] = 0.0
        params.w[1][:] = 2.0
        st = zero_state(spec, 1)
        st.layers[0][:] = 3.0   # pre-synaptic state s^1 (scalar "image" 1x1x1)
        st.layers[1][:] = 1.0   # post-synaptic state s^2
        x = np.zeros(spec.input_shape)[None]
        assert energy.phi(x, st, params, spec)[0] == pytest.approx(6.0)

    def test_matches_term_by_term_oracle(self):
        rng = np.random.default_rng(2)
        spec, params = tiny_model(rng, channels=(3, 5), classes=2)
        x = rng.uniform(0, 1, spec.input_shape)
        st = random_state(spec, rng)

        # direct summation over the two conv terms
        total = 0.0
        srcs = [x[None]] + st.layers[:-1]
        for i, cs in enumerate(spec.conv):
            pre, _ = ops.maxpool2(ops.conv2d(srcs[i], params.w[i], cs))
            pre = pre + params.b[i][:, None, None]
            total += float(np.sum(st.layers[i] * pre))
        got = energy.phi(x[None], st, params, spec)[0]
        assert got == pytest.approx(total, rel=1e-5)


class TestPhiGradState:
    def test_zero_weights_zero_grads(self):
        spec, params = tiny_model(np.random.default_rng(3))
        for _, t in params.tensors():
            t[:] = 0.0
        x = rng_global.uniform(0, 1, spec.input_shape)[None]
        st = random_state(spec, np.random.default_rng(4))
        grads = energy.phi_grad_state(x, st, params, spec)
        assert all(np.count_nonzero(g) == 0 for g in grads)

    def test_two_layer_fc_hand_arithmetic(self):
        # s0=[1] -> w1=[[2]] -> s1 -> w2=[[3]] -> s2, no biases:
        # dPhi/ds1 = w1 s0 + w2^T s2, dPhi/ds2 = w2 s1
        spec = ModelSpec(input_shape=(1, 2, 2),
                         conv=(ConvSpec(1, 1, 1, 0),),
                         fc=((1, 1),), readout_dim=2, t_free=10)
        params = init_params(spec, np.random.default_rng(0), dtype=np.float64)
        params.w[0][:] = 2.0   # 1x1 conv of a 1-pixel map acts as w1
        params.b[0][:] = 0.0
        params.w[1][:] = 3.0
        params.b[1][:] = 0.0
        x = np.full(spec.input_shape, 1.0)[None]
        st = zero_state(spec, 1)
        st.layers[0][:] = 0.5
        st.layers[1][:] = 0.25
        g = energy.phi_grad_state(x, st, params, spec)
        # conv state: bottom-up = max-pool(2*x) = 2, top-down = 3*0.25
        assert g[0].reshape(-1)[0] == pytest.approx(2.0 + 0.75)
        assert g[1].reshape(-1)[0] == pytest.approx(3.0 * 0.5)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        spec, params = tiny_model(rng, scale=0.8)
        x = rng.uniform(0, 1, spec.input_shape)[None]
        st = random_state(spec, rng)
        grads = energy.phi_grad_state(x, st, params, spec)
        h = 1e-6
        checked = 0
        for n, shape in enumerate(spec.state_shapes()):
            flat = st.layers[n].reshape(-1)
            for j in rng.choice(flat.size, size=8, replace=False):
                up = NetworkState([s.copy() for s in st.layers])
                dn = NetworkState([s.copy() for s in st.layers])
                up.layers[n].reshape(-1)[j] += h
                dn.layers[n].reshape(-1)[j] -= h
                fd = (energy.phi(x, up, params, spec)[0]
                      - energy.phi(x, dn, params, spec)[0]) / (2 * h)
                an = grads[n].reshape(-1)[j]
                if abs(an) > 1e-9:
                    assert abs(fd - an) / abs(an) < 1e-4
                    checked += 1
        assert checked >= 10


class TestFreePhase:
    def test_zero_params_fixed_point_immediately(self):
        spec, params = tiny_model(np.random.default_rng(6))
        for _, t in params.tensors():
            t[:] = 0.0
        x = rng_global.uniform(0, 1, spec.input_shape)[None]
        st = energy.free_phase(x, params, spec)
        assert st.steps == 1
        assert all(np.count_nonzero(s) == 0 for s in st.layers)

    def test_scalar_contraction_known_point(self):
        # single 1x1 conv with weight 0.5 on a constant input of 1:
        # update s <- clamp(0.5 * pooled(x)) lands on 0.5 immediately
        spec = ModelSpec(input_shape=(1, 2, 2), conv=(ConvSpec(1, 1, 1, 0),),
                         readout_dim=2, t_free=10, fp_tol=1e-9)
        params = init_params(spec, np.random.default_rng(0), dtype=np.float64)
        params.w[0][:] = 0.5
        params.b[0][:] = 0.0
        x = np.ones(spec.input_shape)[None]
        st = energy.free_phase(x, params, spec)
        assert np.allclose(st.layers[0], 0.5)

    def test_fixed_point_self_consistency(self):
        rng = np.random.default_rng(7)
        spec, params = tiny_model(rng, scale=0.8, fp_tol=1e-6)
        x = rng.uniform(0, 1, (2,) + spec.input_shape)
        st = energy.free_phase(x, params, spec, t=250)
        assert st.steps < 250
        again = energy.nudged_phase(x, params, spec, st, np.array([0, 0]), 0.0, t=1)
        resid = max(np.max(np.abs(a - b)) for a, b in zip(again.layers, st.layers))
        assert resid < 1e-6

    def test_states_bounded_every_step(self):
        rng = np.random.default_rng(8)
        spec, params = tiny_model(rng, scale=2.0)
        x = rng.uniform(0, 1, spec.input_shape)[None]
        for t in range(1, 21):
            st = energy.free_phase(x, params, spec, t=t, fp_tol=0.0)
            assert st.steps == t
            for s in st.layers:
                assert s.min() >= 0.0 and s.max() <= 1.0

    def test_record_replays_bit_exactly(self):
        rng = np.random.default_rng(9)
        spec, params = tiny_model(rng, scale=0.9)
        x = rng.uniform(0, 1, (1,) + spec.input_shape)
        tape = unrolled.record_free_phase(x, params, spec, 12)
        assert tape.steps == 12
        layers = zero_state(spec, 1).layers
        for t in range(tape.steps):
            layers, idx, masks = energy.dynamics_step(x, layers, params, spec,
                                                      collect=True)
            assert all(np.array_equal(a, b) for a, b in zip(idx, tape.pool_idx[t]))
            assert all(np.array_equal(a, b) for a, b in zip(masks, tape.masks[t]))
        assert all(np.array_equal(a, b) for a, b in zip(layers, tape.final))


@pytest.mark.parametrize("run", ["free_phase", "nudged_phase", "record_free_phase"])
def test_zero_steps_rejected(run):
    spec, params = tiny_model(np.random.default_rng(17))
    x = rng_global.uniform(0, 1, (2,) + spec.input_shape)
    calls = {
        "free_phase": lambda: energy.free_phase(x, params, spec, t=0),
        "nudged_phase": lambda: energy.nudged_phase(
            x, params, spec, zero_state(spec, 2), np.array([0, 1]), 0.5, t=0),
        "record_free_phase": lambda: unrolled.record_free_phase(x, params, spec, 0),
    }
    with pytest.raises(ValueError, match="t >= 1"):
        calls[run]()


class TestNudgedPhase:
    def test_beta_zero_equals_free_continuation(self):
        rng = np.random.default_rng(10)
        spec, params = tiny_model(rng, scale=0.8)
        x = rng.uniform(0, 1, (1,) + spec.input_shape)
        half = energy.free_phase(x, params, spec, t=7, fp_tol=0.0)
        cont = energy.nudged_phase(x, params, spec, half, np.array([1]), 0.0, t=5)
        full = energy.free_phase(x, params, spec, t=12, fp_tol=0.0)
        assert all(np.array_equal(a, b) for a, b in zip(cont.layers, full.layers))

    def test_positive_beta_reduces_loss(self):
        rng = np.random.default_rng(11)
        hits = 0
        for trial in range(5):
            spec, params = tiny_model(np.random.default_rng(20 + trial), scale=0.8,
                                      t_nudge=60)
            x = rng.uniform(0, 1, (1,) + spec.input_shape)
            y = np.array([int(rng.integers(0, 3))])
            star = energy.free_phase(x, params, spec, t=250)
            nudged = energy.nudged_phase(x, params, spec, star, y, +0.2)
            loss_star = energy.cross_entropy(energy.readout(star, params, spec), y)[0]
            loss_nudged = energy.cross_entropy(energy.readout(nudged, params, spec), y)[0]
            hits += loss_nudged <= loss_star + 1e-12
        assert hits >= 4

    def test_plus_minus_beta_symmetric_to_first_order(self):
        rng = np.random.default_rng(12)
        spec, params = tiny_model(np.random.default_rng(33), scale=0.8,
                                  t_nudge=200, fp_tol=1e-13)
        x = rng.uniform(0, 1, (1,) + spec.input_shape)
        y = np.array([1])
        star = energy.free_phase(x, params, spec, t=400)

        def gap(beta):
            plus = energy.nudged_phase(x, params, spec, star, y, +beta)
            minus = energy.nudged_phase(x, params, spec, star, y, -beta)
            return max(
                np.max(np.abs((p + m) / 2 - s))
                for p, m, s in zip(plus.layers, minus.layers, star.layers)
            )

        g1, g2 = gap(0.02), gap(0.01)
        # quadratic shrink: halving beta cuts the midpoint gap ~4x
        assert g1 / max(g2, 1e-300) == pytest.approx(4.0, rel=0.35)


class TestReadoutPredict:
    def test_zero_weights_chance_logits(self):
        spec, params = tiny_model(np.random.default_rng(13))
        params.w[-1][:] = 0.0
        params.b[-1][:] = 0.0
        x = rng_global.uniform(0, 1, spec.input_shape)[None]
        logits = energy.logits_at(x, params, spec, t=5)
        label = np.argmax(logits, axis=-1)
        assert np.count_nonzero(logits) == 0
        assert label[0] == 0  # lowest-index tie break

    def test_identity_readout(self):
        spec = ModelSpec(input_shape=(1, 2, 2), conv=(ConvSpec(1, 1, 1, 0),),
                         fc=((1, 2),), readout_dim=2, t_free=10)
        params = init_params(spec, np.random.default_rng(0), dtype=np.float64)
        params.w[-1] = np.eye(2)
        params.b[-1] = np.zeros(2)
        st = zero_state(spec, 1)
        st.layers[-1][0] = [0.3, 0.9]
        assert np.allclose(energy.readout(st, params, spec), [0.3, 0.9])

    def test_readout_matches_loop(self):
        rng = np.random.default_rng(14)
        spec, params = tiny_model(rng)
        st = random_state(spec, rng)
        z = energy.readout(st, params, spec)[0]
        flat = st.layers[-1][0].reshape(-1)
        ref = params.w[-1].astype(np.float64) @ flat + params.b[-1]
        assert np.max(np.abs(z - ref)) < 1e-6

    def test_one_channel_conv_top(self):
        # a 1x4x4 top state: one channel holds as many elements as the readout
        # reads, so only the rank tells a batch of one from a single example
        spec = ModelSpec(input_shape=(1, 8, 8), conv=(ConvSpec(1, 1, 3, 1),),
                         readout_dim=3, t_free=10)
        params = init_params(spec, np.random.default_rng(16), dtype=np.float64)
        x = np.random.default_rng(17).uniform(0, 1, spec.input_shape)
        st = energy.free_phase(x[None], params, spec)
        assert energy.readout(st, params, spec).shape == (1, 3)
        st.layers[-1] = st.layers[-1][0]
        with pytest.raises(ops.ShapeError, match=r"\[B, C, H, W\]"):
            energy.readout(st, params, spec)

    def test_shallow_t_gives_chance(self):
        # before information reaches the top layer the logits cannot depend
        # on the input; with all biases silenced they are exactly the
        # zero-state readout
        rng = np.random.default_rng(15)
        spec, params = tiny_model(rng, channels=(3, 4))
        xa = rng.uniform(0, 1, spec.input_shape)[None]
        xb = rng.uniform(0, 1, spec.input_shape)[None]
        za = energy.logits_at(xa, params, spec, t=1)
        zb = energy.logits_at(xb, params, spec, t=1)
        assert np.array_equal(za, zb)
        params.b[0][:] = 0.0
        params.b[1][:] = 0.0
        params.b[-1][:] = 0.0
        z0 = energy.logits_at(xa, params, spec, t=1)
        assert np.count_nonzero(z0) == 0

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(16)
        spec, params = tiny_model(rng)
        x = rng.uniform(0, 1, spec.input_shape)[None]
        z1 = energy.logits_at(x, params, spec, t=9)
        z2 = energy.logits_at(x, params, spec, t=9)
        assert np.array_equal(z1, z2)


class TestModelSpecValidation:
    def test_channel_chain_mismatch_rejected(self):
        with pytest.raises(ValueError, match="in_channels"):
            ModelSpec(input_shape=(1, 8, 8),
                      conv=(ConvSpec(2, 4, 3, 1),), readout_dim=2)

    def test_odd_pre_pool_extent_rejected(self):
        # 7x7 input with k3 p1 keeps 7x7, which 2x2 pooling cannot halve
        with pytest.raises(ValueError, match="even"):
            ModelSpec(input_shape=(1, 7, 7),
                      conv=(ConvSpec(1, 4, 3, 1),), readout_dim=2)

    def test_t_free_below_depth_rejected(self):
        with pytest.raises(ValueError, match="t_free"):
            ModelSpec(input_shape=(1, 16, 16),
                      conv=(ConvSpec(1, 4, 3, 1), ConvSpec(4, 4, 3, 1)),
                      fc=((4 * 4 * 4, 8),), readout_dim=2, t_free=2)

    def test_fc_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="in_dim"):
            ModelSpec(input_shape=(1, 8, 8), conv=(ConvSpec(1, 4, 3, 1),),
                      fc=((99, 8),), readout_dim=2)


def test_prediction_saturates_after_convergence(trained_ep, eval_batch):
    spec, params, _ = trained_ep
    xs, _ = eval_batch
    xs = xs[:32]
    T = energy.free_phase(xs, params, spec).steps
    base = np.argmax(energy.logits_at(xs, params, spec, t=T), axis=-1)
    for extra in (5, 20, 50):
        labels = np.argmax(energy.logits_at(xs, params, spec, t=T + extra), axis=-1)
        assert np.array_equal(labels, base)


@pytest.mark.parametrize("fn", [energy.cross_entropy, energy.cross_entropy_grad],
                         ids=["loss", "grad"])
@pytest.mark.parametrize("y, error, match", [
    ([-1, 0], ValueError, "label -1"),
    (1, ops.ShapeError, r"\[B\]"),
    ([7, 0], ValueError, "label 7"),
    ([0, 1, 2], ops.ShapeError, r"\[B\]"),
    ([0.0, 1.0], ops.ShapeError, r"\[B\]"),
], ids=["negative", "scalar", "out-of-range", "three-for-two", "float"])
def test_bad_labels_rejected(fn, y, error, match):
    # logits of a batch of 2 over 3 classes
    z = np.random.default_rng(18).standard_normal((2, 3))
    with pytest.raises(error, match=match):
        fn(z, y)
