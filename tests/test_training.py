"""Contrastive update rules (finite-difference oracles, order of accuracy,
antisymmetry, locality) and the training loops (determinism, divergence,
desk-scale accuracy)."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from epbench import baseline, energy, ops, training
from epbench.handle import for_params
from epbench.model import ModelSpec, NetworkState, init_params
from epbench.ops import ConvSpec
from epbench.training import DivergenceError, TrainConfig
from conftest import (desk_spec, desk_train_config, fd_param_grads, one_conv_model,
                      oracle_model, tiny_model)


class TestPhiGradParams:
    def test_zero_state_zero_estimate(self):
        spec, params = tiny_model(np.random.default_rng(0))
        x = np.random.default_rng(1).uniform(0, 1, spec.input_shape)[None]
        st = NetworkState([np.zeros((1,) + s) for s in spec.state_shapes()])
        est = training.phi_grad_params(x, st, params, spec)
        assert all(np.count_nonzero(t) == 0 for _, t in est.tensors())

    def test_one_by_one_conv_hand_value(self):
        # two 1x1 convs on 1x4x4: connection 1's weight gradient is s^2 times
        # s^1 at the argmax of w1 s^1, its bias gradient s^2
        spec = ModelSpec(input_shape=(1, 4, 4),
                         conv=(ConvSpec(1, 1, 1, 0), ConvSpec(1, 1, 1, 0)),
                         readout_dim=2, t_free=10)
        params = init_params(spec, np.random.default_rng(0), dtype=np.float64)
        params.w[1][:] = 1.0
        st = NetworkState([np.array([[[[2.0, 0.5], [1.0, 0.25]]]]),
                           np.full((1, 1, 1, 1), 3.0)])
        x = np.zeros(spec.input_shape)[None]
        est = training.phi_grad_params(x, st, params, spec)
        assert est.w[1][0, 0, 0, 0] == pytest.approx(6.0)
        assert est.b[1][0] == pytest.approx(3.0)

    def test_matches_phi_finite_differences(self):
        rng = np.random.default_rng(2)
        spec, params = tiny_model(np.random.default_rng(3), scale=0.8)
        x = rng.uniform(0, 1, (1,) + spec.input_shape)
        st = NetworkState([rng.uniform(0, 1, (1,) + s) for s in spec.state_shapes()])
        est = training.phi_grad_params(x, st, params, spec)
        h = 1e-6
        got = dict(est.tensors())
        for name, arr in params.tensors():
            if name.startswith("readout"):
                continue
            flat_targets = list(np.ndindex(arr.shape))
            pick = [flat_targets[i]
                    for i in rng.choice(len(flat_targets),
                                        min(10, len(flat_targets)), replace=False)]
            for ix in pick:
                orig = arr[ix]
                arr[ix] = orig + h
                up = energy.phi(x, st, params, spec)[0]
                arr[ix] = orig - h
                dn = energy.phi(x, st, params, spec)[0]
                arr[ix] = orig
                fd = (up - dn) / (2 * h)
                assert abs(fd - got[name][ix]) < 1e-4 * max(1.0, abs(fd))

    def test_locality_ignores_non_adjacent_layers(self):
        # poisoning any layer other than {n-1, n} leaves connection n's
        # gradient untouched
        rng = np.random.default_rng(4)
        spec, params = tiny_model(np.random.default_rng(5), channels=(3, 4, 4),
                                  in_shape=(1, 16, 16))
        x = rng.uniform(0, 1, (1,) + spec.input_shape)
        st = NetworkState([rng.uniform(0, 1, (1,) + s) for s in spec.state_shapes()])
        base = training.phi_grad_params(x, st, params, spec)
        poisoned = NetworkState([s.copy() for s in st.layers])
        poisoned.layers[2][:] = 1e6  # far above any sane state
        est = training.phi_grad_params(x, poisoned, params, spec)
        assert np.array_equal(est.w[0], base.w[0])
        assert np.array_equal(est.b[0], base.b[0])


class TestEPUpdates:
    def test_one_sided_beta_to_zero_consistency(self):
        spec, params = oracle_model(8)
        rng = np.random.default_rng(9)
        x = rng.uniform(0, 1, (1,) + spec.input_shape)
        y = np.array([0])
        cfg = TrainConfig(update_rule="one_sided", learning_rates=(0.1,) * 3)
        est_a = training.ep_estimate(x, y, params, replace(spec, beta=1e-3), cfg)
        est_b = training.ep_estimate(x, y, params, replace(spec, beta=5e-4), cfg)
        # estimates differ by O(beta)
        num = np.sqrt(sum(np.sum((a - b) ** 2)
                          for (_, a), (_, b) in zip(est_a.tensors(), est_b.tensors())))
        den = np.sqrt(sum(np.sum(a ** 2) for _, a in est_a.tensors()))
        assert num / den < 0.05

    def test_symmetric_gdu_cosine_and_magnitude(self):
        spec, params = oracle_model(10, beta=0.01)
        rng = np.random.default_rng(11)
        x = rng.uniform(0, 1, (1,) + spec.input_shape)
        y = np.array([2])
        est = training.ep_estimate(x, y, params, spec, TrainConfig(learning_rates=(0.1,) * 3))
        ref = fd_param_grads(x, y, params, spec)
        got = dict(est.tensors())
        for name, fd in ref.items():
            g = got[name]
            cos = np.vdot(g, fd) / (np.linalg.norm(g) * np.linalg.norm(fd))
            assert cos >= 0.99, name
            assert abs(np.linalg.norm(g) / np.linalg.norm(fd) - 1.0) < 0.10, name

    def test_near_zero_estimate_on_saturated_correct_prediction(self):
        # when the readout already puts all softmax mass on the right class
        # the nudge force vanishes and the contrastive estimate collapses
        spec, params = oracle_model(12, t_nudge=60, beta=0.05)
        rng = np.random.default_rng(13)
        x = rng.uniform(0, 1, (1,) + spec.input_shape)
        star = energy.free_phase(x, params, spec)
        label, _ = int(np.argmax(energy.readout(star, params, spec))), None
        params.w[-1] *= 100.0  # temperature -> saturated softmax
        params.b[-1] *= 100.0
        cfg = TrainConfig(learning_rates=(0.1,) * 3)
        est = training.ep_estimate(x, np.array([label]), params, spec, cfg)
        scale = np.sqrt(sum(np.sum(t ** 2) for _, t in est.tensors()))
        wrong = training.ep_estimate(
            x, np.array([(label + 1) % 3]), params, spec, cfg)
        wrong_scale = np.sqrt(sum(np.sum(t ** 2) for _, t in wrong.tensors()))
        assert scale < 1e-3 * wrong_scale

    @pytest.mark.parametrize("rule", ["one_sided", "symmetric"])
    def test_estimate_is_its_rules_formula_bit_for_bit(self, rule):
        # one_sided (1/beta) G(s*) + (-1/beta) G(s+), symmetric
        # (1/2beta) G(s-) + (-1/2beta) G(s+), each built from the phases
        spec, params = oracle_model(16)
        x = np.random.default_rng(17).uniform(0, 1, (3,) + spec.input_shape)
        y = np.array([0, 2, 1])
        beta = spec.beta
        star = energy.free_phase(x, params, spec)
        plus = energy.nudged_phase(x, params, spec, star, y, beta)
        if rule == "one_sided":
            low, a, b = star, 1.0 / beta, -1.0 / beta
        else:
            low = energy.nudged_phase(x, params, spec, star, y, -beta)
            a, b = 1.0 / (2.0 * beta), -1.0 / (2.0 * beta)
        g_low = dict(training.phi_grad_params(x, low, params, spec).tensors())
        g_plus = dict(training.phi_grad_params(x, plus, params, spec).tensors())
        est = training.ep_estimate(x, y, params, spec, TrainConfig(update_rule=rule))
        for name, got in est.tensors():
            want = a * g_low[name] + b * g_plus[name]
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name

    def test_order_of_accuracy_one_sided_and_symmetric(self):
        spec, params = oracle_model(14)
        rng = np.random.default_rng(15)
        x = rng.uniform(0, 1, (1,) + spec.input_shape)
        y = np.array([1])
        ref = fd_param_grads(x, y, params, spec)

        def err(rule, beta):
            est = training.ep_estimate(x, y, params, replace(spec, beta=beta), TrainConfig(
                update_rule=rule, learning_rates=(0.1,) * 3))
            got = dict(est.tensors())
            return np.sqrt(sum(np.sum((got[n] - ref[n]) ** 2) for n in ref))

        one = err("one_sided", 0.01) / err("one_sided", 0.005)
        sym = err("symmetric", 0.01) / err("symmetric", 0.005)
        assert 1.7 <= one <= 2.3
        assert 3.4 <= sym <= 4.6


class TestTrainLoops:
    def test_zero_learning_rates_nothing_moves(self, desk_data):
        train, _ = desk_data
        spec = desk_spec()
        cfg = desk_train_config(epochs=1, learning_rates=(0.0, 0.0))
        params, _ = training.train("ep", train, spec, cfg)
        fresh = init_params(spec, np.random.default_rng(cfg.seed), dtype=np.float32)
        for (_, a), (_, b) in zip(params.tensors(), fresh.tensors()):
            assert np.array_equal(a, b)

    def test_same_seed_identical_history(self, desk_data):
        train, _ = desk_data
        spec = desk_spec()
        cfg = desk_train_config(epochs=2)
        p1, h1 = training.train("ep", train, spec, cfg)
        p2, h2 = training.train("ep", train, spec, cfg)
        assert h1 == h2
        for (_, a), (_, b) in zip(p1.tensors(), p2.tensors()):
            assert np.array_equal(a, b)

    def test_divergence_aborts_with_location(self, desk_data):
        # clamped states keep gradients bounded, so only a rate near the
        # float32 ceiling can actually overflow the parameters
        train, _ = desk_data
        spec = desk_spec()
        cfg = desk_train_config(epochs=1, learning_rates=(1e38, 1e38))
        with np.errstate(over="ignore"), pytest.raises(DivergenceError, match="epoch 0"):
            training.train("ep", train, spec, cfg)

    def test_default_learning_rates_fit_any_model(self):
        # an empty learning_rates means 0.05 for every connection
        rng = np.random.default_rng(0)
        for spec, params in (one_conv_model(rng), tiny_model(rng)):
            TrainConfig().validate_for(spec)
            grads = params.map(lambda t: rng.standard_normal(t.shape))
            explicit = TrainConfig(learning_rates=(0.05,) * (spec.n_layers + 1))
            stepped = []
            for cfg in (TrainConfig(), explicit):
                p = params.map(np.copy)
                training.sgd_momentum_step(p, grads, params.map(np.zeros_like), cfg)
                stepped.append(p)
            assert all(np.array_equal(a, b) for (_, a), (_, b) in
                       zip(stepped[0].tensors(), stepped[1].tensors()))
            assert not np.array_equal(stepped[0].w[0], params.w[0])

    def test_lr_count_validated(self, desk_data):
        train, _ = desk_data
        spec = desk_spec()
        cfg = desk_train_config(learning_rates=(0.1,))
        with pytest.raises(ValueError, match="learning rates"):
            training.train("ep", train, spec, cfg)

    @pytest.mark.parametrize("field, value, message", [
        ("momentum", np.nan, "momentum must be finite, got nan"),
        ("adv_epsilon", -np.inf, "adv_epsilon must be finite, got -inf"),
        ("momentum", np.inf, "momentum must be finite, got inf"),
        ("adv_epsilon", np.inf, "adv_epsilon must be finite, got inf"),
        ("learning_rates", (0.1, np.inf), r"learning_rates must be >= 0 and finite"),
    ])
    def test_non_finite_setting_named(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            TrainConfig(**{field: value})

    def test_ep_reaches_95_train_accuracy(self, trained_ep):
        _, _, history = trained_ep
        assert history[-1]["train_acc"] >= 0.95

    def test_ep_history_counts_free_phase_steps(self, desk_data):
        # one minibatch holding the whole set: the epoch's free phase runs at
        # the initial parameters, and its per-example counts ignore the order
        train = desk_data[0].subset(64)
        spec = ModelSpec(input_shape=(1, 8, 8),
                         conv=(ConvSpec(1, 4, 3, 1), ConvSpec(4, 8, 3, 1)),
                         readout_dim=2, t_free=60, t_nudge=15)
        cfg = desk_train_config(epochs=1, batch_size=64, learning_rates=(0.2, 0.1, 0.05))
        _, history = training.train("ep", train, spec, cfg)
        params = init_params(spec, np.random.default_rng(0), dtype=np.float32)
        st = energy.free_phase(np.asarray(train.images, dtype=np.float64), params, spec)
        assert len(set(st.example_steps.tolist())) > 1
        assert history[0]["free_steps_mean"] == st.example_steps.mean()
        assert history[0]["free_steps_max"] == st.steps
        assert history[0]["unconverged_frac"] == np.mean(st.residual >= spec.fp_tol)

    def test_bp_matches_training_contract(self, trained_bp):
        _, _, history = trained_bp
        assert history[-1]["train_acc"] >= 0.95

    def test_adv_eps_zero_identical_to_bp(self, desk_data):
        train, _ = desk_data
        spec = desk_spec()
        cfg_a = desk_train_config(epochs=2, adv_norm="l2", adv_epsilon=0.0, adv_steps=5)
        cfg_b = desk_train_config(epochs=2)
        pa, ha = training.train("adv", train, spec, cfg_a)
        pb, hb = training.train("bp", train, spec, cfg_b)
        assert ha == hb
        for (_, a), (_, b) in zip(pa.tensors(), pb.tensors()):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("norm, epsilon", [("l2", 0.5), ("linf", 0.1)])
    def test_adv_crafts_batches_in_the_ball_and_box(self, desk_data, monkeypatch,
                                                    norm, epsilon):
        # an epoch draws its batch order before crafting any batch, so a
        # one-epoch bp run steps on the clean batches that adv crafts from
        train, _ = desk_data
        seen, step = [], training._bp_batch_grads

        def recording(params, spec, xs, ys):
            seen.append(xs.copy())
            return step(params, spec, xs, ys)

        monkeypatch.setattr(training, "_bp_batch_grads", recording)
        cfg = desk_train_config(epochs=1, adv_norm=norm, adv_epsilon=epsilon, adv_steps=3)
        training.train("bp", train, desk_spec(), cfg)
        clean = list(seen)
        seen.clear()
        training.train("adv", train, desk_spec(), cfg)
        assert len(seen) == len(clean) == 8
        for x0, x in zip(clean, seen):
            delta = (x - x0).reshape(len(x0), -1)
            size = (np.abs(delta).max(axis=1) if norm == "linf"
                    else np.linalg.norm(delta, axis=1))
            assert np.all(size <= epsilon * (1 + 1e-12)) and size.max() > 0
            assert x.min() >= 0.0 and x.max() <= 1.0

    def test_unknown_kind_named(self, desk_data):
        train, _ = desk_data
        with pytest.raises(ValueError, match="'svm'"):
            training.train("svm", train, desk_spec(), desk_train_config())

    @pytest.mark.parametrize("kind", ["ep", "bp", "adv"])
    def test_empty_dataset_rejected(self, desk_data, kind):
        train, _ = desk_data
        with pytest.raises(ValueError, match="empty dataset"):
            training.train(kind, train.subset(0), desk_spec(), desk_train_config())

    def test_adv_defaults(self):
        cfg = TrainConfig()
        assert (cfg.adv_norm, cfg.adv_epsilon, cfg.adv_steps) == ("l2", 0.5, 10)


class TestBPGradients:
    @pytest.mark.parametrize("make_model", [tiny_model, one_conv_model],
                             ids=["conv", "one_conv"])
    def test_param_grads_match_fd(self, make_model):
        rng = np.random.default_rng(16)
        spec, params = make_model(np.random.default_rng(17), scale=1.0)
        xs = rng.uniform(0, 1, (3,) + spec.input_shape)
        ys = np.array([0, 1, 2])
        grads = dict(baseline._bp_batch_grads(params, spec, xs, ys).tensors())

        def loss():
            z = baseline.bp_forward(xs, params, spec)
            return float(np.mean(energy.cross_entropy(z, ys)))

        h = 1e-6
        for name, arr in params.tensors():
            targets = list(np.ndindex(arr.shape))
            pick = [targets[i] for i in rng.choice(len(targets),
                                                   min(8, len(targets)), replace=False)]
            for ix in pick:
                orig = arr[ix]
                arr[ix] = orig + h
                lp = loss()
                arr[ix] = orig - h
                lm = loss()
                arr[ix] = orig
                fd = (lp - lm) / (2 * h)
                if abs(fd) > 1e-8:
                    assert abs(fd - grads[name][ix]) / abs(fd) < 1e-4, name

    @pytest.mark.parametrize("make_model", [tiny_model, one_conv_model],
                             ids=["conv", "one_conv"])
    def test_input_grad_directional(self, make_model):
        rng = np.random.default_rng(18)
        spec, params = make_model(np.random.default_rng(19))
        xs = rng.uniform(0.1, 0.9, (2,) + spec.input_shape)
        ys = np.array([1, 0])
        _, gx = for_params(params, spec, "bp", None).loss_grad(xs, ys)
        v = rng.standard_normal(xs.shape)
        v /= np.linalg.norm(v)
        h = 1e-5
        lp = np.mean(energy.cross_entropy(baseline.bp_forward(xs + h * v, params, spec), ys))
        lm = np.mean(energy.cross_entropy(baseline.bp_forward(xs - h * v, params, spec), ys))
        fd = (lp - lm) / (2 * h)
        an = float(np.vdot(gx, v)) / 2  # per-example grads, mean loss
        assert abs(fd - an) / abs(an) < 1e-4

    @pytest.mark.parametrize("make_model", [tiny_model, one_conv_model],
                             ids=["conv", "one_conv"])
    def test_each_caller_computes_only_its_part(self, make_model, monkeypatch):
        # the pullback takes the input gradient without any weight gradient,
        # a training step the parameter gradients without connection 0's
        # adjoint; each keeps the bits of the full sweep
        rng = np.random.default_rng(20)
        spec, params = make_model(np.random.default_rng(21))
        xs = rng.uniform(0, 1, (3,) + spec.input_shape)
        ys = np.array([0, 1, 2])
        logits, cache = baseline.bp_forward(xs, params, spec, collect=True)
        g_logits = energy.cross_entropy_grad(logits, ys) / len(ys)
        full_grads, full_gx = baseline.bp_backward(cache, params, spec, g_logits)
        calls = {"conv2d_weight_grad": 0, "conv2d_transpose": 0}
        for name in calls:
            def counted(*args, _f=getattr(ops, name), _name=name):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(ops, name, counted)

        _, vjp = baseline.bp_logits_and_vjp(xs, params, spec)
        assert vjp(g_logits).tobytes() == full_gx.tobytes()
        assert calls == {"conv2d_weight_grad": 0, "conv2d_transpose": spec.n_layers}
        calls.update(conv2d_weight_grad=0, conv2d_transpose=0)
        grads = baseline._bp_batch_grads(params, spec, xs, ys)
        for (name, a), (_, b) in zip(grads.tensors(), full_grads.tensors(), strict=True):
            assert a.tobytes() == b.tobytes(), name
        assert calls == {"conv2d_weight_grad": spec.n_layers,
                         "conv2d_transpose": spec.n_layers - 1}


# one fixed batch through a free phase, the unrolled input gradients and an EP
# step; the raw bytes of every result go to stdout
THREAD_PROBE = """
import sys
import numpy as np
from conftest import tiny_model
from epbench import energy, ops, training
from epbench.handle import for_params

spec, params = tiny_model(np.random.default_rng(3), scale=0.9, t_free=40, t_nudge=10,
                          beta=0.4)
xs = np.random.default_rng(4).uniform(0, 1, (6,) + spec.input_shape)
ys = np.array([0, 1, 2, 0, 1, 2])
cfg = training.TrainConfig(learning_rates=(0.1, 0.1, 0.1))
out = energy.free_phase(xs, params, spec).layers
out += for_params(params, spec, "ep", 12).loss_grad(xs, ys)
out += [t for _, t in training._ep_batch_grads(params, spec, cfg, xs, ys).tensors()]
# mid shape: each example's product is large enough for BLAS to use threads
conv = ops.ConvSpec(32, 64, 3, 1)
rng = np.random.default_rng(5)
x, w = rng.uniform(0, 1, (8, 32, 16, 16)), rng.standard_normal((64, 32, 3, 3)) * 0.1
y = ops.conv2d(x, w, conv)
out += [y, ops.conv2d_transpose(y, w, conv), ops.conv2d_weight_grad(x, y, conv)]
sys.stdout.buffer.write(b"".join(np.ascontiguousarray(a).tobytes() for a in out))
"""


def test_bit_identical_across_thread_counts():
    src = str(Path(training.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, str(Path(__file__).parent),
                                               os.environ.get("PYTHONPATH", "")]))
        runs.append(subprocess.run([sys.executable, "-c", THREAD_PROBE], env=env,
                                   capture_output=True, check=True).stdout)
    assert len(runs[0]) > 0
    assert runs[0] == runs[1]
