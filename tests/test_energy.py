"""Energy function and dynamics: summation oracles, finite differences of the
state gradient, fixed-point behavior, nudging, readout, and prediction; the
op plans that a relaxation builds once and the calls after it reuse, across
row compressions and per thread."""

import math
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from epbench import energy, ops, training, unrolled
from epbench.model import ModelSpec, NetworkState, init_params, zero_state
from epbench.ops import ConvSpec

from conftest import one_conv_model, tiny_model


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

    def test_single_connection_hand_value(self):
        # two 1x1 convs on 1x4x4: phi = s^2 * max-pool(w1 * s^1) once
        # connection 0 and the biases are silenced
        spec = ModelSpec(input_shape=(1, 4, 4),
                         conv=(ConvSpec(1, 1, 1, 0), ConvSpec(1, 1, 1, 0)),
                         readout_dim=2, t_free=10)
        params = init_params(spec, np.random.default_rng(0), dtype=np.float64)
        params.w[0][:] = 0.0
        params.b[0][:] = 0.0
        params.b[1][:] = 0.0
        params.w[1][:] = 2.0
        st = zero_state(spec, 1)
        st.layers[0][0, 0] = [[3.0, 1.0], [0.5, 2.0]]  # pre-synaptic s^1, 1x2x2
        st.layers[1][:] = 1.0   # post-synaptic s^2, 1x1x1
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

    def test_two_layer_hand_arithmetic(self):
        # x = 1 on 1x4x4 -> 1x1 conv w1 = 2 -> s^1 (1x2x2) -> 1x1 conv w2 = 3
        # -> s^2 (1x1x1), no biases: dPhi/ds^1 = pool(w1 x) + w2 unpool(s^2)
        # along the argmax of w2 s^1, dPhi/ds^2 = max-pool(w2 s^1)
        spec = ModelSpec(input_shape=(1, 4, 4),
                         conv=(ConvSpec(1, 1, 1, 0), ConvSpec(1, 1, 1, 0)),
                         readout_dim=2, t_free=10)
        params = init_params(spec, np.random.default_rng(0), dtype=np.float64)
        params.w[0][:] = 2.0
        params.b[0][:] = 0.0
        params.w[1][:] = 3.0
        params.b[1][:] = 0.0
        x = np.full(spec.input_shape, 1.0)[None]
        st = zero_state(spec, 1)
        st.layers[0][0, 0] = [[0.5, 0.125], [0.25, 0.375]]
        st.layers[1][:] = 0.25
        g = energy.phi_grad_state(x, st, params, spec)
        # bottom-up 2 everywhere; top-down 3 * 0.25 only at s^1's argmax
        assert np.array_equal(g[0][0, 0], [[2.0 + 0.75, 2.0], [2.0, 2.0]])
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
        again = energy.nudged_phase(x, params, replace(spec, t_nudge=1), st,
                                    np.array([0, 0]), 0.0)
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
            assert np.array_equal(idx[0], tape.route0)
            assert len(idx[1:]) == len(tape.pool_idx[t])
            assert all(np.array_equal(a, b) for a, b in zip(idx[1:], tape.pool_idx[t]))
            assert all(np.array_equal(a, b) for a, b in zip(masks, tape.masks[t]))
        assert all(np.array_equal(a, b) for a, b in zip(layers, tape.final))


@pytest.mark.parametrize("run", ["free_phase", "nudged_phase", "record_free_phase"])
def test_zero_steps_rejected(run):
    # the nudged phase runs spec.t_nudge steps, which the spec keeps >= 1
    spec, params = tiny_model(np.random.default_rng(17))
    x = rng_global.uniform(0, 1, (2,) + spec.input_shape)
    calls = {
        "free_phase": (lambda: energy.free_phase(x, params, spec, t=0), "t >= 1"),
        "nudged_phase": (lambda: energy.nudged_phase(
            x, params, replace(spec, t_nudge=0), zero_state(spec, 2), np.array([0, 1]), 0.5),
            "t_nudge must be >= 1"),
        "record_free_phase": (lambda: unrolled.record_free_phase(x, params, spec, 0),
                              "t >= 1"),
    }
    call, message = calls[run]
    with pytest.raises(ValueError, match=message):
        call()


class TestNudgedPhase:
    def test_beta_zero_equals_free_continuation(self):
        rng = np.random.default_rng(10)
        spec, params = tiny_model(rng, scale=0.8)
        x = rng.uniform(0, 1, (1,) + spec.input_shape)
        half = energy.free_phase(x, params, spec, t=7, fp_tol=0.0)
        cont = energy.nudged_phase(x, params, replace(spec, t_nudge=5), half,
                                   np.array([1]), 0.0)
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


HOIST_MODELS = {
    "2-conv": lambda rng: tiny_model(rng, scale=0.9),
    # one layer: the nudge lands on the layer whose input drive is cached
    "1-conv": lambda rng: one_conv_model(rng, scale=0.9),
}


def _step_loop(x, layers, params, spec, t, tol, **kw):
    """t dynamics_step calls that each compute the input drive themselves,
    stopping as a relaxation does: (layers, steps, routes, masks)."""
    routes, masks = [], []
    for steps in range(1, t + 1):
        new, idx, mask = energy.dynamics_step(x, layers, params, spec,
                                              collect=True, **kw)
        routes.append(idx)
        masks.append(mask)
        done = tol > 0 and max(np.max(np.abs(n - o)) for n, o in zip(new, layers)) < tol
        layers = new
        if done:
            break
    return layers, steps, routes, masks


def _same(a, b):
    """Equal lists of arrays, bit for bit."""
    return len(a) == len(b) and all(
        u.dtype == v.dtype and u.shape == v.shape and u.tobytes() == v.tobytes()
        for u, v in zip(a, b))


@pytest.mark.parametrize("model", list(HOIST_MODELS))
class TestInputDriveHoist:
    """Relaxations compute connection 0's drive once; their results equal a
    loop of steps that recompute it, bit for bit, and leave x and the params
    untouched."""

    def setup_method(self):
        self.rng = np.random.default_rng(41)

    def _model(self, model):
        spec, params = HOIST_MODELS[model](self.rng)
        x = self.rng.uniform(0, 1, (3,) + spec.input_shape)
        return spec, params, x, x.copy(), [a.copy() for _, a in params.tensors()]

    def _untouched(self, params, x, x0, p0):
        assert x.tobytes() == x0.tobytes()
        assert _same([a for _, a in params.tensors()], p0)

    @pytest.mark.parametrize("tol", [1e-6, 0.0], ids=["early exit", "all steps"])
    def test_free_phase(self, model, tol):
        spec, params, x, x0, p0 = self._model(model)
        st = energy.free_phase(x, params, spec, t=100, fp_tol=tol)
        self._untouched(params, x, x0, p0)
        if tol:  # each example stops on its own residual, as it does alone
            solo = [_step_loop(x[i:i + 1], zero_state(spec, 1).layers, params, spec,
                               100, tol) for i in range(3)]
            layers = [np.concatenate(rows) for rows in zip(*(r[0] for r in solo))]
            steps = [r[1] for r in solo]
        else:
            layers, t, _, _ = _step_loop(x, zero_state(spec, 3).layers, params, spec,
                                         100, tol)
            steps = [t] * 3
        assert st.example_steps.tolist() == steps
        assert st.steps == max(steps)
        assert max(steps) < 100 if tol else max(steps) == 100
        assert _same(st.layers, layers)

    @pytest.mark.parametrize("beta", [0.5, -0.5])
    def test_nudged_phase(self, model, beta):
        spec, params, x, x0, p0 = self._model(model)
        y = np.array([0, 2, 1])
        free = energy.free_phase(x, params, spec, t=5, fp_tol=0.0)
        st = energy.nudged_phase(x, params, replace(spec, t_nudge=6), free, y, beta)
        self._untouched(params, x, x0, p0)
        layers, _, _, _ = _step_loop(x, free.layers, params, spec, 6, 0.0, y=y,
                                     beta_signed=beta)
        assert st.steps == 11
        assert _same(st.layers, layers)

    def test_record_free_phase(self, model):
        spec, params, x, x0, p0 = self._model(model)
        tape = unrolled.record_free_phase(x, params, spec, 12)
        self._untouched(params, x, x0, p0)
        layers, _, routes, masks = _step_loop(x, zero_state(spec, 3).layers, params,
                                              spec, 12, 0.0)
        assert len(tape.pool_idx) == len(routes)
        assert all(_same([tape.route0], r[:1]) for r in routes)
        assert all(_same(a, b[1:]) for a, b in zip(tape.pool_idx, routes))
        assert all(_same(a, b) for a, b in zip(tape.masks, masks))
        assert _same(tape.final, layers)
        # the relaxation computes route 0 once and hands every step that array
        _, relaxed, _ = energy._relax(x, None, params, spec, 12, 0.0, record=True)
        assert all(r[0] is relaxed[0][0] for r in relaxed)


def _fields(st):
    """A state's per-example arrays: its layers, example_steps and residual."""
    return st.layers + [st.example_steps, st.residual]


class TestPerExampleExit:
    """An early-exit free phase freezes each example at the first step where
    its own residual drops below fp_tol, so every per-example field holds the
    bits of the example's solo run, whatever the batch size or order."""

    def setup_method(self):
        rng = np.random.default_rng(51)
        self.spec, self.params = tiny_model(rng, scale=0.9)
        self.x = rng.uniform(0, 1, (16,) + self.spec.input_shape)
        self.rng = rng

    def _free(self, x, **kw):
        return energy.free_phase(x, self.params, self.spec, **kw)

    @pytest.mark.parametrize("batch", [1, 5, 16])
    def test_batch_size_invariant(self, batch):
        full = self._free(self.x)
        for b0 in range(0, len(self.x), batch):
            part = self._free(self.x[b0:b0 + batch])
            assert _same([a[b0:b0 + batch] for a in _fields(full)], _fields(part))
            assert part.steps == part.example_steps.max()

    def test_order_invariant(self):
        full = self._free(self.x)
        perm = self.rng.permutation(len(self.x))
        assert _same([a[perm] for a in _fields(full)], _fields(self._free(self.x[perm])))

    def test_rows_finish_at_different_steps(self):
        st = self._free(self.x)
        assert len(set(st.example_steps.tolist())) > 1
        assert st.steps == st.example_steps.max() < self.spec.t_free
        assert np.all(st.residual < self.spec.fp_tol)
        for i, k in enumerate(st.example_steps):
            # the frozen row is the fixed-step state at its own exit step, and
            # its residual is that step's difference
            at = self._free(self.x[i:i + 1], t=k, fp_tol=0.0)
            before = self._free(self.x[i:i + 1], t=k - 1, fp_tol=0.0)
            assert _same([s[i:i + 1] for s in st.layers], at.layers)
            assert st.residual[i] == max(np.max(np.abs(a - b))
                                         for a, b in zip(at.layers, before.layers))

    def test_all_rows_finish_on_the_same_step(self):
        x = np.repeat(self.x[:1], 6, axis=0)
        st, solo = self._free(x), self._free(x[:1])
        assert st.example_steps.tolist() == [solo.steps] * 6
        assert _same(_fields(st), [np.repeat(a, 6, axis=0) for a in _fields(solo)])

    def test_no_row_finishes_before_the_cap(self):
        st = self._free(self.x, t=5)
        fixed = self._free(self.x, t=5, fp_tol=0.0)
        assert st.steps == 5 and st.example_steps.tolist() == [5] * len(self.x)
        assert np.all(st.residual >= self.spec.fp_tol)
        assert _same(_fields(st), _fields(fixed))

    def test_nudged_phase_adds_the_free_counts(self):
        free = self._free(self.x[:4])
        st = energy.nudged_phase(self.x[:4], self.params, replace(self.spec, t_nudge=3),
                                 free, np.array([0, 1, 2, 0]), 0.5)
        assert st.example_steps.tolist() == (free.example_steps + 3).tolist()
        assert st.steps == free.steps + 3


def _count_plans(monkeypatch):
    """A list with (class name, operand shape) of every plan built from a
    fresh thread scratch on, the plan classes patched in ops."""
    monkeypatch.setattr(ops, "_scratch", threading.local())
    built = []
    for name in ("_ConvPlan", "_PoolPlan"):
        def counted(shape, *args, _real=getattr(ops, name), _name=name):
            built.append((_name, tuple(shape)))
            return _real(shape, *args)
        monkeypatch.setattr(ops, name, counted)
    return built


# tiny_model at B = 16: connection 0 reads x [16, 1, 8, 8] and pools its
# [16, 4, 8, 8] conv output; connection 1 reads layer 0 [16, 4, 4, 4], pools
# its [16, 8, 4, 4] conv output and takes its adjoint on an unpooled layer 1
# of that shape
RELAXATION_PLANS = [("_ConvPlan", (16, 1, 8, 8)), ("_ConvPlan", (16, 4, 4, 4)),
                    ("_ConvPlan", (16, 8, 4, 4)), ("_PoolPlan", (16, 4, 8, 8)),
                    ("_PoolPlan", (16, 8, 4, 4))]


class TestPlans:
    """ops builds a plan the first time a thread meets its operand geometry:
    a relaxation builds each of its plans once, across its row compressions,
    and the calls and relaxations of the same geometry after it build none;
    a plan holds one run of buffers, and no two threads share one."""

    def setup_method(self):
        rng = np.random.default_rng(51)
        self.spec, self.params = tiny_model(rng, scale=0.9)
        self.x = rng.uniform(0, 1, (16,) + self.spec.input_shape)

    def test_a_relaxation_builds_each_plan_once(self, monkeypatch):
        built = _count_plans(monkeypatch)
        st = energy.free_phase(self.x, self.params, self.spec)
        # rows finished at several steps, so the batch was compressed
        assert len(set(st.example_steps.tolist())) > 2
        assert sorted(built) == RELAXATION_PLANS
        # the nudged phase, the parameter gradient and a second relaxation
        # meet the same geometries
        energy.nudged_phase(self.x, self.params, replace(self.spec, t_nudge=3), st,
                            np.zeros(16, int), 0.5)
        training.phi_grad_params(self.x, st, self.params, self.spec)
        energy.free_phase(self.x, self.params, self.spec)
        assert sorted(built) == RELAXATION_PLANS

    def test_single_calls_build_no_plans(self, monkeypatch):
        built = _count_plans(monkeypatch)
        st = energy.free_phase(self.x, self.params, self.spec, t=3)
        assert len(built) == len(RELAXATION_PLANS)
        built.clear()
        energy.phi(self.x, st, self.params, self.spec)
        energy.phi_grad_state(self.x, st, self.params, self.spec)
        energy.dynamics_step(self.x, st.layers, self.params, self.spec)
        training.phi_grad_params(self.x, st, self.params, self.spec)
        assert built == []

    def test_concurrent_relaxations_keep_their_solo_bits(self, monkeypatch):
        # four threads relax different inputs at once, switching often; runs
        # of at most four examples (two for the adjoints) make every conv of
        # a 5-row batch fill and refill its buffers
        monkeypatch.setattr(ops, "_RUN_BYTES", 2 * 8 * 8 * 9 * 16)
        monkeypatch.setattr(ops, "_scratch", threading.local())
        xs = np.random.default_rng(57).uniform(0, 1, (4, 5) + self.spec.input_shape)
        g = np.random.default_rng(58).standard_normal((5, self.spec.readout_dim))

        def bits(i):
            st = energy.free_phase(xs[i], self.params, self.spec)
            logits, vjp = unrolled.logits_and_vjp(xs[i], self.params, self.spec, 9)
            return b"".join(a.tobytes() for a in _fields(st) + [logits, vjp(g)])

        want = [bits(i) for i in range(4)]
        bad, used, finished = [], [], []
        real = ops._Plan._scratch

        def recorded(plan, n):
            # every float64 conv and pooling run takes its buffers here
            used.append((threading.current_thread(), plan))
            return real(plan, n)

        monkeypatch.setattr(ops._Plan, "_scratch", recorded)

        def work(i):
            for _ in range(10):
                if bits(i) != want[i]:
                    bad.append(i)
            finished.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert bad == [] and sorted(finished) == [0, 1, 2, 3]
        users = {}
        for thread, plan in used:
            users.setdefault(id(plan), set()).add(thread)
        assert {t for t, _ in used} == set(threads)
        assert all(len(u) == 1 for u in users.values())

    def test_a_plan_holds_one_run(self, monkeypatch):
        # the mid spec at B = 32: whole-batch columns would take 18.9 MB for
        # connection 1's conv and 37.7 MB for its adjoint. Measured from the
        # first step on, a relaxation whose connection 1 plans are dropped
        # holds no more than one step with every plan built, plus one run of
        # each plan it builds again
        spec = ModelSpec(input_shape=(3, 32, 32),
                         conv=(ConvSpec(3, 32, 3, 1), ConvSpec(32, 64, 3, 1)),
                         readout_dim=10, t_free=4, t_nudge=2)
        params = init_params(spec, np.random.default_rng(59), dtype=np.float64)
        x = np.random.default_rng(60).uniform(0, 1, (32,) + spec.input_shape)
        layers = zero_state(spec, 32).layers
        net = energy._prepare(params, spec)
        monkeypatch.setattr(ops, "_scratch", threading.local())
        fixed = net, energy._input_drive(x, net)
        energy.dynamics_step(x, layers, params, spec, fixed=fixed)  # grows the scratch
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            energy.dynamics_step(x, layers, params, spec, fixed=fixed)
            step = tracemalloc.get_traced_memory()[1] - start
            ops._scratch.plans.clear()
            plans, marks, real = [], [], energy.dynamics_step
            for name in ("_ConvPlan", "_PoolPlan"):
                def kept(*args, _real=getattr(ops, name)):
                    plan = _real(*args)
                    if marks:  # built from the first step on
                        plans.append(plan)
                    return plan
                monkeypatch.setattr(ops, name, kept)

            def first_step_resets_the_peak(*args, **kw):
                if not marks:
                    marks.append(tracemalloc.get_traced_memory()[0])
                    tracemalloc.reset_peak()
                return real(*args, **kw)

            monkeypatch.setattr(energy, "dynamics_step", first_step_resets_the_peak)
            energy.free_phase(x, params, spec, t=4, fp_tol=0.0)
            peak = tracemalloc.get_traced_memory()[1] - marks[0]
        finally:
            tracemalloc.stop()
        runs = sum(8 * math.prod(p.held) + getattr(p, "xp", np.empty(0)).nbytes
                   for p in plans)
        assert len(plans) == 3 and runs < 4 << 20
        assert peak <= step + runs + (64 << 10)


@pytest.mark.parametrize("make_model", [tiny_model, one_conv_model])
def test_steps_is_the_most_example_steps(make_model):
    # steps is read from example_steps, never stored beside it
    rng = np.random.default_rng(53)
    spec, params = make_model(rng, scale=0.9)
    x = rng.uniform(0, 1, (8,) + spec.input_shape)
    free = energy.free_phase(x, params, spec)
    nudged = energy.nudged_phase(x, params, spec, free, np.arange(8) % 2, 0.5)
    for st in (free, nudged):
        assert st.steps == st.example_steps.max()
    with pytest.raises(AttributeError):
        free.steps = 3


class TestEmptyBatch:
    """A batch of zero examples gives empty results, not a numpy error."""

    def setup_method(self):
        self.spec, self.params = tiny_model(np.random.default_rng(52))
        self.x = np.zeros((0,) + self.spec.input_shape)

    @pytest.mark.parametrize("tol", [1e-6, 0.0], ids=["early exit", "all steps"])
    def test_free_phase(self, tol):
        st = energy.free_phase(self.x, self.params, self.spec, fp_tol=tol)
        want = [(0,) + shape for shape in self.spec.state_shapes()]
        assert [s.shape for s in st.layers] == want
        assert st.steps == 0
        assert st.example_steps.shape == st.residual.shape == (0,)

    def test_logits_at(self):
        z = energy.logits_at(self.x, self.params, self.spec, 5)
        assert z.shape == (0, self.spec.readout_dim)


def _count_ops(monkeypatch, names):
    """A {name: calls} dict, starting at 0, counting each call of the named
    public ops functions, nested calls (conv2d inside conv2d_transpose)
    included."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _f=getattr(ops, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(ops, name, counted)
    return calls


def test_free_phase_computes_the_input_drive_once(monkeypatch):
    # per step of a 2-conv model: connection 1's drive (one conv2d, one
    # maxpool2), its feedback (one unpool2 and one conv2d_transpose, which
    # runs one conv2d) and one clamp per layer; connection 0's conv2d and
    # maxpool2 run once before the first step
    spec, params = tiny_model(np.random.default_rng(43))
    x = np.random.default_rng(44).uniform(0, 1, (2,) + spec.input_shape)
    calls = _count_ops(monkeypatch, ["conv2d", "maxpool2", "unpool2",
                                     "conv2d_transpose", "hard_clamp"])
    for t in (1, 7):
        calls.update(dict.fromkeys(calls, 0))
        energy.free_phase(x, params, spec, t=t, fp_tol=0.0)
        assert calls == {"conv2d": 1 + 2 * t, "maxpool2": 1 + t, "unpool2": t,
                         "conv2d_transpose": t, "hard_clamp": 2 * t}


def test_reverse_pass_calls_per_step(monkeypatch):
    # per reverse step of a 2-conv model: connection 1's bottom-up term (one
    # unpool2, one conv2d inside conv2d_transpose) and its top-down term (one
    # conv2d, one pool_gather); connection 0's adjoint (one unpool2, one
    # conv2d) runs once after the last step
    spec, params = tiny_model(np.random.default_rng(43))
    x = np.random.default_rng(44).uniform(0, 1, (2,) + spec.input_shape)
    g_logits = np.random.default_rng(45).standard_normal((2, spec.readout_dim))
    for t in (1, 7):
        tape = unrolled.record_free_phase(x, params, spec, t)
        with monkeypatch.context() as m:
            calls = _count_ops(m, ["conv2d", "pool_gather", "unpool2"])
            unrolled.backward_input(tape, x, params, spec, g_logits)
        assert calls == {"conv2d": 2 * t + 1, "pool_gather": t, "unpool2": t + 1}


def test_clamp_masks_mark_values_the_clamp_passes(monkeypatch):
    # a mask is True exactly where 0 <= pre <= 1: +-0 and 1 pass; NaN, the
    # infinities and values just outside the box do not
    spec, params = tiny_model(np.random.default_rng(45))
    values = np.array([np.nan, -0.0, 0.0, 1.0, 0.5, -5e-324, np.nextafter(1.0, 2.0),
                       -np.inf, np.inf, 2.0])
    pre = [values[None], values[::-1][None]]
    monkeypatch.setattr(energy, "_grad_state",
                        lambda *args: ([p.copy() for p in pre], [None, None]))
    x = np.zeros((1,) + spec.input_shape)
    _, _, masks = energy.dynamics_step(x, zero_state(spec, 1).layers, params, spec,
                                       collect=True)
    passes = np.array([False, True, True, True, True, False, False, False, False, False])
    assert [m.dtype for m in masks] == [np.dtype(bool)] * 2
    assert np.array_equal(masks[0][0], passes)
    assert np.array_equal(masks[1][0], passes[::-1])


@pytest.mark.parametrize("entry", ["phi", "phi_grad_state", "nudged_phase",
                                   "phi_grad_params", "dynamics_step"])
@pytest.mark.parametrize("where", [0, 1], ids=["every layer", "top layer"])
def test_state_batch_must_be_the_inputs(entry, where):
    # layers `where` and up of batch 2, read against an x of batch 3, are
    # refused before any work
    spec, params = tiny_model(np.random.default_rng(55))
    x = np.random.default_rng(56).uniform(0, 1, (3,) + spec.input_shape)
    full = energy.free_phase(x, params, spec, t=3, fp_tol=0.0)
    state = NetworkState([s[:2] if n >= where else s for n, s in enumerate(full.layers)])
    call = {
        "phi": lambda: energy.phi(x, state, params, spec),
        "phi_grad_state": lambda: energy.phi_grad_state(x, state, params, spec),
        "nudged_phase": lambda: energy.nudged_phase(x, params, spec, state,
                                                    np.array([0, 1, 2]), 0.5),
        "phi_grad_params": lambda: training.phi_grad_params(x, state, params, spec),
        "dynamics_step": lambda: energy.dynamics_step(x, state.layers, params, spec),
    }[entry]
    with pytest.raises(ops.ShapeError,
                       match=rf"^layer {where} state batch 2 != the input's batch 3$"):
        call()


@pytest.mark.parametrize("field", ["example_steps", "residual"])
def test_per_example_arrays_must_match_the_layers_batch(field):
    # a state whose layers hold 3 examples but whose example_steps or
    # residual holds 2 is refused when built, before nudged_phase can run on it
    spec, params = tiny_model(np.random.default_rng(60))
    x = np.random.default_rng(61).uniform(0, 1, (3,) + spec.input_shape)
    full = energy.free_phase(x, params, spec, t=3, fp_tol=0.0)
    arrays = {"example_steps": full.example_steps, "residual": full.residual}
    arrays[field] = arrays[field][:2]
    with pytest.raises(ops.ShapeError,
                       match=rf"^{field} shape \(2,\) != \(3,\), one entry per example "
                             r"of layer 0's batch 3$"):
        NetworkState(full.layers, **arrays)


def test_readout_state_layers_share_one_batch():
    spec, params = tiny_model(np.random.default_rng(57))
    state = zero_state(spec, 3)
    state.layers[1] = state.layers[1][:2]
    with pytest.raises(ops.ShapeError, match=r"^layer 1 state batch 2 != layer 0's batch 3$"):
        energy.readout(state, params, spec)


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
        # a 1x1 conv to two channels on 1x2x2: the top state is 2x1x1
        spec = ModelSpec(input_shape=(1, 2, 2), conv=(ConvSpec(1, 2, 1, 0),),
                         readout_dim=2, t_free=10)
        params = init_params(spec, np.random.default_rng(0), dtype=np.float64)
        params.w[-1] = np.eye(2)
        params.b[-1] = np.zeros(2)
        st = zero_state(spec, 1)
        st.layers[-1][0, :, 0, 0] = [0.3, 0.9]
        assert np.allclose(energy.readout(st, params, spec), [0.3, 0.9])
        # a top state of the right rank but the wrong extent is refused
        st.layers[-1] = np.zeros((3, 2, 1, 2))
        with pytest.raises(ops.ShapeError, match=r"layer 0 state shape \(3, 2, 1, 2\) "
                                                 r"!= \[B\] \+ \(2, 1, 1\)"):
            energy.readout(st, params, spec)

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
        with pytest.raises(ops.ShapeError,
                           match=r"layer 0 state shape \(1, 4, 4\) != \[B\] \+ \(1, 4, 4\)"):
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
                      conv=(ConvSpec(1, 4, 3, 1), ConvSpec(4, 4, 3, 1),
                            ConvSpec(4, 4, 3, 1)), readout_dim=2, t_free=2)


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
