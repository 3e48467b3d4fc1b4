"""Exact input gradients through the unrolled dynamics: closed-form single
step, finite differences, saturation, batching, the memory contract, the
recorded forward pass against a per-step reference, and the reverse pass
that applies connection 0's adjoint once and refuses a tape that does not
fit the spec; the ep and bp pullbacks' shape checks, the one parameter
preparation per entry-point call, each kernel flipped once per entry
point, and the op plans a reverse pass adds to its relaxation's."""

import importlib
import pkgutil
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import epbench
from epbench import baseline, energy, ops, training, unrolled
from epbench.checkpoint import load_checkpoint
from epbench.handle import for_params
from epbench.model import ModelSpec, init_params, zero_state
from epbench.ops import ConvSpec
from conftest import one_conv_model, tiny_model

DESK_CKPT = Path(__file__).resolve().parents[1] / "perfbench" / "desk_ep.ckpt"


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
                for ta, tb, tc in zip([[tape0.route0]] + tape0.pool_idx,
                                      [[tp.route0]] + tp.pool_idx,
                                      [[tm.route0]] + tm.pool_idx)
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

    @pytest.mark.parametrize("make_model", [tiny_model, one_conv_model],
                             ids=["conv", "one_conv"])
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
                for ta, tb, tc in zip([[tape0.route0]] + tape0.pool_idx,
                                      [[tp.route0]] + tp.pool_idx,
                                      [[tm.route0]] + tm.pool_idx)
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

    def test_routes_indexed_by_connection(self):
        # conv 1->4, then conv 4->8: route 0 is held once, and every step
        # holds one route per later connection
        spec, params = tiny_model(np.random.default_rng(31))
        x = np.random.default_rng(11).uniform(0, 1, (3,) + spec.input_shape)
        tape = unrolled.record_free_phase(x, params, spec, 7)
        assert tape.route0.nbytes == 1536
        for routes in tape.pool_idx:
            assert [r.nbytes for r in routes] == [768]
        # the final state (2,304 bytes) plus the int64 route 0 once (1,536)
        # and 7 steps of route 1 and masks (7 x (768 + 288))
        assert tape.nbytes() == 2304 + 1536 + 7 * (768 + 288) == 11232

    def test_memory_grows_linearly_in_steps(self):
        # route 0 and the final state once, then each step's routes of
        # connections 1 and up and its masks
        spec, params = tiny_model(np.random.default_rng(29))
        x = np.random.default_rng(10).uniform(0, 1, spec.input_shape)[None]
        tapes = [unrolled.record_free_phase(x, params, spec, t) for t in (10, 20, 30)]
        sizes = [tape.nbytes() for tape in tapes]
        assert sizes == [4800, 8320, 11840]
        tape = tapes[0]
        per_step = sum(a.nbytes for a in tape.pool_idx[0] + tape.masks[0])
        assert sizes[1] - sizes[0] == sizes[2] - sizes[1] == 10 * per_step == 3520
        assert sizes[0] - 10 * per_step == (tape.route0.nbytes
                                            + sum(s.nbytes for s in tape.final))


REVERSE_MODELS = {"conv": tiny_model, "one_conv": one_conv_model}


def _per_step_reverse(tape, x, params, spec, g_logits):
    """Reference reverse pass: every step pulls each connection's cotangent
    back on its own, connection 0's into the input included."""
    net = energy._prepare(params, spec)
    g_layers = [np.zeros_like(s) for s in tape.final]
    g_layers[-1] = energy._adjoint(spec.n_layers, g_logits, net).reshape(
        tape.final[-1].shape)
    g_x = np.zeros_like(x)
    for step in reversed(range(tape.steps)):
        g_pre = [g * m for g, m in zip(g_layers, tape.masks[step])]
        g_new = [np.zeros_like(s) for s in tape.final]
        sinks = [g_x] + g_new[:-1]
        for i, route in enumerate([tape.route0] + tape.pool_idx[step]):
            sinks[i] += energy._adjoint(i, ops.unpool2(g_pre[i], route), net)
            if i >= 1:
                g_new[i] += energy._drive(i, g_pre[i - 1], net, route)[0]
        g_layers = g_new
    return g_x


def _per_step_forward(x, params, spec, t):
    """Reference free phase without early exit: each of t steps prepares the
    parameters afresh and recomputes every connection's drive, connection
    0's included, from the public ops and the connection helpers, with
    nothing prepared ahead. Returns (final layers, routes by step and
    connection, clamp masks by step)."""
    layers = zero_state(spec, len(x)).layers
    routes, masks = [], []
    for _ in range(t):
        net = energy._prepare(params, spec)
        pre, idx = [], []
        for i, src in enumerate([x] + layers[:-1]):
            drive, route = energy._drive(i, src, net)
            pre.append(drive + net.b[i])
            idx.append(route)
        for i in range(1, spec.n_layers):
            pre[i - 1] = pre[i - 1] + energy._adjoint(i, ops.unpool2(layers[i], idx[i]), net)
        layers = [ops.hard_clamp(p) for p in pre]
        routes.append(idx)
        masks.append([n == p for n, p in zip(layers, pre)])
    return layers, routes, masks


def _bits(arrays):
    """Each array's dtype, shape and bytes."""
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


class TestForwardPass:
    @pytest.mark.parametrize("t", [1, 7, 20])
    @pytest.mark.parametrize("model", REVERSE_MODELS)
    def test_matches_per_step_reference(self, model, t):
        spec, params = REVERSE_MODELS[model](np.random.default_rng(37), scale=0.8)
        x = np.random.default_rng(38).uniform(0, 1, (3,) + spec.input_shape)
        layers, routes, masks = _per_step_forward(x, params, spec, t)
        tape = unrolled.record_free_phase(x, params, spec, t)
        assert _bits(tape.final) == _bits(layers)
        assert tape.steps == len(routes) == t
        for k in range(t):
            assert _bits([tape.route0] + tape.pool_idx[k]) == _bits(routes[k])
            assert _bits(tape.masks[k]) == _bits(masks[k])
        free = energy.free_phase(x, params, spec, t=t, fp_tol=0.0)
        assert _bits(free.layers) == _bits(layers)


def _tape_and_cotangent(make_model, t, batch=3, seed=37):
    spec, params = make_model(np.random.default_rng(seed), scale=0.8)
    rng = np.random.default_rng(seed + 1)
    x = rng.uniform(0, 1, (batch,) + spec.input_shape)
    g_logits = rng.standard_normal((batch, spec.readout_dim))
    return spec, params, x, unrolled.record_free_phase(x, params, spec, t), g_logits


class TestReversePass:
    @pytest.mark.parametrize("t", [1, 7, 20])
    @pytest.mark.parametrize("model", REVERSE_MODELS)
    def test_matches_per_step_reference(self, model, t):
        # summing connection 0's cotangents before its adjoint re-associates
        # a float sum: equal to the per-step pass up to rounding
        spec, params, x, tape, g_logits = _tape_and_cotangent(REVERSE_MODELS[model], t)
        got = unrolled.backward_input(tape, x, params, spec, g_logits)
        ref = _per_step_reverse(tape, x, params, spec, g_logits)
        # x reaches the top layer, and so the logits, after n_layers steps
        assert (np.abs(ref).max() > 0) == (t >= spec.n_layers)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("model", REVERSE_MODELS)
    def test_connection_0_adjoint_applied_once(self, model, monkeypatch):
        # per step one conv2d_transpose for each connection i >= 1, plus
        # connection 0's once
        spec, params, x, tape, g_logits = _tape_and_cotangent(REVERSE_MODELS[model], 7)
        calls = []

        def counted(*args, _f=ops.conv2d_transpose):
            calls.append(1)
            return _f(*args)
        monkeypatch.setattr(ops, "conv2d_transpose", counted)
        unrolled.backward_input(tape, x, params, spec, g_logits)
        assert len(calls) == 7 * (spec.n_layers - 1) + 1

    @pytest.mark.parametrize("route", ["route 0", "step 3's route 1"])
    @pytest.mark.parametrize("bad", ["past the plane", "negative", "float"])
    def test_checks_every_route_it_reads(self, route, bad):
        # a tape route the forward pass did not make is refused, not read
        spec, params, x, tape, g_logits = _tape_and_cotangent(tiny_model, 7)
        good = tape.route0 if route == "route 0" else tape.pool_idx[3][0]
        broken = good.astype(np.float64) if bad == "float" else good.copy()
        plane = 4 * good.shape[2] * good.shape[3]
        if bad != "float":  # one cell of the last example's last plane
            broken[-1, -1, -1, -1] = plane if bad == "past the plane" else -1
        if route == "route 0":
            tape.route0 = broken
        else:
            tape.pool_idx[3][0] = broken
        match = ("pool indices must be int64, got float64" if bad == "float"
                 else "corrupted pool indices")
        with pytest.raises(ValueError, match=match):
            unrolled.backward_input(tape, x, params, spec, g_logits)

    @pytest.mark.parametrize("bad, match", [
        ("float mask", r"tape step 10 layer 1 mask is float64 \(3, 8, 2, 2\), not bool"),
        ("one-example mask", r"tape step 10 layer 0 mask is bool \(1, 4, 4, 4\), not bool "
                             r"\(3, 4, 4, 4\)"),
        ("short routes", r"tape holds routes for 11 steps and masks for 12"),
        ("missing route", r"tape step 5 holds 0 routes for connections 1 and up, the model "
                          r"has 1"),
        ("route shape", r"tape step 5 connection 1 route is int64 \(3, 8, 1, 2\), not "
                        r"\(3, 8, 2, 2\)"),
        ("list mask", r"tape step 4 layer 0 mask is list, not bool \(3, 4, 4, 4\)"),
        ("final shape", r"tape final layer 1 is float64 \(3, 8, 2, 1\), not \(3, 8, 2, 2\)"),
        ("final layers", r"tape final state has 1 layers, the model has 2"),
    ])
    def test_refuses_a_tape_that_does_not_fit_the_spec(self, bad, match, monkeypatch):
        # each would otherwise be read: a float mask scales the gradient, a
        # one-example mask broadcasts over the batch, and the rest end in
        # an IndexError or a broadcast error partway through the pass
        spec, params, x, tape, g_logits = _tape_and_cotangent(tiny_model, 12)
        if bad == "float mask":
            tape.masks[10][1] = tape.masks[10][1] * 3.0
        elif bad == "one-example mask":
            tape.masks[10][0] = tape.masks[10][0][:1]
        elif bad == "short routes":
            tape.pool_idx.pop()
        elif bad == "missing route":
            tape.pool_idx[5] = []
        elif bad == "list mask":
            tape.masks[4][0] = tape.masks[4][0].tolist()
        elif bad == "route shape":
            tape.pool_idx[5][0] = tape.pool_idx[5][0][:, :, :1]
        elif bad == "final shape":
            tape.final[1] = tape.final[1][..., :1]
        else:
            tape.final.pop()
        prepares = _count_prepares(monkeypatch)
        with pytest.raises(ops.ShapeError, match=match):
            unrolled.backward_input(tape, x, params, spec, g_logits)
        assert not prepares

    def test_zero_step_tape_gives_zeros(self):
        spec, params, x, tape, g_logits = _tape_and_cotangent(tiny_model, 3)
        empty = unrolled.UnrolledTape(None, [], [], tape.final)
        g = unrolled.backward_input(empty, x, params, spec, g_logits)
        assert g.shape == x.shape and not g.any()


def _count_prepares(monkeypatch):
    """A Counter of `energy._prepare` calls by the name of the function that
    made each, with the name patched in every module that imports it."""
    calls, real = Counter(), energy._prepare

    def counted(params, spec):
        calls[sys._getframe(1).f_code.co_name] += 1
        return real(params, spec)
    for info in pkgutil.iter_modules(epbench.__path__):
        mod = importlib.import_module(f"epbench.{info.name}")
        if getattr(mod, "_prepare", None) is real:
            monkeypatch.setattr(mod, "_prepare", counted)
    return calls


PREPARING = ["phi", "phi_grad_state", "readout", "bp_forward", "bp_backward",
             "phi_grad_params", "_ep_batch_grads", "logits_and_vjp", "backward_input"]


@pytest.mark.parametrize("entry", PREPARING + ["ep vjp", "bp vjp"])
def test_each_entry_point_prepares_the_model_once(entry, monkeypatch):
    # an entry point casts and prepares the params itself exactly once, and
    # no helper below it prepares them again; relaxations prepare their own
    spec, params = tiny_model(np.random.default_rng(46), scale=0.8)
    rng = np.random.default_rng(47)
    x = rng.uniform(0, 1, (3,) + spec.input_shape)
    y, g = np.array([0, 1, 2]), rng.standard_normal((3, spec.readout_dim))
    state = energy.free_phase(x, params, spec, t=4, fp_tol=0.0)
    tape = unrolled.record_free_phase(x, params, spec, 4)
    _, cache = baseline.bp_forward(x, params, spec, collect=True)
    _, ep_vjp = unrolled.logits_and_vjp(x, params, spec, 4)
    _, bp_vjp = baseline.bp_logits_and_vjp(x, params, spec)
    calls = {
        "phi": lambda: energy.phi(x, state, params, spec),
        "phi_grad_state": lambda: energy.phi_grad_state(x, state, params, spec),
        "readout": lambda: energy.readout(state, params, spec),
        "bp_forward": lambda: baseline.bp_forward(x, params, spec),
        "bp_backward": lambda: baseline.bp_backward(cache, params, spec, g),
        "phi_grad_params": lambda: training.phi_grad_params(x, state, params, spec),
        "_ep_batch_grads": lambda: training._ep_batch_grads(
            params, spec, training.TrainConfig(), x, y),
        "logits_and_vjp": lambda: unrolled.logits_and_vjp(x, params, spec, 4),
        "backward_input": lambda: unrolled.backward_input(tape, x, params, spec, g),
        "ep vjp": lambda: ep_vjp(g),
        "bp vjp": lambda: bp_vjp(g),
    }
    caller = {"ep vjp": "backward_input", "bp vjp": "bp_backward"}.get(entry, entry)
    prepares = _count_prepares(monkeypatch)
    calls[entry]()
    assert prepares[caller] == 1
    assert set(prepares) <= set(PREPARING) | {"_relax"}


@pytest.mark.parametrize("cotangent", ["wrong K", "wrong B", "1-d"])
@pytest.mark.parametrize("kind", ["ep", "bp"])
def test_pullbacks_check_the_cotangent_shape_first(kind, cotangent, monkeypatch):
    spec, params = tiny_model(np.random.default_rng(48))
    x = np.random.default_rng(49).uniform(0, 1, (3,) + spec.input_shape)
    _, vjp = (unrolled.logits_and_vjp(x, params, spec, 4) if kind == "ep"
              else baseline.bp_logits_and_vjp(x, params, spec))
    shape = {"wrong K": (3, spec.readout_dim + 1), "wrong B": (2, spec.readout_dim),
             "1-d": (spec.readout_dim,)}[cotangent]
    prepares = _count_prepares(monkeypatch)
    with pytest.raises(ops.ShapeError, match=r"logit cotangent shape .* is not \[B, K\] = "
                                             rf"\(3, {spec.readout_dim}\)"):
        vjp(np.zeros(shape))
    assert not prepares  # refused before the pullback prepared anything


def test_backward_input_checks_the_input_batch_first(monkeypatch):
    spec, params, x, tape, g_logits = _tape_and_cotangent(tiny_model, 4)
    prepares = _count_prepares(monkeypatch)
    with pytest.raises(ops.ShapeError, match=r"input batch 2 != the tape's batch 3"):
        unrolled.backward_input(tape, x[:2], params, spec, g_logits)
    assert not prepares


def _count_conv_plans(monkeypatch):
    """A list with the operand shape of every conv plan built from a fresh
    thread scratch on, ops._ConvPlan patched."""
    monkeypatch.setattr(ops, "_scratch", threading.local())
    built, real = [], ops._ConvPlan

    def counted(shape, *args):
        built.append(tuple(shape))
        return real(shape, *args)

    monkeypatch.setattr(ops, "_ConvPlan", counted)
    return built


def test_backward_input_builds_its_plans_once(monkeypatch):
    # after the relaxation that recorded the tape, a reverse pass meets one
    # new geometry: connection 0's adjoint, on the unpooled layer 0
    # [3, 4, 8, 8]; a second reverse pass meets none
    built = _count_conv_plans(monkeypatch)
    spec, params, x, tape, g_logits = _tape_and_cotangent(tiny_model, 7)
    built.clear()
    monkeypatch.setattr(ops, "_PoolPlan", None)  # the reverse pass pools nothing
    unrolled.backward_input(tape, x, params, spec, g_logits)
    unrolled.backward_input(tape, x, params, spec, g_logits)
    assert built == [(3, 4, 8, 8)]


def test_a_pullback_builds_fresh_conv_buffers_only_for_connection_0(monkeypatch):
    # one logits_and_vjp plus its vjp on the desk checkpoint at B = 2, t = 60:
    # 242 convolutions on four geometries. The forward relaxation builds the
    # plans of both drives and of connection 1's adjoint; the pullback
    # builds one more, connection 0's adjoint, and the next pullback none
    ckpt = load_checkpoint(DESK_CKPT)
    spec, params = ckpt.spec, ckpt.params
    x = np.random.default_rng(61).uniform(0, 1, (2,) + spec.input_shape)
    built = _count_conv_plans(monkeypatch)
    calls = []
    im2col = ops._im2col

    def counted(xb, plan):
        calls.append(plan)
        return im2col(xb, plan)

    monkeypatch.setattr(ops, "_im2col", counted)
    _, vjp = unrolled.logits_and_vjp(x, params, spec, 60)
    assert sorted(built) == [(2, 1, 8, 8), (2, 4, 4, 4), (2, 8, 4, 4)]
    vjp(np.ones((2, spec.readout_dim)))
    assert len(calls) == 242 and len(set(map(id, calls))) == 4
    vjp(np.ones((2, spec.readout_dim)))
    assert sorted(built) == [(2, 1, 8, 8), (2, 4, 4, 4), (2, 4, 8, 8), (2, 8, 4, 4)]


@pytest.mark.parametrize("entry", ["phi", "readout", "bp_forward", "phi_grad_params",
                                   "free_phase", "backward_input", "bp vjp"])
def test_kernels_are_flipped_where_an_adjoint_first_runs(entry, monkeypatch):
    # the model is prepared once per entry point, and preparing it flips
    # every conv kernel, before any adjoint runs: each entry point flips
    # each kernel exactly once, and no step or adjoint call flips one again
    spec, params = tiny_model(np.random.default_rng(62))
    x = np.random.default_rng(63).uniform(0, 1, (3,) + spec.input_shape)
    g = np.random.default_rng(64).standard_normal((3, spec.readout_dim))
    state = energy.free_phase(x, params, spec, t=4, fp_tol=0.0)
    tape = unrolled.record_free_phase(x, params, spec, 4)
    _, bp_vjp = baseline.bp_logits_and_vjp(x, params, spec)
    calls = {
        "phi": lambda: energy.phi(x, state, params, spec),
        "readout": lambda: energy.readout(state, params, spec),
        "bp_forward": lambda: baseline.bp_forward(x, params, spec),
        "phi_grad_params": lambda: training.phi_grad_params(x, state, params, spec),
        "free_phase": lambda: energy.free_phase(x, params, spec, t=4, fp_tol=0.0),
        "backward_input": lambda: unrolled.backward_input(tape, x, params, spec, g),
        "bp vjp": lambda: bp_vjp(g),
    }
    flipped = []
    real = ops._adjoint_kernel
    monkeypatch.setattr(ops, "_adjoint_kernel", lambda w: flipped.append(w.shape) or real(w))
    calls[entry]()
    assert flipped == [(4, 1, 3, 3), (8, 4, 3, 3)]
