"""Attack correctness: projection/ascent oracles, closed-form linear-model
flip sets and minimal distances, containment invariants, black-box contract,
and suite aggregation."""

import numpy as np
import pytest

from epbench import attacks, energy
from epbench.attacks import AttackConfig
from epbench.handle import ModelHandle, for_params


def linear_model(w, b):
    """Handle on logits = W @ flat(x) + b; its CE gradients are exact."""
    w = np.asarray(w, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)

    def logits_fn(xs):
        flat = np.asarray(xs, dtype=np.float64).reshape(len(xs), -1)
        return flat @ w.T + b

    def logits_vjp_fn(xs):
        shape = np.asarray(xs).shape

        def vjp(gz):
            return (np.asarray(gz) @ w).reshape(shape)

        return logits_fn(xs), vjp

    return ModelHandle(logits=logits_fn, logits_vjp=logits_vjp_fn)


def make_linear_case(seed=0, n=40, shape=(1, 6, 6), margin_hi=0.6):
    """Binary linear task with known margins; x kept interior so the box
    constraint stays inactive."""
    rng = np.random.default_rng(seed)
    d = int(np.prod(shape))
    w1 = rng.standard_normal(d) * 0.25
    w = np.stack([w1, -w1])
    # bias centers the logits at x = 0.5, keeping margins small
    b = np.array([-w1.sum() * 0.5, w1.sum() * 0.5])
    xs, ys = [], []
    for _ in range(100000):
        if len(xs) >= n:
            break
        x = rng.uniform(0.35, 0.65, shape)
        z = w @ x.reshape(-1) + b
        y = int(np.argmax(z))
        margin = z[y] - z[1 - y]
        if 1e-3 < margin < margin_hi:
            xs.append(x)
            ys.append(y)
    assert len(xs) == n, "margin window produced too few examples"
    return np.stack(xs), np.asarray(ys), w, b


class TestProject:
    def test_inside_unchanged(self):
        rng = np.random.default_rng(0)
        x0 = rng.uniform(0.3, 0.7, (3, 1, 4, 4))
        x = x0 + rng.uniform(-0.01, 0.01, x0.shape)
        for norm in ("l2", "linf"):
            out = attacks.project(x0, x, norm, 1.0)
            assert np.array_equal(out, x)

    def test_eps_zero_returns_origin(self):
        rng = np.random.default_rng(1)
        x0 = rng.uniform(0, 1, (2, 1, 4, 4))
        x = rng.uniform(-1, 2, x0.shape)
        for norm in ("l2", "linf"):
            out = attacks.project(x0, x, norm, 0.0)
            assert np.allclose(out, np.clip(x0, 0, 1))

    def test_l2_closed_form_nearest_point(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            x0 = rng.uniform(0.3, 0.7, (1, 1, 3, 3))
            x = x0 + rng.standard_normal(x0.shape)
            eps = 0.25
            out = attacks.project(x0, x, "l2", eps)
            delta = (x - x0).reshape(-1)
            want = x0.reshape(-1) + delta * min(1.0, eps / np.linalg.norm(delta))
            want = np.clip(want, 0, 1)
            assert np.max(np.abs(out.reshape(-1) - want)) < 1e-12

    def test_linf_per_coordinate_oracle(self):
        rng = np.random.default_rng(3)
        x0 = rng.uniform(0, 1, (4, 1, 3, 3))
        x = x0 + rng.standard_normal(x0.shape)
        eps = 0.1
        out = attacks.project(x0, x, "linf", eps)
        want = np.clip(np.clip(x, x0 - eps, x0 + eps), 0, 1)
        assert np.array_equal(out, want)

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        x0 = rng.uniform(0, 1, (3, 2, 4, 4))
        x = x0 + rng.standard_normal(x0.shape)
        for norm in ("l2", "linf"):
            once = attacks.project(x0, x, norm, 0.3)
            twice = attacks.project(x0, once, norm, 0.3)
            assert np.array_equal(once, twice)


class TestSteepestAscent:
    def test_zero_gives_zero(self):
        assert np.count_nonzero(attacks.steepest_ascent(np.zeros((1, 1, 2, 2)), "l2")) == 0
        assert np.count_nonzero(attacks.steepest_ascent(np.zeros((1, 1, 2, 2)), "linf")) == 0

    def test_linf_sign(self):
        g = np.array([0.1, -2.0])[None, None, None]
        assert np.array_equal(attacks.steepest_ascent(g, "linf")[0, 0, 0], [1.0, -1.0])

    def test_maximizes_over_random_unit_candidates(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((1, 1, 4, 4))
        for norm in ("l2", "linf"):
            v = attacks.steepest_ascent(g, norm)
            best = float(np.vdot(v, g))
            for _ in range(1000):
                c = rng.standard_normal(g.shape)
                if norm == "l2":
                    c /= np.linalg.norm(c)
                else:
                    c = np.sign(c) * rng.uniform(0, 1)
                assert np.vdot(c, g) <= best + 1e-9


class TestPGD:
    def test_eps_zero_keeps_clean_accuracy(self):
        xs, ys, w, b = make_linear_case()
        model = linear_model(w, b)
        cfg = AttackConfig(family="pgd", norm="linf", epsilon=0.0, seed=0)
        res = attacks.pgd_attack(xs, ys, model, cfg)
        assert np.array_equal(res.adversarial, xs)
        assert res.robust_accuracy() == 1.0

    def test_linf_flips_exactly_the_low_margin_examples(self):
        xs, ys, w, b = make_linear_case(seed=6, n=60)
        model = linear_model(w, b)
        dw = w[ys] - w[1 - ys]                      # [n, d]
        db = b[ys] - b[1 - ys]
        margins = np.einsum("nd,nd->n", dw, xs.reshape(len(xs), -1)) + db
        flip_threshold = 0.05 * np.abs(w[0] - w[1]).sum()
        cfg = AttackConfig(family="pgd", norm="linf", epsilon=0.05, steps=40, seed=1)
        res = attacks.pgd_attack(xs, ys, model, cfg)
        analytic_flip = margins < flip_threshold
        # exclude hairline cases within 2% of the threshold
        clear = np.abs(margins - flip_threshold) > 0.02 * flip_threshold
        agree = res.success[clear] == analytic_flip[clear]
        assert agree.all()

    def test_monotone_in_epsilon_on_trained_model(self, trained_ep, eval_batch):
        spec, params, _ = trained_ep
        xs, ys = eval_batch
        T = energy.free_phase(xs, params, spec).steps
        model = for_params(params, spec, "ep", T)
        accs = []
        for eps in (0.0, 0.02, 0.05, 0.1):
            cfg = AttackConfig(family="pgd", norm="linf", epsilon=eps, seed=0)
            accs.append(attacks.pgd_attack(xs, ys, model, cfg)
                        .robust_accuracy())
        for lo, hi in zip(accs[1:], accs[:-1]):
            assert lo <= hi + 0.0101

    def test_more_steps_never_helps_defense(self, trained_ep, eval_batch):
        spec, params, _ = trained_ep
        xs, ys = eval_batch
        T = energy.free_phase(xs, params, spec).steps
        model = for_params(params, spec, "ep", T)
        accs = []
        for steps in (5, 20, 40):
            cfg = AttackConfig(family="pgd", norm="linf", epsilon=0.08, steps=steps,
                               seed=0)
            accs.append(attacks.pgd_attack(xs, ys, model, cfg)
                        .robust_accuracy())
        assert accs[1] <= accs[0] + 0.0101
        assert accs[2] <= accs[1] + 0.0101


class TestCW:
    def test_c_zero_pure_norm_minimization(self):
        xs, ys, w, b = make_linear_case(seed=7, n=20)
        model = linear_model(w, b)
        cfg = AttackConfig(family="cw", epsilon=0.0, steps=60, cw_lr=0.05)
        res = attacks.cw_attack(xs, ys, model, cfg)
        assert not res.success.any()
        assert np.max(res.norms) < 0.02

    def test_linear_model_minimal_distance_within_10pct(self):
        xs, ys, w, b = make_linear_case(seed=8, n=30, margin_hi=0.4)
        model = linear_model(w, b)
        dw = w[ys] - w[1 - ys]
        db = b[ys] - b[1 - ys]
        margins = np.einsum("nd,nd->n", dw, xs.reshape(len(xs), -1)) + db
        dist = margins / np.linalg.norm(w[0] - w[1])
        cfg = AttackConfig(family="cw", epsilon=5.0, steps=400, cw_lr=0.02)
        res = attacks.cw_attack(xs, ys, model, cfg)
        assert res.success.all()
        rel = np.abs(res.norms - dist) / dist
        assert np.median(rel) < 0.10
        assert (rel < 0.10).mean() >= 0.8

    def test_steps_counts_iterations(self):
        xs, ys, w, b = make_linear_case(seed=7, n=4)
        model = linear_model(w, b)
        calls = []

        def counted_vjp(x):
            calls.append(len(x))
            return model.logits_vjp(x)

        cfg = AttackConfig(family="cw", epsilon=0.5, steps=3)
        res = attacks.cw_attack(xs, ys, ModelHandle(model.logits, counted_vjp), cfg)
        assert len(calls) == 3
        assert (res.queries == 3).all()
        assert AttackConfig(family="cw").steps == 100
        assert AttackConfig(family="pgd").steps == 20

    def test_success_rate_non_decreasing_in_c(self, trained_ep, eval_batch):
        spec, params, _ = trained_ep
        xs, ys = eval_batch
        xs, ys = xs[:48], ys[:48]
        T = energy.free_phase(xs, params, spec).steps
        model = for_params(params, spec, "ep", T)
        rates = []
        for c in (0.005, 0.1, 2.0):
            cfg = AttackConfig(family="cw", epsilon=c, steps=60, cw_lr=0.02)
            res = attacks.cw_attack(xs, ys, model, cfg)
            rates.append(res.success.mean())
        assert rates[1] >= rates[0] - 1e-9
        assert rates[2] >= rates[1] - 1e-9


class TestSquare:
    def test_eps_zero_equals_clean(self):
        xs, ys, w, b = make_linear_case(seed=9, n=10)
        logits_fn = linear_model(w, b).logits
        cfg = AttackConfig(family="square", norm="linf", epsilon=0.0,
                           query_budget=50, seed=0)
        res = attacks.square_attack(xs, ys, logits_fn, cfg)
        assert np.array_equal(res.adversarial, xs)
        assert not res.success.any()

    def test_query_counter_counts_model_calls_exactly(self):
        xs, ys, w, b = make_linear_case(seed=10, n=6)
        logits_fn = linear_model(w, b).logits
        calls, rows = [0], [0]

        def counting(z):
            calls[0] += 1
            rows[0] += len(z)
            return logits_fn(z)

        cfg = AttackConfig(family="square", norm="linf", epsilon=0.03,
                           query_budget=40, seed=0)
        res = attacks.square_attack(xs, ys, counting, cfg)
        assert rows[0] == int(res.queries.sum())
        assert calls[0] <= cfg.query_budget  # one batched call per iteration

    def test_deterministic_given_seed(self):
        xs, ys, w, b = make_linear_case(seed=11, n=8)
        logits_fn = linear_model(w, b).logits
        cfg = AttackConfig(family="square", norm="linf", epsilon=0.05,
                           query_budget=60, seed=3)
        a = attacks.square_attack(xs, ys, logits_fn, cfg)
        b_ = attacks.square_attack(xs, ys, logits_fn, cfg)
        assert np.array_equal(a.adversarial, b_.adversarial)
        assert np.array_equal(a.queries, b_.queries)

    def test_linear_model_flip_set_within_10pct(self):
        xs, ys, w, b = make_linear_case(seed=12, n=50)
        logits_fn = linear_model(w, b).logits
        eps = 0.06
        dw = w[ys] - w[1 - ys]
        db = b[ys] - b[1 - ys]
        margins = np.einsum("nd,nd->n", dw, xs.reshape(len(xs), -1)) + db
        reachable = margins < eps * np.abs(w[0] - w[1]).sum()
        cfg = AttackConfig(family="square", norm="linf", epsilon=eps,
                           query_budget=3000, seed=0)
        res = attacks.square_attack(xs, ys, logits_fn, cfg)
        assert not res.success[~reachable].any()  # unreachable never flip
        assert res.success[reachable].mean() >= 0.9

    def test_l2_rejected(self):
        with pytest.raises(ValueError, match="linf"):
            AttackConfig(family="square", norm="l2", epsilon=0.1)

    def test_rejects_gradient_access_structurally(self):
        # the attack signature admits only a logits callable; a poisoned
        # gradient engine must never be reached
        import epbench.unrolled as unrolled
        xs, ys, w, b = make_linear_case(seed=13, n=4)
        logits_fn = linear_model(w, b).logits
        orig = unrolled.logits_and_vjp
        calls = []
        unrolled.logits_and_vjp = lambda *a, **k: calls.append(1)
        try:
            cfg = AttackConfig(family="square", norm="linf", epsilon=0.05,
                               query_budget=30, seed=0)
            attacks.square_attack(xs, ys, logits_fn, cfg)
        finally:
            unrolled.logits_and_vjp = orig
        assert calls == []


@pytest.mark.parametrize("attack", [attacks.square_attack, attacks.random_noise_baseline])
def test_black_box_rows_do_not_depend_on_their_batch_mates(attack):
    # a moderate budget breaks some examples and leaves others standing, so
    # the batch shrinks at different iterations in the full and prefix runs
    xs, ys, w, b = make_linear_case(seed=14, n=12)
    logits_fn = linear_model(w, b).logits
    cfg = AttackConfig(family="square", norm="linf", epsilon=0.02,
                       query_budget=60, seed=5)
    full = attack(xs, ys, logits_fn, cfg)
    assert 0 < full.success.sum() < len(xs)
    for k in (1, 5, 11):
        part = attack(xs[:k], ys[:k], logits_fn, cfg)
        for name in ("adversarial", "success", "queries", "norms"):
            assert getattr(part, name).tobytes() == getattr(full, name)[:k].tobytes(), (k, name)


class TestContainment:
    def test_every_family_respects_ball_and_box(self, trained_ep, eval_batch):
        spec, params, _ = trained_ep
        xs, ys = eval_batch
        xs, ys = xs[:32], ys[:32]
        T = energy.free_phase(xs, params, spec).steps
        model = for_params(params, spec, "ep", T)

        def check(res, norm, eps):
            assert res.adversarial.min() >= -1e-6
            assert res.adversarial.max() <= 1 + 1e-6
            delta = res.adversarial - xs
            if norm == "linf":
                assert np.abs(delta).max() <= eps + 1e-6
            else:
                norms = np.linalg.norm(delta.reshape(len(xs), -1), axis=1)
                assert norms.max() <= eps + 1e-6

        for norm in ("linf", "l2"):
            eps = 0.1 if norm == "linf" else 1.0
            cfg = AttackConfig(family="pgd", norm=norm, epsilon=eps, seed=0)
            check(attacks.pgd_attack(xs, ys, model, cfg), norm, eps)
        cfg = AttackConfig(family="square", norm="linf", epsilon=0.1,
                           query_budget=200, seed=0)
        qm = lambda z: energy.logits_at(np.asarray(z, dtype=np.float64), params, spec, T)
        check(attacks.square_attack(xs, ys, qm, cfg), "linf", 0.1)
        cfg = AttackConfig(family="cw", epsilon=0.5, steps=40)
        res = attacks.cw_attack(xs, ys, model, cfg)
        assert res.adversarial.min() >= -1e-6
        assert res.adversarial.max() <= 1 + 1e-6


class TestSuite:
    def test_single_attack_suite_equals_attack(self, trained_ep, eval_batch):
        spec, params, _ = trained_ep
        xs, ys = eval_batch
        xs, ys = xs[:32], ys[:32]
        T = energy.free_phase(xs, params, spec).steps
        model = for_params(params, spec, "ep", T)
        cfg = AttackConfig(family="pgd", norm="linf", epsilon=0.05, seed=0)
        alone = attacks.pgd_attack(xs, ys, model, cfg)
        suite = attacks.attack_suite(xs, ys, model, [cfg])
        assert suite.worst_case_accuracy == alone.robust_accuracy()

    def test_worst_case_below_min_and_nesting(self, trained_ep, eval_batch):
        spec, params, _ = trained_ep
        xs, ys = eval_batch
        xs, ys = xs[:32], ys[:32]
        T = energy.free_phase(xs, params, spec).steps
        model = for_params(params, spec, "ep", T)
        cfg1 = AttackConfig(family="pgd", norm="linf", epsilon=0.05, seed=0)
        cfg2 = AttackConfig(family="pgd", norm="l2", epsilon=0.8, seed=1)
        small = attacks.attack_suite(xs, ys, model, [cfg1])
        big = attacks.attack_suite(xs, ys, model, [cfg1, cfg2])
        mins = min(r.robust_accuracy() for r in big.results)
        assert big.worst_case_accuracy <= mins + 1e-12
        assert big.worst_case_accuracy <= small.worst_case_accuracy + 1e-12


@pytest.mark.parametrize("field, value, message", [
    ("epsilon", -0.1, "epsilon must be >= 0 and finite, got -0.1"),
    ("epsilon", np.nan, "epsilon must be >= 0 and finite, got nan"),
    ("epsilon", np.inf, "epsilon must be >= 0 and finite, got inf"),
    ("cw_lr", 0.0, "cw_lr must be > 0 and finite, got 0.0"),
    ("cw_lr", np.nan, "cw_lr must be > 0 and finite, got nan"),
    ("cw_lr", np.inf, "cw_lr must be > 0 and finite, got inf"),
])
def test_config_rejects_out_of_range_floats(field, value, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        AttackConfig(family="cw", **{field: value})
