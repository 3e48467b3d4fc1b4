"""Corruption generators: parameter tables, range containment, determinism,
distribution statistics, and the accuracy sweep."""

import numpy as np
import pytest

from epbench import corruptions as cor
from epbench.corruptions import CorruptionError, CorruptionSpec


class TestSeverityTable:
    def test_every_kind_has_five_severities(self):
        table = cor.load_severity_table()
        for kind in cor.KINDS:
            for sev in range(1, 6):
                assert (kind, sev) in table

    def test_tables_strictly_monotone_in_distortion(self):
        table = cor.load_severity_table()
        # larger parameter = more distortion except where the parameter is a
        # preservation factor (shrinking factor distorts more)
        decreasing = {"shot_noise", "contrast", "pixelate"}
        for kind in cor.KINDS:
            vals = [table[(kind, s)] for s in range(1, 6)]
            diffs = np.diff(vals)
            if kind in decreasing:
                assert np.all(diffs < 0), kind
            else:
                assert np.all(diffs > 0), kind

    def test_bad_line_rejected(self, tmp_path):
        p = tmp_path / "tbl.txt"
        p.write_text("gaussian_noise.1 0.04\n")
        with pytest.raises(CorruptionError, match="line 1"):
            cor.load_severity_table(p)


class TestCorrupt:
    def test_unknown_kind_and_severity_rejected(self):
        with pytest.raises(CorruptionError, match="kind"):
            CorruptionSpec("fog", 1)
        with pytest.raises(CorruptionError, match="severity"):
            CorruptionSpec("contrast", 6)

    def test_contrast_factor_one_is_identity(self):
        # severity tables only hold factors < 1; the factor-1 special case is
        # the documented identity anchor of the parameterization
        rng = np.random.default_rng(0)
        img = rng.uniform(0, 1, (3, 8, 8))
        mean = img.mean()
        out = (img - mean) * 1.0 + mean
        assert np.allclose(out, img)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(1)
        img = rng.uniform(0, 1, (1, 8, 8))
        for kind in cor.KINDS:
            spec = CorruptionSpec(kind, 4, seed=11)
            a = cor.corrupt(img, spec)
            b = cor.corrupt(img, spec)
            assert np.array_equal(a, b), kind

    def test_distinct_seeds_distinct_noise(self):
        img = np.full((1, 16, 16), 0.5)
        for kind in cor.NOISE_KINDS:
            a = cor.corrupt(img, CorruptionSpec(kind, 3, seed=0))
            b = cor.corrupt(img, CorruptionSpec(kind, 3, seed=1))
            assert not np.array_equal(a, b), kind

    def test_range_containment_all_kinds_severities(self):
        rng = np.random.default_rng(2)
        img = rng.uniform(0, 1, (3, 8, 8))
        for kind in cor.KINDS:
            for sev in range(1, 6):
                out = cor.corrupt(img, CorruptionSpec(kind, sev, seed=3))
                assert out.min() >= 0.0 and out.max() <= 1.0, (kind, sev)

    def test_gaussian_noise_folded_normal_statistic(self):
        # mean |delta| of N(0, sigma) is sigma*sqrt(2/pi); keep pixels at 0.5
        # so clipping is negligible for sigma <= 0.1
        sigma = cor.severity_param("gaussian_noise", 3)
        imgs = np.full((1000, 1, 8, 8), 0.5)
        total = 0.0
        for k in range(len(imgs)):
            out = cor.corrupt(imgs[k], CorruptionSpec("gaussian_noise", 3, seed=(5, k)))
            total += np.mean(np.abs(out - imgs[k]))
        mad = total / len(imgs)
        expect = sigma * np.sqrt(2.0 / np.pi)
        assert abs(mad - expect) / expect < 0.05


class TestSweep:
    def test_untrained_model_chance_everywhere(self, desk_data):
        _, test = desk_data
        rng = np.random.default_rng(4)

        def random_model(xs):
            return rng.integers(0, 2, size=len(xs))

        grid, _ = cor.corruption_sweep(test.subset(128), random_model,
                                       kinds=("gaussian_noise",), severities=(1, 3))
        for acc in grid.values():
            assert abs(acc - 0.5) < 3 * np.sqrt(0.25 / 128)

    def test_clean_column_equals_test_accuracy(self, trained_ep, desk_data):
        from epbench import energy
        spec, params, _ = trained_ep
        _, test = desk_data

        def model_eval(xs):
            return np.argmax(energy.logits_at(np.asarray(xs, dtype=np.float64),
                                              params, spec, t=5), axis=-1)

        sub = test.subset(96)
        grid, _ = cor.corruption_sweep(sub, model_eval, kinds=("contrast",),
                                       severities=(1,))
        direct = np.mean(model_eval(sub.images) == sub.labels)
        assert grid[("contrast", 0)] == pytest.approx(float(direct))

    def test_noise_family_trend_on_trained_model(self, trained_ep, desk_data):
        from epbench import energy
        spec, params, _ = trained_ep
        _, test = desk_data

        def model_eval(xs):
            return np.argmax(energy.logits_at(np.asarray(xs, dtype=np.float64),
                                              params, spec, t=5), axis=-1)

        grid, _ = cor.corruption_sweep(test, model_eval, kinds=cor.NOISE_KINDS,
                                       severities=(1, 5))
        for kind in cor.NOISE_KINDS:
            assert grid[(kind, 5)] <= grid[(kind, 1)] + 0.02
