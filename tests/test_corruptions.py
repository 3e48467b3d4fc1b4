"""Corruption generators: the severity table, range containment,
determinism, distribution statistics, and the accuracy sweep."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import epbench
from epbench import corruptions as cor
from epbench.corruptions import CorruptionError

# sha256 of corrupt_batch(uniform [2,3,8,8] batch from default_rng(0), kind,
# severity, seed=7).tobytes(), severities 1-5 in order: any change to a table
# entry, a draw order or the final clip shows up here
DIGESTS = {
    "gaussian_noise": (
        "cfdb8d395e92520b3353c1f056896e35c5c602f81dc813c82dff1dd9f32f6d0c",
        "44d1d99b51ff42ee06ba62c5c077f636691d31a1d6253d601203d4a88daa3da0",
        "7269482cb312b2ff73617ac64499cda59d20c50913268806bc862d719a14185f",
        "5e8db891a792626c66d88b3b2e3e0f16b68340ce341d13df9363026dc47eafdc",
        "ca3d8d58fd96a467679334329c42064318dbc848f6d7ce2c0751f588450f67c8",
    ),
    "shot_noise": (
        "b938db95a0cef656ba5b72985af0dba27dc3965018b34284117460d7ed05c2fc",
        "e9bba96cff72d1ddf238ace63e230e9827a76982f17b85eba11466f8c4be512e",
        "9b4a2833ff8c0b27ce65827b06a30c0f65fac0c8b4145735b235b593765b4785",
        "89af2761a08471550205beaec9814775d8aa244cea01d5391f0d45a68161f1a1",
        "b76b884f13cde1a2e9c10b62f80eafcc5bc057176e773213cd4ec6c7daf8eac9",
    ),
    "impulse_noise": (
        "c812f43c74ca8e76f1a5733fea3778cc0fe2080a2c239c46e903f2425dd411ce",
        "e6a3373177d1a7ea518fec92d32caa7f117b19aaf8a7ea77ff63777458a20641",
        "5fe19175364a6e6bf5c9460af8fed531de9f5d7022f20fb8fc8580c0abf3ab53",
        "744ed684a20c4cc342b5d6524972f43be05c5257a64411eb6e958278e8ab1d58",
        "b7d246aaf8c6fba3a176d084da395df81cc9088ae47560351cbdb8cc2052ba1b",
    ),
    "gaussian_blur": (
        "6fdf6e0d9501cb829f2d04330e07a4459c09ee089a946bf7f765be630247c80e",
        "13ed0792799c3c9605210d8ea67d367d79c129763df60dc53b8848903404a737",
        "203e8d6c970b60794a5773e762d07e2d8bee2344adb9e6b3f9ace986e150073e",
        "8bcf2227c82c73ff9ce6082cc2608fa17a14c71131a133c2cbfaa947fe2ee991",
        "5ae2e4e360adab44440ec7b55f8e98365f71a2b17369120b32ca8db32d55486f",
    ),
    "contrast": (
        "a840f4dcde8e40d79124ebb20c2f7affe0fcfe9165840e26f9004d63ffae669c",
        "13a08e85670e2a6a979cdcf8d9329560b7a51595ef6ed0ccdb900400a2722be0",
        "57866021c5c06e0bc1a6654f78243f97581ede582199c8ed90da0a0c486e5305",
        "41ff412f37fc92e44cbece597b18ae02420e1ff81fa2f21897f33e0112696ed1",
        "d3d9edf8783e31f043d2d43a192cc2bf03895dd14703f5148cb477bc2a4b94a2",
    ),
    "brightness": (
        "1a8a67933b61fd8827facfe00d8ab4adec7579d91935cf135ab06ad29c084bf2",
        "fea6da5987f53a1f534daf988c314f7031968b68f6efffeafc3b407c96c5ec2d",
        "12bf51470835e7691505668f5554385d67c654558917698a8f89b7a4b4e2a7e4",
        "39b5d888effdb5aba37ba119646de58d4a577c79f1b07ef9bef64684a4f79566",
        "df497655aa6dc8d1ba2e8497117ed2d32dc553eb941354030078caa870f4d20b",
    ),
    "pixelate": (
        "316551afb0d28ba57fc45a27c922b49894cf2ccae9d2287a3572979a48d56140",
        "fb019c492047d706150b2683b5ff591b782ee35c65d13f0f1f34784978695707",
        "31c272f80326dcb0190242e3a94bfdf22bf481024e276277db119eec407d8516",
        "c50ff3dc46a6199d58867cabb4cb34d1f32d064106d2714592baa04c75d4fe99",
        "ea70afcf57706047ff73c3ef02d834079f99ce0d68cf74989e28551eafb24eb9",
    ),
}


class TestSeverityTable:
    def test_every_kind_has_five_severities(self):
        assert set(cor.SEVERITIES) == set(cor.KINDS)
        for kind in cor.KINDS:
            assert len(cor.SEVERITIES[kind]) == 5, kind

    def test_tables_strictly_monotone_in_distortion(self):
        # larger parameter = more distortion except where the parameter is a
        # preservation factor (shrinking factor distorts more)
        decreasing = {"shot_noise", "contrast", "pixelate"}
        for kind in cor.KINDS:
            diffs = np.diff(cor.SEVERITIES[kind])
            if kind in decreasing:
                assert np.all(diffs < 0), kind
            else:
                assert np.all(diffs > 0), kind

    def test_every_cell_matches_its_pinned_digest(self):
        xs = np.random.default_rng(0).uniform(0, 1, (2, 3, 8, 8))
        for kind in cor.KINDS:
            got = tuple(hashlib.sha256(cor.corrupt_batch(xs, kind, sev, seed=7).tobytes())
                        .hexdigest() for sev in range(1, 6))
            assert got == DIGESTS[kind], kind


class TestCorrupt:
    def test_unknown_kind_and_severity_rejected(self):
        imgs = np.full((2, 1, 4, 4), 0.5)
        with pytest.raises(CorruptionError, match="kind"):
            cor.corrupt_batch(imgs, "fog", 1)
        for sev in (0, 6):
            with pytest.raises(CorruptionError, match="severity"):
                cor.corrupt_batch(imgs, "contrast", sev)

    def test_rank_three_input_rejected(self):
        with pytest.raises(CorruptionError, match=r"\[B,C,H,W\]"):
            cor.corrupt_batch(np.full((1, 4, 4), 0.5), "contrast", 1)

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
        imgs = rng.uniform(0, 1, (2, 1, 8, 8))
        for kind in cor.KINDS:
            a = cor.corrupt_batch(imgs, kind, 4, seed=11)
            b = cor.corrupt_batch(imgs, kind, 4, seed=11)
            assert np.array_equal(a, b), kind

    def test_distinct_seeds_distinct_noise(self):
        imgs = np.full((1, 1, 16, 16), 0.5)
        for kind in cor.NOISE_KINDS:
            a = cor.corrupt_batch(imgs, kind, 3, seed=0)
            b = cor.corrupt_batch(imgs, kind, 3, seed=1)
            assert not np.array_equal(a, b), kind

    def test_range_containment_all_kinds_severities(self):
        rng = np.random.default_rng(2)
        imgs = rng.uniform(0, 1, (2, 3, 8, 8))
        for kind in cor.KINDS:
            for sev in range(1, 6):
                out = cor.corrupt_batch(imgs, kind, sev, seed=3)
                assert out.min() >= 0.0 and out.max() <= 1.0, (kind, sev)

    def test_gaussian_noise_folded_normal_statistic(self):
        # mean |delta| of N(0, sigma) is sigma*sqrt(2/pi); keep pixels at 0.5
        # so clipping is negligible for sigma <= 0.1
        sigma = cor.SEVERITIES["gaussian_noise"][2]
        imgs = np.full((1000, 1, 8, 8), 0.5)
        out = cor.corrupt_batch(imgs, "gaussian_noise", 3, seed=5)
        mad = np.mean(np.abs(out - imgs))
        expect = sigma * np.sqrt(2.0 / np.pi)
        assert abs(mad - expect) / expect < 0.05


def test_corrupting_with_every_kind_loads_no_scipy_module():
    # the package's one runtime dependency is numpy: scipy is a test oracle only
    code = ("import sys, numpy as np, epbench.cli\n"
            "from epbench.corruptions import KINDS, corrupt_batch\n"
            "for kind in KINDS:\n"
            "    corrupt_batch(np.full((2, 3, 8, 8), 0.5), kind, 5)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(epbench.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


BLUR_SHAPES = [(1, 4, 4), (1, 8, 8), (3, 32, 32), (1, 2, 2), (2, 1, 5), (3, 7, 1), (3, 7, 3)]


@pytest.mark.parametrize("sigma", cor.SEVERITIES["gaussian_blur"])
@pytest.mark.parametrize("shape", BLUR_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_blur_is_scipy_gaussian_filter_bit_for_bit(shape, sigma):
    # H = 1, W = 1 and extents shorter than the radius (r = 5 at sigma 1.3)
    # exercise the reflected border repeating past the image
    from scipy import ndimage
    rng = np.random.default_rng((*shape, round(sigma * 10)))
    severity = cor.SEVERITIES["gaussian_blur"].index(sigma) + 1
    imgs = rng.uniform(0, 1, (50,) + shape)
    got = cor.corrupt_batch(imgs, "gaussian_blur", severity)
    for img, out in zip(imgs, got):
        want = ndimage.gaussian_filter(img, sigma=(0, sigma, sigma), mode="reflect")
        assert np.array_equal(out.view(np.uint64), np.clip(want, 0.0, 1.0).view(np.uint64))


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
