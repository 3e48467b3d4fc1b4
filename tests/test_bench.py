"""Harness pieces: the CIFAR binary parser, synthetic data, evaluation, mean
robustness, result files, and checkpoint round trips."""

import itertools
import json
import re
import struct
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from epbench import baseline, bench, data
from epbench.bench import RunRecord
from epbench.checkpoint import (MAGIC, Checkpoint, CheckpointError, load_checkpoint,
                                save_checkpoint)
from epbench.data import CifarFormatError
from epbench.handle import for_params, from_checkpoint
from epbench.model import init_params
from epbench.ops import ConvSpec
from conftest import desk_spec, tiny_model


def make_cifar_record(label, pixel_value, label2=None):
    head = [label] if label2 is None else [label, label2]
    return bytes(head) + bytes([pixel_value]) * 3072


class TestCifarParser:
    def test_two_record_fixture_exact(self, tmp_path):
        p = tmp_path / "batch.bin"
        payload = make_cifar_record(3, 255) + make_cifar_record(7, 0)
        p.write_bytes(payload)
        ds = data.load_cifar_binary(p)
        assert ds.images.shape == (2, 3, 32, 32)
        assert list(ds.labels) == [3, 7]
        assert np.all(ds.images[0] == 1.0)
        assert np.all(ds.images[1] == 0.0)

    def test_channel_planes_are_channel_major(self, tmp_path):
        p = tmp_path / "batch.bin"
        body = bytes([9]) + bytes([10] * 1024 + [20] * 1024 + [30] * 1024)
        p.write_bytes(body)
        ds = data.load_cifar_binary(p)
        assert np.allclose(ds.images[0, 0], 10 / 255)
        assert np.allclose(ds.images[0, 1], 20 / 255)
        assert np.allclose(ds.images[0, 2], 30 / 255)

    def test_empty_file_empty_dataset(self, tmp_path):
        p = tmp_path / "empty.bin"
        p.write_bytes(b"")
        ds = data.load_cifar_binary(p)
        assert len(ds) == 0

    def test_truncated_file_reports_offset(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(make_cifar_record(1, 5) + b"\x00" * 100)
        with pytest.raises(CifarFormatError) as err:
            data.load_cifar_binary(p)
        assert err.value.offset == 3073

    def test_label_out_of_range_reports_offset(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(make_cifar_record(0, 1) + make_cifar_record(11, 1))
        with pytest.raises(CifarFormatError) as err:
            data.load_cifar_binary(p)
        assert err.value.offset == 3073

    def test_cifar100_uses_fine_label(self, tmp_path):
        p = tmp_path / "c100.bin"
        p.write_bytes(make_cifar_record(4, 128, label2=42))
        ds = data.load_cifar_binary(p, variant="cifar100")
        assert ds.labels[0] == 42
        p.write_bytes(make_cifar_record(4, 128, label2=99))
        assert data.load_cifar_binary(p, variant="cifar100").labels[0] == 99
        p.write_bytes(make_cifar_record(4, 128, label2=100))
        with pytest.raises(CifarFormatError, match=r"label 100 out of range \[0,100\)"):
            data.load_cifar_binary(p, variant="cifar100")

    def test_scaling_holds_one_float32_copy(self, tmp_path):
        p = tmp_path / "batch.bin"
        values = np.arange(200)
        p.write_bytes(b"".join(make_cifar_record(k % 10, int(v)) for k, v in enumerate(values)))
        ds, peak = traced_peak(data.load_cifar_binary, p)
        # the file's bytes (a quarter of the result) and one float32 stack
        assert peak < 1.5 * ds.images.nbytes
        want = np.float32(values) / np.float32(255.0)
        assert ds.images.tobytes() == np.repeat(want, 3072).tobytes()


def traced_peak(fn, *args):
    """(fn(*args), the peak bytes tracemalloc saw above what was held before)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestNormalize:
    MEAN = np.array([0.4, 0.5, 0.6], dtype=np.float32)
    STD = np.array([0.2, 0.5, 2.0], dtype=np.float32)

    def images(self, n=4):
        return np.random.default_rng(1).uniform(0, 1, (n, 3, 8, 8)).astype(np.float32)

    def test_bits_of_subtract_then_divide(self):
        xs = self.images()
        mean, std = (np.float64(a).reshape(1, -1, 1, 1) for a in (self.MEAN, self.STD))
        got = data.normalize_images(xs, self.MEAN, self.STD)
        assert got.dtype == np.float64
        assert got.tobytes() == ((xs - mean) / std).tobytes()
        assert data.normalize_images(xs, 0.0, 1.0).tobytes() == xs.astype(np.float64).tobytes()

    def test_holds_one_float64_copy(self):
        xs = self.images(200)
        out, peak = traced_peak(data.normalize_images, xs, self.MEAN, self.STD)
        assert peak < 1.5 * out.nbytes

    @pytest.mark.parametrize("normalize", [None, (MEAN, STD)], ids=["no stats", "stats"])
    def test_handle_feeds_the_model_normalize_images(self, normalize, monkeypatch):
        spec, params = tiny_model(np.random.default_rng(0), in_shape=(3, 8, 8))
        seen = []
        monkeypatch.setattr(baseline, "bp_forward", lambda xm, *a: seen.append(xm))
        monkeypatch.setattr(baseline, "bp_logits_and_vjp",
                            lambda xm, *a: (seen.append(xm), None))
        model = for_params(params, spec, "bp", None, normalize=normalize)
        xs = self.images()
        model.logits(xs)
        model.logits_vjp(xs)
        want = data.normalize_images(xs, *(normalize or (0.0, 1.0))).tobytes()
        assert [x.tobytes() for x in seen] == [want, want]


def reference_synth(kind, n, image_shape, classes, seed, noise):
    """The generator one image at a time: each image computes its class's
    bump or wave, and draws its noise (a stripe image its phase first)."""
    rng = np.random.default_rng(seed)
    C, H, W = image_shape
    labels = np.arange(n, dtype=np.int64) % classes
    ii, jj = np.meshgrid(np.arange(H), np.arange(W), indexing="ij")
    images = np.empty((n, C, H, W), dtype=np.float32)
    angles = 2 * np.pi * np.arange(classes) / classes
    r = min(H, W) / 4.0
    ci = H / 2.0 - 0.5 + r * np.sin(angles)
    cj = W / 2.0 - 0.5 + r * np.cos(angles)
    width = min(H, W) / 6.0
    for k in range(n):
        y = labels[k]
        if kind == "blobs":
            clean = 0.9 * np.exp(-(((ii - ci[y]) ** 2 + (jj - cj[y]) ** 2)
                                   / (2.0 * width ** 2)))
        else:
            theta = np.pi * y / classes
            phase = rng.uniform(0.0, 2 * np.pi)
            wave = np.sin(2 * np.pi * 2.0 * (ii * np.cos(theta) + jj * np.sin(theta)) / H
                          + phase)
            clean = 0.5 + 0.45 * wave
        images[k] = np.clip(clean[None, :, :] + noise * rng.standard_normal((C, H, W)),
                            0.0, 1.0)
    return images, labels


class TestSynth:
    @pytest.mark.parametrize("kind", data.SYNTH_KINDS)
    @pytest.mark.parametrize("shape", [(1, 8, 8), (3, 32, 32), (2, 5, 6)],
                             ids=["1x8x8", "3x32x32", "2x5x6"])
    def test_bytes_equal_the_one_image_at_a_time_generator(self, kind, shape):
        run = data._RUN_VALUES // int(np.prod(shape))
        for n, classes, noise, seed in itertools.product(
                (1, 7, 2 * run + 3), (1, 2, 10), (0.0, 0.5), (0, 1, 2)):
            ds = data.synth_dataset(kind, n, shape, classes, seed=seed, noise=noise)
            images, labels = reference_synth(kind, n, shape, classes, seed, noise)
            case = (n, classes, noise, seed)
            assert ds.images.dtype == np.float32, case
            assert ds.images.tobytes() == images.tobytes(), case
            assert np.array_equal(ds.labels, labels), case

    def test_same_seed_identical(self):
        a = data.synth_dataset("blobs", 64, (1, 8, 8), 2, seed=5)
        b = data.synth_dataset("blobs", 64, (1, 8, 8), 2, seed=5)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_balanced_labels(self):
        for n in (64, 65):
            ds = data.synth_dataset("stripes", n, (1, 8, 8), 2, seed=0)
            counts = np.bincount(ds.labels, minlength=2)
            assert abs(int(counts[0]) - int(counts[1])) <= 1

    @pytest.mark.parametrize("noise", [float("nan"), float("inf"), -0.5])
    def test_noise_must_be_finite_and_non_negative(self, noise):
        with pytest.raises(ValueError, match="noise must be a finite number >= 0"):
            data.synth_dataset("blobs", 8, (1, 8, 8), 2, noise=noise)

    @pytest.mark.parametrize("kind", ["blobs", "stripes"])
    @pytest.mark.parametrize("setting, message", [
        ({"classes": 0}, r"^classes must be >= 1, got 0$"),
        ({"classes": -1}, r"^classes must be >= 1, got -1$"),
        ({"image_shape": (1, 0, 8)}, r"^image_shape extents must be >= 1, got \(1, 0, 8\)$"),
        ({"image_shape": (0, 8, 8)}, r"^image_shape extents must be >= 1, got \(0, 8, 8\)$"),
    ], ids=["zero classes", "negative classes", "zero height", "zero channels"])
    def test_class_count_and_extents_must_be_positive(self, kind, setting, message):
        with pytest.raises(ValueError, match=message):
            data.synth_dataset(kind, 8, **setting)

    def test_zero_noise_blobs_linearly_separable(self):
        ds = data.synth_dataset("blobs", 128, (1, 8, 8), 2, seed=1, noise=0.0)
        flat = ds.images.reshape(len(ds), -1).astype(np.float64)
        # perceptron on centered data converges only if separable
        y = 2.0 * ds.labels - 1.0
        w = np.zeros(flat.shape[1])
        bias = 0.0
        for _ in range(200):
            wrong = (np.sign(flat @ w + bias) != y)
            if not wrong.any():
                break
            k = int(np.argmax(wrong))
            w += y[k] * flat[k]
            bias += y[k]
        assert not (np.sign(flat @ w + bias) != y).any()

    def test_range_and_shape(self):
        ds = data.synth_dataset("stripes", 10, (2, 8, 8), 3, seed=2)
        assert ds.images.shape == (10, 2, 8, 8)
        assert ds.images.min() >= 0 and ds.images.max() <= 1


class TestEvaluate:
    def test_random_model_chance(self, desk_data):
        _, test = desk_data
        rng = np.random.default_rng(3)
        acc = bench.evaluate(lambda xs: rng.integers(0, 2, len(xs)), test)
        assert abs(acc - 0.5) < 3 * np.sqrt(0.25 / len(test))

    def test_oracle_is_perfect(self, desk_data):
        _, test = desk_data
        idx = [0]

        def oracle(xs):
            out = test.labels[idx[0]:idx[0] + len(xs)]
            idx[0] += len(xs)
            return out

        assert bench.evaluate(oracle, test, batch_size=64) == 1.0

    def test_batch_size_invariance(self, trained_ep, desk_data):
        from epbench import energy
        spec, params, _ = trained_ep
        _, test = desk_data
        sub = test.subset(100)

        def model_eval(xs):
            return np.argmax(energy.logits_at(np.asarray(xs, dtype=np.float64),
                                              params, spec, t=5), axis=-1)

        a = bench.evaluate(model_eval, sub, batch_size=1)
        b = bench.evaluate(model_eval, sub, batch_size=64)
        assert a == b

    def test_batch_size_invariance_early_exit(self, trained_ep, desk_data):
        # the early-exit free phase freezes each example on its own residual,
        # so its labels do not depend on the batch either
        from epbench import training
        spec, params, _ = trained_ep
        sub = desk_data[1].subset(100)

        def run(batch_size):
            labels = []

            def model_eval(xs):
                labels.append(training._ep_predict(params, spec, xs))
                return labels[-1]
            return bench.evaluate(model_eval, sub, batch_size=batch_size), labels

        (a, la), (b, lb) = run(1), run(64)
        assert a == b
        assert np.concatenate(la).tobytes() == np.concatenate(lb).tobytes()


class TestMeanRobustness:
    def test_single_record(self):
        assert bench.mean_robustness([RunRecord("m", "pgd", accuracy=0.5)]) == 0.5

    def test_two_records(self):
        rs = [RunRecord("m", "pgd", accuracy=0.4), RunRecord("m", "cw", accuracy=0.6)]
        assert bench.mean_robustness(rs) == pytest.approx(0.5)

    def test_clean_excluded(self):
        rs = [RunRecord("m", "clean", accuracy=1.0), RunRecord("m", "pgd", accuracy=0.2)]
        assert bench.mean_robustness(rs) == pytest.approx(0.2)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            bench.mean_robustness([RunRecord("m", "clean", accuracy=1.0)])


HEADER = ",".join(bench.CSV_COLUMNS) + "\n"
ROW = "m,pgd,linf,0.1,0,0.5,3,0,1.0\n"


class TestResultsFiles:
    def test_empty_list_header_only(self, tmp_path):
        p = tmp_path / "r.csv"
        bench.emit_results([], p)
        lines = p.read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0] == ",".join(bench.CSV_COLUMNS)

    def test_csv_round_trip(self, tmp_path):
        p = tmp_path / "r.csv"
        records = [
            RunRecord("m1", "pgd", "linf", 0.1, 0, 0.875, 128, 3, 12.5),
            RunRecord("m1", "clean", "", 0.0, 0, 0.99, 128, 3, 1.0),
        ]
        bench.emit_results(records, p)
        assert bench.read_results(p) == records

    def test_json_mirror_round_trip(self, tmp_path):
        p = tmp_path / "r.json"
        records = [RunRecord("m", "square", "linf", 0.05, 0, 0.75, 64, 1, 9.0)]
        bench.emit_results(records, p)
        assert bench.read_results(p) == records

    @pytest.mark.parametrize("name, text", [
        ("r.csv", "attack,accuracy\npgd,0.5\n"),
        ("r.json", '[{"attack": "pgd", "accuracy": 0.5}]'),
    ])
    def test_missing_column_named(self, tmp_path, name, text):
        p = tmp_path / name
        p.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: missing column 'model'$"):
            bench.read_results(p)

    @pytest.mark.parametrize("name, text, message", [
        ("r.csv", HEADER + "m,pgd,linf,0.1,0\n", "row 1, column 'accuracy': no value"),
        ("r.csv", HEADER + ROW + "m,pgd,linf,x,0,0.5,3,0,1.0\n",
         "row 2, column 'strength': 'x' is not a float"),
        ("r.csv", HEADER + ROW.replace("\n", ",9\n"), "row 1 has more values than the header"),
        ("r.json", '{"model": "m"}', "expected a list of result rows"),
        ("r.json", "[1, 2]", "expected a list of result rows"),
        ("r.json", "[{", "Expecting property name"),
    ], ids=["short-row", "bad-value", "long-row", "object", "not-rows", "truncated"])
    def test_malformed_file_names_path_row_and_column(self, tmp_path, name, text,
                                                      message):
        p = tmp_path / name
        p.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{p}: {message}')}"):
            bench.read_results(p)

    def test_comma_in_model_name_escaped(self, tmp_path):
        p = tmp_path / "r.csv"
        records = [RunRecord("model,with,commas", "pgd", "l2", 1.0, 0, 0.5, 10, 0, 1.0)]
        bench.emit_results(records, p)
        assert bench.read_results(p) == records


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        spec = desk_spec()
        params = init_params(spec, np.random.default_rng(0), dtype=np.float32)
        ck = Checkpoint(spec=spec, params=params, model_kind="ep", seed=42,
                        train_config={"data": "synth", "seed": 42},
                        norm_mean=[0.43], norm_std=[0.21], convergence_step=7)
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, ck)
        loaded = load_checkpoint(p)
        for (na, a), (nb, b) in zip(ck.params.tensors(), loaded.params.tensors()):
            assert na == nb
            assert np.array_equal(a, b)
            assert b.dtype == np.float32
        assert loaded.seed == 42
        assert loaded.convergence_step == 7
        assert loaded.norm_mean == [pytest.approx(0.43)]
        # saving the loaded checkpoint reproduces the same bytes
        p2 = tmp_path / "m2.ckpt"
        save_checkpoint(p2, loaded)
        assert p.read_bytes() == p2.read_bytes()

    def test_loaded_model_predicts_bit_exactly(self, trained_ep, eval_batch, tmp_path):
        spec, params, _ = trained_ep
        xs, _ = eval_batch
        ck = Checkpoint(spec=spec, params=params, model_kind="ep",
                        convergence_step=5)
        p = tmp_path / "ep.ckpt"
        save_checkpoint(p, ck)
        loaded = load_checkpoint(p)
        logits_a = from_checkpoint(ck).logits
        logits_b = from_checkpoint(loaded).logits
        assert np.array_equal(logits_a(xs[:16]), logits_b(xs[:16]))

    def test_committed_checkpoint_round_trips_byte_for_byte(self, tmp_path):
        # tensor names and order are derived from the spec, so the committed
        # file pins the format: same names, order and bytes
        committed = Path(__file__).resolve().parents[1] / "perfbench" / "desk_ep.ckpt"
        again = tmp_path / "again.ckpt"
        save_checkpoint(again, load_checkpoint(committed))
        assert again.read_bytes() == committed.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.ckpt"
        p.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(p)

    def test_truncation_rejected(self, tmp_path):
        spec = desk_spec()
        params = init_params(spec, np.random.default_rng(1), dtype=np.float32)
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, Checkpoint(spec=spec, params=params))
        blob = p.read_bytes()
        p.write_bytes(blob[:-8])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(p)

    @staticmethod
    def _framed(header: bytes, payload: bytes = b"") -> bytes:
        return MAGIC + struct.pack("<IQ", 1, len(header)) + header + payload

    @pytest.mark.parametrize("case, where", [
        ("truncated version field", "version field at byte offset 4"),
        ("truncated header-length field", "header length field at byte offset 8"),
        ("non-UTF-8 header", "not UTF-8 at byte offset 26"),
        ("bad JSON", "not JSON at byte offset 25"),
        ("header missing spec", "field 'spec' missing"),
        ("header length 2^62", f"header length {2 ** 62} at byte offset 8"),
        ("extra tensor", r"expected conv_w0.*readout_b\[2\]; found .*readout_b\[2\], junk\[3\]$"),
        ("duplicated name", r"found conv_w0\[8, 1, 3, 3\], conv_b0\[8\], conv_b0\[8\], readout_w"),
        ("reordered manifest", r"expected conv_w0\[8, 1, 3, 3\], conv_b0\[8\], .*"
                               r"; found conv_b0\[8\], conv_w0\[8, 1, 3, 3\], "),
        ("wrong shape", r"expected conv_w0.*conv_b0\[8\].*; found conv_w0.*conv_b0\[4, 2\]"),
        ("non-finite payload", "tensor conv_w0 at byte offset .* non-finite"),
        ("unknown model_kind", "field 'model_kind' is 'zz'"),
        ("non-empty spec.fc", r"^header field 'spec.fc' is \[\[128, 16\]\], expected \[\] "
                              r"\(no fully connected connections\)$"),
        ("header missing spec.fc", r"^header field 'fc' missing$"),
        ("fractional manifest extent", "tensors.1.shape.0 is 4.7, not an integer"),
        ("float manifest extent", "tensors.1.shape.0 is 8.0, not an integer"),
        ("float readout_dim", "spec.readout_dim is 2.0, not an integer"),
        ("bool conv kernel", "spec.conv.0.kernel is True, not an integer"),
        ("hand-edited NaN std", r"^header field 'norm_std' is \[nan\], expected finite"),
        ("string mean", r"^header field 'norm_mean' is \['0.5'\], expected a list of "
                        r"numbers$"),
        ("one stat only", "'norm_mean' and 'norm_std' hold 1 and 0 values"),
        ("float step", r"'convergence_step' is 7\.0, expected an integer in \[0, 60\]"),
        ("step past t_free", r"'convergence_step' is 61, expected an integer in \[0, 60\]"),
        ("string seed", r"^header field 'seed' is 'x', expected an integer$"),
        ("string recipe seed", r"^header field 'train_config.seed' is 'x', expected"),
        ("NaN spec beta", r"^bad header field: beta must be > 0 and finite, got nan$"),
    ])
    def test_malformed_file_names_offset_or_field(self, tmp_path, case, where):
        spec = desk_spec()
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, Checkpoint(spec=spec, params=init_params(
            spec, np.random.default_rng(2), dtype=np.float32)))
        good = p.read_bytes()
        (hlen,) = struct.unpack_from("<Q", good, 8)
        header, payload = json.loads(good[16:16 + hlen]), good[16 + hlen:]
        manifest = header["tensors"]
        no_spec = {k: v for k, v in header.items() if k != "spec"}

        def edited(more_payload=b"", **fields):
            return self._framed(json.dumps({**header, **fields}).encode(),
                                payload + more_payload)

        blob = {
            "truncated version field": good[:6],
            "truncated header-length field": good[:12],
            "non-UTF-8 header": self._framed(b'{"spec": "\xff"}', payload),
            "bad JSON": self._framed(b'{"spec": }', payload),
            "header missing spec": self._framed(json.dumps(no_spec).encode(), payload),
            "header length 2^62": good[:8] + struct.pack("<Q", 2 ** 62) + good[16:],
            "extra tensor": edited(bytes(12), tensors=manifest + [{"name": "junk",
                                                                   "shape": [3]}]),
            "duplicated name": edited(bytes(32), tensors=manifest[:2] + manifest[1:]),
            "reordered manifest": edited(tensors=[manifest[1], manifest[0]] + manifest[2:]),
            "wrong shape": edited(tensors=[manifest[0], {"name": "conv_b0", "shape": [4, 2]}]
                                  + manifest[2:]),
            "non-finite payload": good[:16 + hlen] + struct.pack("<f", np.nan) + payload[4:],
            "unknown model_kind": edited(model_kind="zz"),
            "non-empty spec.fc": edited(spec={**header["spec"], "fc": [[128, 16]]}),
            "header missing spec.fc": edited(spec={k: v for k, v in header["spec"].items()
                                                   if k != "fc"}),
            "fractional manifest extent": edited(
                tensors=[manifest[0], {"name": "conv_b0", "shape": [4.7]}] + manifest[2:]),
            "float manifest extent": edited(
                tensors=[manifest[0], {"name": "conv_b0", "shape": [8.0]}] + manifest[2:]),
            "float readout_dim": edited(spec={**header["spec"], "readout_dim": 2.0}),
            "bool conv kernel": edited(spec={**header["spec"], "conv": [
                {**header["spec"]["conv"][0], "kernel": True}]}),
            # json writes and reads NaN, so only the shared check stops it
            "hand-edited NaN std": edited(norm_mean=[0.5], norm_std=[float("nan")]),
            "string mean": edited(norm_mean=["0.5"], norm_std=[0.25]),
            "one stat only": edited(norm_mean=[0.5]),
            "float step": edited(convergence_step=7.0),
            "step past t_free": edited(convergence_step=61),
            "string seed": edited(seed="x"),
            "string recipe seed": edited(train_config={"data": "synth", "seed": "x"}),
            "NaN spec beta": edited(spec={**header["spec"], "beta": float("nan")}),
        }[case]
        p.write_bytes(blob)
        with pytest.raises(CheckpointError, match=where):
            load_checkpoint(p)

    @pytest.mark.parametrize("case, where", [
        ("wrong bias shape", r"expected conv_w0\[8, 1, 3, 3\], conv_b0\[8\], .*"
                             r"; found conv_w0\[8, 1, 3, 3\], conv_b0\[5\], "),
        ("NaN weight", r"^tensor readout_w holds a non-finite value$"),
        ("bad model kind", r"^header field 'model_kind' is 'zz', expected one of ep, bp, adv$"),
        ("zero std", r"^header field 'norm_std' is \[0\.0\], expected values > 0$"),
        ("NaN std", r"^header field 'norm_std' is \[nan\], expected finite values$"),
        ("negative std", r"^header field 'norm_std' is \[-1\.0\], expected values > 0$"),
        ("mean per channel", r"^header fields 'norm_mean' and 'norm_std' hold 2 and 1 "
                             r"values, expected both 0 or both 1 \(one per input channel\)$"),
        ("negative step", r"^header field 'convergence_step' is -3, expected an integer "
                          r"in \[0, 60\] \(t_free\)$"),
        ("step past t_free", r"^header field 'convergence_step' is 999, expected"),
        ("string seed", r"^header field 'seed' is 'x', expected an integer$"),
        ("list recipe", r"^header field 'train_config' is \['synth'\], expected an object$"),
        ("number data", r"^header field 'train_config.data' is 7, expected a string$"),
        ("string recipe seed", r"^header field 'train_config.seed' is 'x', expected an "
                               r"integer$"),
        ("unknown synth_kind", r"^header field 'train_config.synth_kind' is 'fog', "
                               r"expected one of blobs, stripes$"),
        ("other input_shape", r"^header field 'train_config.input_shape' is \[3, 8, 8\], "
                              r"expected \[1, 8, 8\], the spec's input_shape$"),
        ("float input_shape", r"'train_config.input_shape' is \[1.0, 8, 8\], expected"),
        ("other classes", r"^header field 'train_config.classes' is 3, expected 2, the "
                          r"spec's readout_dim$"),
        ("zero n_test", r"^header field 'train_config.n_test' is 0, expected an integer "
                        r">= 1$"),
        ("float n_train", r"^header field 'train_config.n_train' is 16.0, expected an "
                          r"integer >= 1$"),
        ("NaN synth_noise", r"^header field 'train_config.synth_noise' is nan, expected a "
                            r"finite number >= 0$"),
        ("negative synth_noise", r"'train_config.synth_noise' is -0.5, expected a finite"),
        # the spec's integer fields, which ModelSpec itself lets through
        ("float readout_dim", r"^bad header field: spec.readout_dim is 2.0, not an integer$"),
        ("float t_free", r"^bad header field: spec.t_free is 10.0, not an integer$"),
        ("bool conv padding", r"^bad header field: spec.conv.0.padding is True, not an "
                              r"integer$"),
        ("numpy t_nudge", rf"^bad header field: spec.t_nudge is "
                          rf"{re.escape(repr(np.int64(15)))}, not an integer$"),
        # values no rule reads, which json.dumps cannot write
        ("float32 beta", rf"^header field 'spec.beta' is "
                         rf"{re.escape(repr(np.float32(0.5)))} of type float32, which "
                         rf"JSON cannot hold$"),
        ("float32 recipe value", rf"^header field 'train_config.lr' is "
                                 rf"{re.escape(repr(np.float32(0.1)))} of type float32"),
    ])
    def test_save_refuses_what_load_rejects(self, tmp_path, case, where):
        spec = desk_spec()
        params = init_params(spec, np.random.default_rng(2), dtype=np.float32)
        fields = {"model_kind": "ep", "norm_mean": [0.5], "norm_std": [0.25],
                  "convergence_step": 7}
        # ConvSpec refuses a bool itself; one set past that check is still
        # refused on save
        bool_padding = ConvSpec(1, 8, kernel=3, padding=1)
        object.__setattr__(bool_padding, "padding", True)
        specs = {
            "float readout_dim": replace(spec, readout_dim=2.0),
            "float t_free": replace(spec, t_free=10.0),
            "bool conv padding": replace(spec, conv=(bool_padding,)),
            "numpy t_nudge": replace(spec, t_nudge=np.int64(15)),
            "float32 beta": replace(spec, beta=np.float32(0.5)),
        }
        if case == "wrong bias shape":
            params.b[0] = np.zeros(5, dtype=np.float32)
        elif case == "NaN weight":
            params.w[-1][0, 0] = np.nan
        elif case in specs:
            spec = specs[case]
        else:
            fields.update({
                "bad model kind": {"model_kind": "zz"},
                "zero std": {"norm_std": [0.0]},
                "NaN std": {"norm_std": [np.nan]},
                "negative std": {"norm_std": [-1.0]},
                "mean per channel": {"norm_mean": [0.1, 0.2]},
                "negative step": {"convergence_step": -3},
                "step past t_free": {"convergence_step": 999},
                "string seed": {"seed": "x"},
                "list recipe": {"train_config": ["synth"]},
                "number data": {"train_config": {"data": 7}},
                "string recipe seed": {"train_config": {"seed": "x"}},
                "unknown synth_kind": {"train_config": {"synth_kind": "fog"}},
                "other input_shape": {"train_config": {"input_shape": [3, 8, 8]}},
                "float input_shape": {"train_config": {"input_shape": [1.0, 8, 8]}},
                "other classes": {"train_config": {"classes": 3}},
                "zero n_test": {"train_config": {"n_test": 0}},
                "float n_train": {"train_config": {"n_train": 16.0}},
                "NaN synth_noise": {"train_config": {"synth_noise": np.nan}},
                "negative synth_noise": {"train_config": {"synth_noise": -0.5}},
                "float32 recipe value": {"train_config": {"lr": np.float32(0.1)}},
            }[case])
        p = tmp_path / "m.ckpt"
        with pytest.raises(CheckpointError, match=where):
            save_checkpoint(p, Checkpoint(spec=spec, params=params, **fields))
        assert not p.exists()
