"""Harness pieces: the CIFAR binary parser, synthetic data, evaluation, mean
robustness, result files, and checkpoint round trips."""

import json
import struct
from pathlib import Path

import numpy as np
import pytest

from epbench import bench, data
from epbench.bench import RunRecord
from epbench.checkpoint import (MAGIC, Checkpoint, CheckpointError, load_checkpoint,
                                save_checkpoint)
from epbench.data import CifarFormatError
from epbench.handle import from_checkpoint
from epbench.model import init_params
from conftest import desk_spec


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
        assert ds.classes == 100


class TestSynth:
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
        bench.emit_results(records, p, fmt="json")
        assert bench.read_results(p) == records

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
        ("negative fc out_dim", "fc 0: out_dim must be >= 1"),
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
            "negative fc out_dim": edited(spec={**header["spec"], "fc": [[128, -1]]}),
        }[case]
        p.write_bytes(blob)
        with pytest.raises(CheckpointError, match=where):
            load_checkpoint(p)
