"""End-to-end CLI runs on a throwaway config: train -> eval -> attack ->
corrupt -> uncertainty -> report, plus config-file validation."""

import json
import re

import numpy as np
import pytest
from conftest import desk_spec

from epbench import bench, cli
from epbench.checkpoint import Checkpoint, CheckpointError, save_checkpoint
from epbench.config import ConfigError, load_config
from epbench.model import init_params

FAST_CONFIG = """
# desk-scale energy model
input_shape = 1,8,8
conv_channels = 8
conv_kernels = 3
conv_paddings = 1
readout_dim = 2
t_free = 60
t_nudge = 15
beta = 0.5
fp_tol = 1e-6

epochs = 6
batch_size = 64
learning_rates = 0.1, 0.05
momentum = 0.9
update_rule = symmetric
seed = 0
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    cfg = d / "model.cfg"
    cfg.write_text(FAST_CONFIG)
    return d


@pytest.fixture(scope="module")
def ep_ckpt(workdir):
    out = workdir / "ep.ckpt"
    rc = cli.main(["train", "--model", "ep", "--config", str(workdir / "model.cfg"),
                   "--data", "synth", "--synth-n", "256", "--out", str(out)])
    assert rc == 0
    return out


class TestConfig:
    def test_unknown_key_is_hard_error(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("input_shape = 1,8,8\nconv_channels = 4\nlearning_rqte = 0.1\n")
        with pytest.raises(ConfigError, match="learning_rqte"):
            load_config(p)

    def test_duplicate_key_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("epochs = 2\nepochs = 3\ninput_shape = 1,8,8\nconv_channels = 4\n")
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(p)

    def test_round_trip_of_fast_config(self, workdir):
        spec, cfg = load_config(workdir / "model.cfg")
        assert spec.input_shape == (1, 8, 8)
        assert spec.conv[0].out_channels == 8
        assert cfg.epochs == 6
        assert cfg.learning_rates == (0.1, 0.05)

    def test_adversarial_block_parsed(self, tmp_path):
        p = tmp_path / "adv.cfg"
        p.write_text(FAST_CONFIG + "\nadv_norm = l2\nadv_epsilon = 0.4\nadv_steps = 5\n")
        _, cfg = load_config(p)
        assert cfg.adversarial is not None
        assert cfg.adversarial.epsilon == 0.4

    def test_shipped_configs_parse(self):
        from pathlib import Path
        root = Path(__file__).resolve().parents[1] / "configs"
        spec, _ = load_config(root / "desk.cfg")
        assert spec.state_shapes() == [(8, 4, 4)]
        spec, cfg = load_config(root / "cifar10_full.cfg")
        assert spec.state_shapes()[-1] == (512, 1, 1)
        assert len(cfg.learning_rates) == 5


@pytest.mark.parametrize("line, located_by, message", [
    ("epochs = two", "line", "bad value for 'epochs'"),
    ("t_free = 1.5", "line", "bad value for 't_free'"),
    ("input_shape = 1,8", "line", "bad value for 'input_shape'"),
    ("beta = -1", "file", "beta must be > 0"),
    ("adv_norm = l3", "file", "unknown norm 'l3'"),
], ids=["epochs", "t_free", "input_shape", "beta", "adv_norm"])
def test_malformed_value_names_its_location(tmp_path, line, located_by, message):
    # a value that does not parse names its line; one the dataclasses reject
    # names the file and keeps their message
    key = line.split("=")[0].strip()
    kept = [k for k in FAST_CONFIG.splitlines() if k.split("=")[0].strip() != key]
    p = tmp_path / "bad.cfg"
    p.write_text("\n".join(kept + [line]) + "\n")
    at = f"line {len(kept) + 1}" if located_by == "line" else re.escape(str(p))
    with pytest.raises(ConfigError, match=f"{at}: {message}"):
        load_config(p)


def test_missing_synthetic_recipe_field_is_named(tmp_path):
    spec = desk_spec()
    recipe = {"data": "synth", "synth_kind": "blobs", "input_shape": [1, 8, 8],
              "classes": 2, "n_train": 16, "n_test": 8, "seed": 0}
    p = tmp_path / "ep.ckpt"
    save_checkpoint(p, Checkpoint(spec=spec, train_config=recipe, params=init_params(
        spec, np.random.default_rng(0))))
    with pytest.raises(CheckpointError, match="'synth_noise' missing"):
        cli.main(["eval", "--ckpt", str(p), "--out", str(tmp_path / "e.csv")])


CIFAR_CONFIG = """
input_shape = 3,32,32
conv_channels = 2
readout_dim = 10
t_free = 8
t_nudge = 4
epochs = 1
batch_size = 8
learning_rates = 0.05, 0.05
"""


def _train_on_cifar_fixture(d):
    """Write a 6-record CIFAR-10 file and train an ep checkpoint on it."""
    rng = np.random.default_rng(0)
    labels = np.arange(6, dtype=np.uint8)[:, None]
    pixels = rng.integers(0, 256, (6, 3072), dtype=np.uint8)
    fixture = d / "data_batch.bin"
    fixture.write_bytes(np.concatenate([labels, pixels], axis=1).tobytes())
    cfg = d / "cifar.cfg"
    cfg.write_text(CIFAR_CONFIG)
    out = d / "ep.ckpt"
    rc = cli.main(["train", "--model", "ep", "--config", str(cfg),
                   "--data", str(fixture), "--out", str(out)])
    assert rc == 0
    return fixture, out


def test_cifar_training_reports_no_validation_accuracy(tmp_path, capsys):
    # one CIFAR file carries no held-out split, so the history must not call
    # an accuracy on the training images a validation accuracy
    _train_on_cifar_fixture(tmp_path)
    history = json.loads((tmp_path / "ep.ckpt.history.json").read_text())
    assert len(history) == 1
    assert "train_acc" in history[0]
    assert "val_acc" not in history[0]
    assert "val_acc" not in capsys.readouterr().out


@pytest.fixture(scope="module")
def cifar_ckpt(tmp_path_factory):
    return _train_on_cifar_fixture(tmp_path_factory.mktemp("cifar"))


@pytest.mark.parametrize("argv", [
    ["eval"],
    ["attack", "--family", "pgd", "--eps", "0.1"],
    ["corrupt"],
    ["uncertainty", "--eps-grid", "0.1,0.2"],
    ["eval", "--data", "synth"],
    ["attack", "--family", "pgd", "--eps", "0.1", "--data", "synth"],
    ["corrupt", "--data", "synth"],
    ["uncertainty", "--eps-grid", "0.1,0.2", "--data", "synth"],
], ids=lambda argv: argv[0] + ("-synth" if "synth" in argv else ""))
def test_cifar_checkpoint_needs_data_flag(argv, cifar_ckpt, tmp_path, capsys):
    # the checkpoint records only its training file, which is no test set,
    # and it has no synthetic recipe for --data synth to regenerate
    _, ckpt = cifar_ckpt
    out = tmp_path / "r.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--ckpt", str(ckpt), "--out", str(out)])
    assert exc.value.code == 2
    expected = "--data synth cannot be used" if "synth" in argv else "--data is required"
    assert expected in capsys.readouterr().err
    assert not out.exists()


def test_cifar_checkpoint_evaluates_on_given_data(cifar_ckpt, tmp_path, capsys):
    fixture, ckpt = cifar_ckpt
    rc = cli.main(["eval", "--ckpt", str(ckpt), "--data", str(fixture),
                   "--out", str(tmp_path / "e.csv")])
    assert rc == 0
    assert "on 6 examples" in capsys.readouterr().out


class TestEndToEnd:
    def test_train_writes_checkpoint(self, ep_ckpt):
        assert ep_ckpt.exists()
        from epbench.checkpoint import load_checkpoint
        ck = load_checkpoint(ep_ckpt)
        assert ck.model_kind == "ep"
        assert ck.convergence_step >= 1

    def test_eval_prints_and_writes(self, ep_ckpt, workdir, capsys):
        out = workdir / "eval.csv"
        rc = cli.main(["eval", "--ckpt", str(ep_ckpt), "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "accuracy" in printed
        records = bench.read_results(out)
        assert len(records) == 1
        printed_acc = float(printed.split("accuracy: ")[1].split(" ")[0])
        assert records[0].accuracy == pytest.approx(printed_acc, abs=5e-5)

    def test_attack_then_report_mean_matches_hand_computation(
            self, ep_ckpt, workdir, capsys):
        out = workdir / "attack.csv"
        rc = cli.main(["attack", "--ckpt", str(ep_ckpt), "--family", "pgd",
                       "--norm", "linf", "--eps", "0.02,0.05", "--subset", "64",
                       "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        records = bench.read_results(out)
        cells = [r.accuracy for r in records if r.attack != "clean"]
        assert len(cells) == 2
        rc = cli.main(["report", "--in", str(out), "--mean-robustness"])
        assert rc == 0
        printed = capsys.readouterr().out
        reported = float(printed.split("mean robustness: ")[1].strip())
        assert reported == pytest.approx(float(np.mean(cells)), abs=5e-5)

    def test_attack_timestep_flag(self, ep_ckpt, workdir):
        out = workdir / "attack_t.csv"
        rc = cli.main(["attack", "--ckpt", str(ep_ckpt), "--family", "pgd",
                       "--eps", "0.05", "--subset", "32", "--timestep", "8",
                       "--out", str(out)])
        assert rc == 0
        assert len(bench.read_results(out)) == 2

    def test_square_attack_via_cli(self, ep_ckpt, workdir):
        out = workdir / "square.csv"
        rc = cli.main(["attack", "--ckpt", str(ep_ckpt), "--family", "square",
                       "--eps", "0.1", "--subset", "16", "--query-budget", "200",
                       "--out", str(out)])
        assert rc == 0
        records = bench.read_results(out)
        assert any(r.attack == "square" for r in records)

    def test_corrupt_cli(self, ep_ckpt, workdir):
        out = workdir / "corrupt.csv"
        rc = cli.main(["corrupt", "--ckpt", str(ep_ckpt),
                       "--kinds", "gaussian_noise,contrast",
                       "--severities", "1,3", "--subset", "64",
                       "--out", str(out)])
        assert rc == 0
        records = bench.read_results(out)
        kinds = {r.attack for r in records}
        assert "gaussian_noise" in kinds and "contrast" in kinds and "clean" in kinds

    def test_corrupt_times_each_cell(self, ep_ckpt, workdir):
        out = workdir / "corrupt_wall.csv"
        rc = cli.main(["corrupt", "--ckpt", str(ep_ckpt),
                       "--kinds", "gaussian_noise,pixelate",
                       "--severities", "1,2", "--subset", "32", "--out", str(out)])
        assert rc == 0
        records = bench.read_results(out)
        walls = [r.wall_ms for r in records if r.severity > 0]
        assert len(walls) == 4 and min(walls) > 0
        assert len(set(walls)) > 1
        # the clean cell is measured once and shared by each kind's severity-0 row
        assert len({r.wall_ms for r in records if r.severity == 0}) == 1

    def test_uncertainty_cli(self, ep_ckpt, workdir):
        out = workdir / "unc.csv"
        rc = cli.main(["uncertainty", "--ckpt", str(ep_ckpt),
                       "--eps-grid", "0.05,0.1,0.2,0.4", "--samples", "8",
                       "--subset", "16", "--out", str(out)])
        assert rc == 0
        records = bench.read_results(out)
        assert sum(r.attack == "disagreement" for r in records) == 4

    def test_suite_family_records_worst_case(self, ep_ckpt, workdir):
        out = workdir / "suite.csv"
        rc = cli.main(["attack", "--ckpt", str(ep_ckpt), "--family", "suite",
                       "--eps", "0.05", "--subset", "12", "--query-budget", "60",
                       "--out", str(out)])
        assert rc == 0
        records = bench.read_results(out)
        families = {r.attack for r in records}
        assert {"pgd", "cw", "square", "suite", "clean"} <= families
        suite_acc = next(r.accuracy for r in records if r.attack == "suite")
        per_family = [r.accuracy for r in records
                      if r.attack in ("pgd", "cw", "square")]
        assert suite_acc <= min(per_family) + 1e-9
        # each family row carries its own measured time; the suite row the total
        walls = [r.wall_ms for r in records if r.attack in ("pgd", "cw", "square")]
        suite_wall = next(r.wall_ms for r in records if r.attack == "suite")
        assert len(set(walls)) == 3
        assert suite_wall >= sum(walls)

    def test_tiny_strength_row(self, ep_ckpt, workdir):
        out = workdir / "tiny.csv"
        rc = cli.main(["attack", "--ckpt", str(ep_ckpt), "--family", "pgd",
                       "--eps", "1e-5", "--steps", "1", "--subset", "4",
                       "--out", str(out)])
        assert rc == 0
        rows = [r for r in bench.read_results(out) if r.attack == "pgd"]
        assert len(rows) == 1 and rows[0].strength == 1e-05

    def test_json_mirror(self, ep_ckpt, workdir):
        out = workdir / "eval.json"
        rc = cli.main(["eval", "--ckpt", str(ep_ckpt), "--out", str(out),
                       "--format", "json"])
        assert rc == 0
        assert bench.read_results(out)[0].attack == "clean"


@pytest.mark.parametrize("argv", [
    ["eval", "--subset", "-250"],
    ["uncertainty", "--samples", "0", "--eps-grid", "0.1", "--out", "u.csv"],
    ["eval", "--batch-size", "0"],
    ["attack", "--steps", "0", "--family", "pgd", "--eps", "0.1", "--out", "a.csv"],
    ["attack", "--query-budget", "-3", "--family", "square", "--eps", "0.1",
     "--out", "a.csv"],
    ["train", "--synth-n", "0", "--model", "ep", "--config", "c.cfg", "--out", "m.ckpt"],
    ["eval", "--timestep", "0"],
], ids=["subset", "samples", "batch-size", "steps", "query-budget", "synth-n", "timestep"])
def test_count_flags_below_one_rejected(argv, capsys):
    # argparse refuses the value before the checkpoint is opened
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--ckpt", "never-read.ckpt"])
    assert exc.value.code == 2
    assert f"argument {argv[1]}: must be an integer >= 1" in capsys.readouterr().err
