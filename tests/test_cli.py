"""End-to-end CLI runs on a throwaway config: train -> eval -> attack ->
corrupt -> uncertainty -> report, plus config-file validation."""

import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest
from conftest import desk_spec

import epbench
from epbench import bench, cli, energy
from epbench.checkpoint import (Checkpoint, CheckpointError, load_checkpoint,
                                save_checkpoint)
from epbench.config import ConfigError, load_config
from epbench.data import normalize_images
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
        # a misspelt key, and a key of a removed feature
        p = tmp_path / "bad.cfg"
        for line in ("learning_rqte = 0.1", "fc_dims = 16"):
            p.write_text(f"input_shape = 1,8,8\nconv_channels = 4\n{line}\n")
            with pytest.raises(ConfigError, match=f"line 3: unknown key "
                                                  f"'{line.split()[0]}'"):
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

    def test_adv_keys_set_the_same_named_fields(self, tmp_path):
        p = tmp_path / "adv.cfg"
        p.write_text(FAST_CONFIG + "\nadv_norm = linf\nadv_epsilon = 0.4\nadv_steps = 5\n")
        _, cfg = load_config(p)
        assert (cfg.adv_norm, cfg.adv_epsilon, cfg.adv_steps) == ("linf", 0.4, 5)

    def test_shipped_configs_parse(self):
        root = Path(__file__).resolve().parents[1] / "configs"
        spec, _ = load_config(root / "desk.cfg")
        assert spec.state_shapes() == [(8, 4, 4)]
        spec, cfg = load_config(root / "cifar10_full.cfg")
        assert spec.state_shapes()[-1] == (512, 1, 1)
        assert len(cfg.learning_rates) == 5

    def test_walkthrough_configs_parse(self, tmp_path):
        path = Path(__file__).resolve().parents[1] / "tools" / "walkthrough.py"
        loader = importlib.util.spec_from_file_location("walkthrough", path)
        walkthrough = importlib.util.module_from_spec(loader)
        loader.loader.exec_module(walkthrough)
        assert walkthrough.CONFIGS
        for name, text in walkthrough.CONFIGS.items():
            p = tmp_path / f"{name}.cfg"
            p.write_text(text)
            load_config(p)


@pytest.mark.parametrize("line, located_by, message", [
    ("epochs = two", "line", "bad value for 'epochs'"),
    ("t_free = 1.5", "line", "bad value for 't_free'"),
    ("input_shape = 1,8", "line", "bad value for 'input_shape'"),
    # a blank list item is an error, not a dropped entry
    ("conv_channels = 8,", "line", "bad value for 'conv_channels': blank item"),
    ("learning_rates = 0.1,, 0.05", "line", "bad value for 'learning_rates': blank item"),
    ("input_shape = 1,,8,8", "line", "bad value for 'input_shape': blank item"),
    ("beta = -1", "file", "beta must be > 0"),
    ("adv_norm = l3", "file", "unknown norm 'l3'"),
    # float() parses nan and inf, so the dataclasses must reject them
    ("beta = nan", "file", "beta must be > 0 and finite, got nan"),
    ("beta = inf", "file", "beta must be > 0 and finite, got inf"),
    ("fp_tol = nan", "file", "fp_tol must be > 0 and finite, got nan"),
    ("momentum = nan", "file", "momentum must be finite, got nan"),
    ("learning_rates = nan, 0.05", "file",
     r"learning_rates must be >= 0 and finite, got \(nan, 0.05\)"),
    ("adv_epsilon = nan", "file", "adv_epsilon must be finite, got nan"),
], ids=["epochs", "t_free", "input_shape", "trailing_comma", "double_comma",
        "blank_shape_item", "beta", "adv_norm", "nan_beta", "inf_beta", "nan_fp_tol",
        "nan_momentum", "nan_learning_rate", "nan_adv_epsilon"])
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


def _write_bad_cifar(path, case):
    """Write the CIFAR file of one case that a 3x32x32, 10-class model
    cannot use; returns the extra argv it is read with."""
    pixels = np.zeros((8, 3072), dtype=np.uint8)
    if case == "cifar100-labels":
        coarse, fine = np.zeros((8, 1), np.uint8), np.arange(0, 80, 10, dtype=np.uint8)[:, None]
        path.write_bytes(np.concatenate([coarse, fine, pixels], axis=1).tobytes())
        return ["--cifar-variant", "cifar100"]
    labels = np.arange(8, dtype=np.uint8)[:, None]
    payload = np.concatenate([labels, pixels], axis=1).tobytes()
    if case != "missing":
        path.write_bytes({"truncated": payload[:3073 + 5], "empty": b""}.get(case, payload))
    return []


@pytest.mark.parametrize("command", ["eval", "attack", "train"])
@pytest.mark.parametrize("case, message", [
    ("missing", "No such file or directory"),
    ("truncated", "not a multiple of the 3073-byte record (byte offset 3073)"),
    ("empty", "the file holds no example"),
    ("cifar100-labels", "label 70 >= model classes 10"),
    ("desk-model", "images (3, 32, 32) != model input (1, 8, 8)"),
], ids=["missing", "truncated", "empty", "cifar100-labels", "desk-model"])
def test_unusable_cifar_file_exits_2_naming_it(command, case, message, cifar_ckpt,
                                               ep_ckpt, workdir, tmp_path, capsys):
    # the file is checked before any model runs: no traceback, no accuracy
    # over labels the model cannot predict, no result file
    data = tmp_path / "data.bin"
    argv = ["--data", str(data)] + _write_bad_cifar(data, case)
    out = tmp_path / "r.out"
    if command == "train":
        cfg = workdir / "model.cfg" if case == "desk-model" else cifar_ckpt[1].parent / "cifar.cfg"
        argv = ["train", "--model", "ep", "--config", str(cfg)] + argv
    else:
        ckpt = ep_ckpt if case == "desk-model" else cifar_ckpt[1]
        argv = [command, "--ckpt", str(ckpt)] + argv
        argv += ["--family", "pgd", "--eps", "0.1"] if command == "attack" else []
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"{data}: " in err and message in err
    assert not out.exists()


def test_ep_training_reports_free_phase_steps(tmp_path, capsys):
    cfg = tmp_path / "one.cfg"
    # two convs, so the probe's examples stop at different steps
    cfg.write_text(FAST_CONFIG.replace("epochs = 6", "epochs = 1")
                   .replace("conv_channels = 8", "conv_channels = 4, 8")
                   .replace("conv_kernels = 3", "conv_kernels = 3, 3")
                   .replace("conv_paddings = 1", "conv_paddings = 1, 1")
                   .replace("learning_rates = 0.1, 0.05",
                            "learning_rates = 0.2, 0.1, 0.05"))
    out = tmp_path / "ep.ckpt"
    assert cli.main(["train", "--model", "ep", "--config", str(cfg), "--data", "synth",
                     "--synth-n", "64", "--out", str(out)]) == 0
    m = re.search(r"convergence step (\d+), the max over 64 probe examples; "
                  r"median ([\d.]+), (\d+) capped\)", capsys.readouterr().out)
    assert m is not None
    step, median, capped = int(m[1]), float(m[2]), int(m[3])
    assert step == load_checkpoint(out).convergence_step
    assert 1 <= median < step <= 60 and 0 <= capped <= 64
    assert capped == 0 or step == 60
    history = json.loads((tmp_path / "ep.ckpt.history.json").read_text())
    assert set(history[0]) == {"epoch", "train_acc", "val_acc", "free_steps_mean",
                               "free_steps_max", "unconverged_frac"}


@pytest.mark.parametrize("n", [32, 300])
def test_ep_training_probe_is_the_last_training_evaluation(n, tmp_path, capsys,
                                                           monkeypatch):
    # the probe reuses the last epoch's training-set free phases, so training
    # runs one free phase per training batch and per evaluation batch, no
    # more; 32 images are fewer than the probe's 64, 300 fill two evaluation
    # batches of 256
    calls = []  # batch size of each free phase
    original = energy.free_phase

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return original(*args, **kwargs)

    for mod in list(vars(epbench).values()):
        if getattr(mod, "free_phase", None) is original:
            monkeypatch.setattr(mod, "free_phase", counted)
    cfg = tmp_path / "two.cfg"
    cfg.write_text(FAST_CONFIG.replace("epochs = 6", "epochs = 2"))
    out = tmp_path / "ep.ckpt"
    assert cli.main(["train", "--model", "ep", "--config", str(cfg), "--data", "synth",
                     "--synth-n", str(n), "--out", str(out)]) == 0

    def batches(size, step):
        return [min(step, size - b0) for b0 in range(0, size, step)]

    # per epoch: training batches, then training and val evaluation batches
    assert calls == 2 * (batches(n, 64) + batches(n, 256) + batches(n // 2, 256))

    ckpt = load_checkpoint(out)
    train = cli._synth_from_snapshot(ckpt.train_config, split="train")
    probe = normalize_images(train.images, ckpt.norm_mean, ckpt.norm_std)
    probe = np.asarray(probe.astype(np.float32)[:64], dtype=np.float64)
    fresh = original(probe, ckpt.params, ckpt.spec)
    m = re.search(r"convergence step (\d+), the max over (\d+) probe examples; "
                  r"median ([\d.]+), (\d+) capped\)", capsys.readouterr().out)
    assert m is not None
    assert ckpt.convergence_step == fresh.steps == int(m[1])
    assert int(m[2]) == min(n, 64)
    assert m[3] == f"{np.median(fresh.example_steps):g}"
    assert int(m[4]) == np.sum(fresh.residual >= ckpt.spec.fp_tol)


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
        rc = cli.main(["eval", "--ckpt", str(ep_ckpt), "--out", str(out)])
        assert rc == 0
        assert bench.read_results(out)[0].attack == "clean"

    @pytest.mark.parametrize("suffix", [".json", ".csv"])
    @pytest.mark.parametrize("command", [["eval"],
                                         ["attack", "--family", "pgd", "--eps", "0.05"]],
                             ids=["eval", "attack"])
    def test_out_name_picks_the_format_report_reads(self, ep_ckpt, workdir, capsys,
                                                     command, suffix):
        out = workdir / f"{command[0]}_named{suffix}"
        rc = cli.main(command + ["--ckpt", str(ep_ckpt), "--subset", "8",
                                 "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        if suffix == ".json":
            assert json.loads(text)[0]["attack"] == "clean"
        else:
            assert text.splitlines()[0] == ",".join(bench.CSV_COLUMNS)
        assert cli.main(["report", "--in", str(out)]) == 0
        assert bench.read_results(out)[0].model == ep_ckpt.stem


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


def test_format_flag_is_gone(capsys):
    # a result file's format comes from its name alone
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "--ckpt", "never-read.ckpt", "--format", "json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format json" in capsys.readouterr().err


def test_report_names_the_missing_column(tmp_path, capsys):
    p = tmp_path / "r.csv"
    p.write_text("attack,accuracy\npgd,0.5\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["report", "--in", str(p)])
    assert exc.value.code == 2
    assert f"{p}: missing column 'model'" in capsys.readouterr().err


@pytest.mark.parametrize("name, text, message", [
    ("r.csv", ",".join(bench.CSV_COLUMNS) + "\nm,pgd,linf,0.1,0\n",
     "r.csv: row 1, column 'accuracy': no value"),
    ("r.json", '{"model": "m"}', "r.json: expected a list of result rows"),
    ("r.csv", None, "No such file or directory"),
    ("r.csv", ",".join(bench.CSV_COLUMNS) + "\nm,pgd,linf,x,0,0.5,3,0,1.0\n",
     "r.csv: row 1, column 'strength': 'x' is not a float"),
], ids=["short-row", "json-object", "missing-file", "bad-strength"])
def test_report_names_a_malformed_result_file(tmp_path, capsys, name, text, message):
    p = tmp_path / name
    if text is not None:
        p.write_text(text)
    with pytest.raises(SystemExit) as exc:
        cli.main(["report", "--in", str(p)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and str(p) in err


def test_report_mean_robustness_needs_a_non_clean_row(tmp_path, capsys):
    p = tmp_path / "r.csv"
    bench.emit_results([bench.RunRecord("m", "clean", accuracy=1.0)], p)
    with pytest.raises(SystemExit) as exc:
        cli.main(["report", "--in", str(p), "--mean-robustness"])
    assert exc.value.code == 2
    assert "--mean-robustness needs at least one non-clean record" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-0.5", "x"])
def test_synth_noise_must_be_finite_and_non_negative(value, tmp_path, capsys):
    # argparse refuses the amplitude before any data is made or config read
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "--model", "ep", "--config", "never-read.cfg",
                  "--synth-noise", value, "--out", str(tmp_path / "m.ckpt")])
    assert exc.value.code == 2
    assert ("argument --synth-noise: must be a finite number >= 0, got "
            f"{value!r}") in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["attack", "--family", "pgd", "--eps", "x"],
    ["attack", "--family", "pgd", "--eps", "-1"],
    ["attack", "--family", "pgd", "--eps", ","],
    ["attack", "--family", "suite", "--eps", "inf"],
    ["uncertainty", "--eps-grid", "0.2,0.1"],
    ["uncertainty", "--eps-grid", "0.1,0.2,0.4,inf"],
    ["corrupt", "--kinds", "fog"],
    ["corrupt", "--severities", "0,6"],
    ["corrupt", "--severities", ","],
    ["corrupt", "--severities", "1,1"],
], ids=["eps-unparsed", "eps-negative", "eps-empty", "eps-infinite", "eps-grid-decreasing",
        "eps-grid-infinite",
        "kinds-unknown", "severities-out-of-range", "severities-empty",
        "severities-repeated"])
def test_malformed_list_flags_rejected(argv, capsys):
    # argparse refuses the list before the checkpoint is opened
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--ckpt", "never-read.ckpt", "--out", "never-written.csv"])
    assert exc.value.code == 2
    assert f"argument {argv[-2]}: must be a comma list of" in capsys.readouterr().err
