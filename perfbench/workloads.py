"""The three benchmark workloads: generated inputs, timed CLI commands, checks.

Every command goes through ``epbench.cli.main(argv)``, the documented user
path, so the timings stay comparable when the functions under the CLI change
shape. The workload seed goes into each generated config (``seed =``) and
into every evaluation command's ``--seed``.

* ``train-mid``: EP training on 3x32x32 stripes with convs 3->32->64 and a
  16-step free phase. The convolutions dominate and a random-init model never
  meets ``fp_tol`` in 16 steps, so the step cap always binds. Four training
  examples (one minibatch) keep one command inside a run.
* ``train-desk``: EP, BP and adversarial training on 1x8x8 blobs with two
  small convs. Per-call overhead counts, and the free phase's early exit is
  live, so the EP work varies with the seed: the dynamics steps of config
  seeds 0-13 spread 11% between their first and third quartile.
* ``eval-desk``: eval, PGD-20, C&W-100, Square, the corruption sweep and the
  uncertainty curve against a fixed desk EP checkpoint (``desk_ep.ckpt``,
  trained once with the ``train-desk`` config at seed 0, see ``record.py``).
  Free phases run a fixed number of steps, so early exit never runs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from epbench import bench, checkpoint, data

HERE = Path(__file__).resolve().parent
DESK_CKPT = HERE / "desk_ep.ckpt"
EXPECTED = HERE / "expected_eval.json"

WORKLOADS = ("train-mid", "train-desk", "eval-desk")

MID_CONFIG = """\
input_shape    = 3,32,32
conv_channels  = 32,64
conv_kernels   = 3,3
conv_paddings  = 1,1
readout_dim    = 10
t_free         = 16
t_nudge        = 4
beta           = 0.5
fp_tol         = 1e-6
epochs         = 1
batch_size     = 8
learning_rates = 0.25, 0.15, 0.05
momentum       = 0.9
update_rule    = symmetric
seed           = {seed}
"""
MID_DATA = {"kind": "stripes", "n": 4, "shape": (3, 32, 32), "classes": 10, "noise": 0.5}

DESK_CONFIG = """\
input_shape    = 1,8,8
conv_channels  = 4,8
conv_kernels   = 3,3
conv_paddings  = 1,1
readout_dim    = 2
t_free         = 60
t_nudge        = 15
beta           = 0.5
fp_tol         = 1e-6
epochs         = 2
batch_size     = 64
learning_rates = 0.2, 0.1, 0.05
momentum       = 0.9
update_rule    = symmetric
seed           = {seed}
adv_norm       = l2
adv_epsilon    = 0.5
adv_steps      = 10
"""
DESK_DATA = {"kind": "blobs", "n": 512, "shape": (1, 8, 8), "classes": 2, "noise": 0.5}

# EP validation accuracy after the two desk epochs measured 0.97 to 0.996 over seeds 0-14
DESK_EP_VAL_FLOOR = 0.9

EVAL_EPS_GRID = (1.0, 2.0, 4.0, 8.0)
EVAL_SAMPLES = 8
EVAL_SEVERITIES = (1, 2)


def digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else np.ascontiguousarray(p).tobytes())
    return h.hexdigest()[:16]


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Command:
    """One CLI invocation, the work it does, and how to check what it wrote."""

    name: str
    metric: str          # throughput this command's timing is reported as
    unit: str
    argv: list[str]
    work: int            # examples (images, draws) one execution processes
    check: object        # () -> list[Check]
    fingerprint: object  # () -> str, identical for identical outputs


@dataclass
class Workload:
    name: str
    seed: int
    commands: list[Command]
    digests: dict[str, str] = field(default_factory=dict)


def _synth_digest(spec: dict, seed: int) -> str:
    """Digest of the train and test sets `epbench train --data synth` generates."""
    n = spec["n"]
    train = data.synth_dataset(spec["kind"], n, spec["shape"], spec["classes"],
                               seed=seed, noise=spec["noise"], split="train")
    test = data.synth_dataset(spec["kind"], max(n // 2, 1), spec["shape"], spec["classes"],
                              seed=seed + 1, noise=spec["noise"], split="test")
    return digest(train.images, train.labels, test.images, test.labels)


def _in_unit(x) -> bool:
    return 0.0 <= float(x) <= 1.0


def train_command(model: str, cfg: Path, spec: dict, epochs: int, out: Path,
                   val_floor: float | None) -> Command:
    argv = ["train", "--model", model, "--config", str(cfg), "--data", "synth",
            "--synth-kind", spec["kind"], "--synth-n", str(spec["n"]),
            "--synth-noise", str(spec["noise"]), "--out", str(out)]
    history_path = Path(str(out) + ".history.json")

    def check() -> list[Check]:
        try:
            history = json.loads(history_path.read_text())
            accs = [e[k] for e in history for k in ("train_acc", "val_acc")]
            good = len(history) == epochs and all(_in_unit(a) for a in accs)
            out_checks = [Check("history", good, f"{len(history)} epochs")]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [Check("history", False, repr(exc))]
        try:
            ckpt = checkpoint.load_checkpoint(out)
            good = ckpt.model_kind == model and ckpt.params.all_finite()
            out_checks.append(Check("checkpoint reloads finite", good))
        except (OSError, ValueError) as exc:
            return out_checks + [Check("checkpoint reloads finite", False, repr(exc))]
        if model == "ep":
            step = ckpt.convergence_step
            out_checks.append(Check("convergence step in range",
                                    1 <= step <= ckpt.spec.t_free, str(step)))
        if val_floor is not None:
            val = history[-1]["val_acc"]
            out_checks.append(Check("val_acc floor", val >= val_floor,
                                    f"{val:.4f} >= {val_floor}"))
        return out_checks

    def fingerprint() -> str:
        return digest(Path(out).read_bytes(), history_path.read_bytes())

    return Command(name=f"train {model}", metric=f"{model}_train_examples_per_s",
                   unit="examples/s", argv=argv, work=spec["n"] * epochs,
                   check=check, fingerprint=fingerprint)


def result_rows(path: Path) -> list[tuple]:
    return [(r.attack, r.norm, r.strength, r.severity, r.accuracy, r.n)
            for r in bench.read_results(path)]


def _result_command(name: str, metric: str, unit: str, argv: list[str], work: int,
                    out: Path, n_rows: tuple[int, ...], row_ok,
                    expected: dict | None) -> Command:
    """A command that writes a result file of n_rows rows (one of the allowed
    counts); row_ok(row) checks one row's fields."""

    def check() -> list[Check]:
        try:
            rows = result_rows(out)
        except (OSError, ValueError, KeyError) as exc:
            return [Check("result file parses", False, repr(exc))]
        checks = [Check("result file parses", len(rows) in n_rows,
                        f"{len(rows)} rows, want {n_rows}")]
        bad = [r for r in rows if not row_ok(r)]
        checks.append(Check("accuracy in [0,1] and n", not bad, str(bad[:2])))
        if expected is not None:
            checks.append(_match_recorded(rows, expected.get(name, [])))
        return checks

    def fingerprint() -> str:
        return digest(repr(result_rows(out)).encode())

    return Command(name=name, metric=metric, unit=unit, argv=argv + ["--out", str(out)],
                   work=work, check=check, fingerprint=fingerprint)


def _match_recorded(rows, recorded) -> Check:
    """Every cell within one example (1/n) of the value recorded for this seed."""
    want = {tuple(r[:4]): (r[4], r[5]) for r in recorded}
    problems = []
    for attack, norm, strength, severity, acc, n in rows:
        key = (attack, norm, strength, severity)
        if attack == "exponent":
            continue  # a fitted exponent, not a fraction of n examples
        if key not in want:
            problems.append(f"{key} not recorded")
        elif abs(acc - want[key][0]) > 1.0 / n + 1e-12 or n != want[key][1]:
            problems.append(f"{key}: {acc} vs recorded {want[key][0]}")
    missing = len(set(want) - {tuple(r[:4]) for r in rows})
    if missing:
        problems.append(f"{missing} recorded cells absent")
    return Check("matches recorded values", not problems, "; ".join(problems[:3]))


def load_expected(seed: int) -> dict | None:
    """Recorded eval-desk cells for this seed, or None when it was not recorded."""
    table = json.loads(EXPECTED.read_text())
    return table["seeds"].get(str(seed))


def eval_commands(ckpt: Path, seed: int, out_dir: Path, expected: dict | None):
    s = str(seed)
    c = ["--ckpt", str(ckpt)]

    def unit_n(n):
        return lambda r: _in_unit(r[4]) and r[5] == n

    def unc_ok(n):
        # disagreement rows: rate over n*samples draws; the exponent row: a fit
        return lambda r: ((_in_unit(r[4]) and r[5] == n * EVAL_SAMPLES)
                          if r[0] == "disagreement" else math.isfinite(r[4]) and r[5] >= 3)

    return [
        _result_command("eval", "eval_examples_per_s", "examples/s",
                        ["eval"] + c + ["--subset", "64"], 64,
                        out_dir / "eval.csv", (1,), unit_n(64), expected),
        _result_command("attack pgd", "pgd_examples_per_s", "examples/s",
                        ["attack"] + c + ["--family", "pgd", "--norm", "linf", "--eps", "0.05",
                                          "--subset", "8", "--seed", s], 8,
                        out_dir / "pgd.csv", (2,), unit_n(8), expected),
        _result_command("attack cw", "cw_examples_per_s", "examples/s",
                        ["attack"] + c + ["--family", "cw", "--eps", "0.1",
                                          "--subset", "2", "--seed", s], 2,
                        out_dir / "cw.csv", (2,), unit_n(2), expected),
        _result_command("attack square", "square_examples_per_s", "examples/s",
                        ["attack"] + c + ["--family", "square", "--eps", "0.05",
                                          "--query-budget", "40",
                                          "--subset", "4", "--seed", s], 4,
                        out_dir / "square.csv", (2,), unit_n(4), expected),
        _result_command("corrupt", "corrupt_images_per_s", "images/s",
                        ["corrupt"] + c + ["--severities",
                                           ",".join(map(str, EVAL_SEVERITIES)),
                                           "--subset", "16", "--seed", s],
                        16 * 7 * len(EVAL_SEVERITIES),
                        out_dir / "corrupt.csv", (7 * (1 + len(EVAL_SEVERITIES)),),
                        unit_n(16), expected),
        _result_command("uncertainty", "uncertainty_draws_per_s", "draws/s",
                        ["uncertainty"] + c + ["--eps-grid", ",".join(map(str, EVAL_EPS_GRID)),
                                               "--samples", str(EVAL_SAMPLES),
                                               "--subset", "16", "--seed", s],
                        16 * EVAL_SAMPLES * len(EVAL_EPS_GRID),
                        # the exponent row is there only when three rates fall inside (0,1)
                        out_dir / "uncertainty.csv",
                        (len(EVAL_EPS_GRID), len(EVAL_EPS_GRID) + 1), unc_ok(16), expected),
    ]


def prepare(name: str, seed: int, work_dir: Path) -> Workload:
    """Write the workload's generated inputs under work_dir and list its commands."""
    work_dir.mkdir(parents=True, exist_ok=True)
    if name == "train-mid":
        cfg = work_dir / "mid.cfg"
        cfg.write_text(MID_CONFIG.format(seed=seed))
        cmds = [train_command("ep", cfg, MID_DATA, 1, work_dir / "mid_ep.ckpt", None)]
        digests = {"mid.cfg": digest(cfg.read_bytes()),
                   "inputs": _synth_digest(MID_DATA, seed)}
    elif name == "train-desk":
        cfg = work_dir / "desk.cfg"
        cfg.write_text(DESK_CONFIG.format(seed=seed))
        cmds = [train_command("ep", cfg, DESK_DATA, 2, work_dir / "desk_ep.ckpt",
                               DESK_EP_VAL_FLOOR),
                train_command("bp", cfg, DESK_DATA, 2, work_dir / "desk_bp.ckpt", None),
                train_command("adv", cfg, DESK_DATA, 2, work_dir / "desk_adv.ckpt", None)]
        digests = {"desk.cfg": digest(cfg.read_bytes()),
                   "inputs": _synth_digest(DESK_DATA, seed)}
    elif name == "eval-desk":
        ckpt = checkpoint.load_checkpoint(DESK_CKPT)
        snap = ckpt.train_config
        test = data.synth_dataset(snap["synth_kind"], snap["n_test"],
                                  tuple(snap["input_shape"]), snap["classes"],
                                  seed=snap["seed"] + 1, noise=snap["synth_noise"],
                                  split="test")
        expected = load_expected(seed)
        cmds = eval_commands(DESK_CKPT, seed, work_dir, expected)
        digests = {"desk_ep.ckpt": digest(DESK_CKPT.read_bytes()),
                   "inputs": digest(test.images[:64], test.labels[:64]),
                   "recorded values": "present" if expected else "none for this seed"}
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return Workload(name=name, seed=seed, commands=cmds, digests=digests)
