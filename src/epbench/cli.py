"""Command-line harness: train, attack, corrupt, eval, uncertainty, report.

Every command that prints a number also writes the backing run records to a
CSV (JSON mirror via --format json), so results are regenerable from files.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import attacks, baseline, bench, corruptions, energy, training, uncertainty
from .bench import RunRecord
from .checkpoint import (MODEL_KINDS, Checkpoint, CheckpointError, load_checkpoint,
                         save_checkpoint)
from .config import _floats, _ints, load_config
from .data import Dataset, channel_stats, load_cifar_binary, normalize_images, synth_dataset
from .handle import from_checkpoint


def _count(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {n}")
    return n


def _synth_from_snapshot(snap: dict, split: str) -> Dataset:
    """The train or test split of a recorded synthetic recipe (test draws seed + 1)."""
    try:
        n, seed = snap[f"n_{split}"], snap["seed"] + (1 if split == "test" else 0)
        return synth_dataset(snap["synth_kind"], n, tuple(snap["input_shape"]),
                             snap["classes"], seed=seed, noise=snap["synth_noise"],
                             split=split)
    except KeyError as exc:
        raise CheckpointError(f"training-config field {exc.args[0]!r} missing") from None


def _open_checkpoint(args):
    """(checkpoint, evaluation data, handle, model id) for --ckpt. The data is
    --data, else the test split of the synthetic recipe the checkpoint was
    trained on; the handle reads an ep model at --timestep."""
    ckpt = load_checkpoint(args.ckpt)
    trained_on = ckpt.train_config.get("data", "synth")
    if trained_on != "synth" and args.data in (None, "synth"):
        # a CIFAR-trained checkpoint records only its training file
        flag = "--data is required" if args.data is None else "--data synth cannot be used"
        args.error(f"{flag}: {args.ckpt} was trained on {trained_on} and has no "
                   "synthetic recipe with a held-out split")
    source = args.data or "synth"
    if source == "synth":
        ds = _synth_from_snapshot(ckpt.train_config, split="test")
    else:
        ds = load_cifar_binary(source, variant=args.cifar_variant)
    if args.subset:
        ds = ds.subset(args.subset)
    return ckpt, ds, from_checkpoint(ckpt, args.timestep), Path(args.ckpt).stem


def cmd_train(args) -> int:
    spec, cfg = load_config(args.config)
    if args.data == "synth":
        snapshot = {"data": "synth", "synth_kind": args.synth_kind,
                    "input_shape": list(spec.input_shape), "classes": spec.readout_dim,
                    "n_train": args.synth_n, "n_test": max(args.synth_n // 2, 1),
                    "seed": cfg.seed, "synth_noise": args.synth_noise}
        train = _synth_from_snapshot(snapshot, split="train")
        test = _synth_from_snapshot(snapshot, split="test")
    else:
        # no held-out split ships with one CIFAR file: `epbench eval --data
        # <test file>` measures held-out accuracy
        train = replace(load_cifar_binary(args.data, variant=args.cifar_variant),
                        split="train")
        test = None
        snapshot = {"data": args.data, "seed": cfg.seed}
    mean, std = channel_stats(train.images)

    def normalized(ds):
        return replace(ds, images=normalize_images(ds.images, mean, std).astype(np.float32))

    norm_train = normalized(train)
    norm_test = None if test is None else normalized(test)

    t0 = time.perf_counter()
    if args.model == "ep":
        params, history = training.train_ep(norm_train, spec, cfg, val_dataset=norm_test)
    elif args.model == "bp":
        params, history = baseline.train_bp(norm_train, spec, cfg, val_dataset=norm_test)
    else:
        if cfg.adversarial is None:
            cfg.adversarial = training.AdversarialBlock()
        # adv_epsilon is interpreted in model-input (normalized) space
        params, history = baseline.train_adv(norm_train, spec, cfg, val_dataset=norm_test)
    wall = time.perf_counter() - t0

    conv_step = 0
    if args.model == "ep":
        probe = np.asarray(norm_train.images[:64], dtype=np.float64)
        conv_step = energy.free_phase(probe, params, spec).steps
    ckpt = Checkpoint(spec=spec, params=params, model_kind=args.model,
                      seed=cfg.seed, train_config=snapshot,
                      norm_mean=[float(v) for v in mean],
                      norm_std=[float(v) for v in std],
                      convergence_step=conv_step)
    save_checkpoint(args.out, ckpt)
    # every printed number stays regenerable from files
    history_path = str(args.out) + ".history.json"
    with open(history_path, "w") as fh:
        json.dump(history, fh, indent=2)
        fh.write("\n")
    for entry in history:
        line = f"epoch {entry['epoch']:3d}  train_acc {entry['train_acc']:.4f}"
        if "val_acc" in entry:
            line += f"  val_acc {entry['val_acc']:.4f}"
        print(line)
    msg = f"trained {args.model} model in {wall:.1f}s -> {args.out}"
    if args.model == "ep":
        msg += f" (free-phase convergence step {conv_step})"
    print(msg)
    return 0


def cmd_attack(args) -> int:
    _, ds, model, model_id = _open_checkpoint(args)
    xs = np.asarray(ds.images, dtype=np.float64)
    ys = ds.labels

    records: list[RunRecord] = []
    t0 = time.perf_counter()
    clean_acc = float(np.mean(model.predict(xs) == ys))
    records.append(RunRecord(model=model_id, attack="clean", accuracy=clean_acc,
                             n=len(ys), seed=args.seed,
                             wall_ms=(time.perf_counter() - t0) * 1000))
    print(f"clean accuracy: {clean_acc:.4f}")

    def make_cfg(family, strength):
        # square is linf-only and cw minimizes l2 regardless of args.norm
        norm = {"square": "linf", "cw": "l2"}.get(family, args.norm)
        return attacks.AttackConfig(
            family=family, norm=norm,
            epsilon=strength, steps=args.steps,
            query_budget=args.query_budget, seed=args.seed,
        )

    for strength in _floats(args.eps):
        families = ["pgd", "cw", "square"] if args.family == "suite" else [args.family]
        configs = [make_cfg(f, strength) for f in families]
        t0 = time.perf_counter()
        suite = attacks.attack_suite(xs, ys, model, configs)
        wall = (time.perf_counter() - t0) * 1000
        for cfg, res, ms in zip(configs, suite.results, suite.wall_ms):
            acc = res.robust_accuracy()
            records.append(RunRecord(model=model_id, attack=cfg.family, norm=cfg.norm,
                                     strength=strength, accuracy=acc, n=len(ys),
                                     seed=args.seed, wall_ms=ms))
            print(f"{cfg.family:6s} {cfg.norm} strength {strength:g}: "
                  f"robust accuracy {acc:.4f}")
        if args.family == "suite":
            records.append(RunRecord(model=model_id, attack="suite", norm=args.norm,
                                     strength=strength,
                                     accuracy=suite.worst_case_accuracy, n=len(ys),
                                     seed=args.seed, wall_ms=wall))
            print(f"suite  {args.norm} strength {strength:g}: "
                  f"worst-case accuracy {suite.worst_case_accuracy:.4f}")
    bench.emit_results(records, args.out, fmt=args.format)
    print(f"wrote {len(records)} records -> {args.out}")
    return 0


def cmd_corrupt(args) -> int:
    _, ds, model, model_id = _open_checkpoint(args)
    kinds = args.kinds.split(",") if args.kinds else list(corruptions.KINDS)
    records = []
    grid, wall_ms = corruptions.corruption_sweep(
        ds, model.predict, kinds=kinds, severities=_ints(args.severities),
        seed=args.seed)
    for (kind, sev), acc in sorted(grid.items()):
        name = "clean" if sev == 0 else kind
        records.append(RunRecord(model=model_id, attack=name, severity=sev,
                                 accuracy=acc, n=len(ds.labels), seed=args.seed,
                                 wall_ms=wall_ms[(kind, sev)]))
        print(f"{kind:15s} severity {sev}: accuracy {acc:.4f}")
    bench.emit_results(records, args.out, fmt=args.format)
    print(f"wrote {len(records)} records -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    ckpt, ds, model, model_id = _open_checkpoint(args)
    t0 = time.perf_counter()
    acc = bench.evaluate(model.predict, ds, batch_size=args.batch_size)
    wall = (time.perf_counter() - t0) * 1000
    print(f"accuracy: {acc:.4f} on {len(ds.labels)} examples")
    out = args.out or (str(Path(args.ckpt).with_suffix("")) + "_eval.csv")
    bench.emit_results([RunRecord(model=model_id, attack="clean",
                                  accuracy=acc, n=len(ds.labels), seed=ckpt.seed,
                                  wall_ms=wall)], out, fmt=args.format)
    print(f"wrote 1 record -> {out}")
    return 0


def cmd_uncertainty(args) -> int:
    _, ds, model, model_id = _open_checkpoint(args)
    curve = uncertainty.disagreement_curve(
        model.predict, ds.images, args.norm, _floats(args.eps_grid),
        samples_per_eps=args.samples, seed=args.seed,
    )
    records = []
    for eps, rate, n in zip(curve.eps, curve.rate, curve.samples):
        records.append(RunRecord(model=model_id, attack="disagreement",
                                 norm=args.norm, strength=float(eps),
                                 accuracy=float(rate), n=int(n), seed=args.seed))
        print(f"eps {eps:g}: disagreement {rate:.4f} ({n} draws)")
    try:
        fit = uncertainty.fit_exponent(curve)
        print(f"uncertainty exponent alpha = {fit.alpha:.4f} "
              f"(residual {fit.residual:.4f}, {fit.n_cells} cells)")
        records.append(RunRecord(model=model_id, attack="exponent", norm=args.norm,
                                 strength=0.0, accuracy=fit.alpha, n=fit.n_cells,
                                 seed=args.seed))
    except ValueError as exc:
        print(f"exponent fit skipped: {exc}")
    bench.emit_results(records, args.out, fmt=args.format)
    print(f"wrote {len(records)} records -> {args.out}")
    return 0


def cmd_report(args) -> int:
    records = []
    for path in args.inputs:
        records.extend(bench.read_results(path))
    by_family: dict[str, list[float]] = {}
    for r in records:
        if r.attack != "clean":
            by_family.setdefault(r.attack, []).append(r.accuracy)
    for family, cells in sorted(by_family.items()):
        print(f"{family:15s} mean accuracy {np.mean(cells):.4f} over {len(cells)} cells")
    if args.mean_robustness:
        score = bench.mean_robustness(records)
        print(f"mean robustness: {score:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="epbench",
                                 description="energy-model robustness benchmark")
    sub = ap.add_subparsers(dest="command", required=True)
    # shared by the commands that read a checkpoint; run_args adds a seed
    # and a required result file
    ckpt_args = argparse.ArgumentParser(add_help=False)
    ckpt_args.add_argument("--ckpt", required=True)
    ckpt_args.add_argument("--timestep", type=_count, default=None)
    ckpt_args.add_argument("--data", default=None)
    ckpt_args.add_argument("--cifar-variant", choices=("cifar10", "cifar100"),
                           default="cifar10")
    ckpt_args.add_argument("--subset", type=_count, default=None)
    ckpt_args.add_argument("--format", choices=("csv", "json"), default="csv")
    run_args = argparse.ArgumentParser(add_help=False, parents=[ckpt_args])
    run_args.add_argument("--seed", type=int, default=0)
    run_args.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    p.add_argument("--model", choices=MODEL_KINDS, required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--data", default="synth", help="'synth' or CIFAR binary path")
    p.add_argument("--cifar-variant", choices=("cifar10", "cifar100"), default="cifar10")
    p.add_argument("--synth-kind", choices=("blobs", "stripes"), default="blobs")
    p.add_argument("--synth-n", type=_count, default=512)
    p.add_argument("--synth-noise", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("attack", help="run attacks against a checkpoint",
                       parents=[run_args])
    p.add_argument("--family", choices=("pgd", "cw", "square", "suite"), required=True)
    p.add_argument("--norm", choices=("l2", "linf"), default="linf")
    p.add_argument("--eps", required=True, help="comma list of strengths")
    p.add_argument("--steps", type=_count, default=None)
    p.add_argument("--query-budget", type=_count, default=5000)
    p.set_defaults(fn=cmd_attack, error=p.error)

    p = sub.add_parser("corrupt", help="severity sweep of natural corruptions",
                       parents=[run_args])
    p.add_argument("--kinds", default="")
    p.add_argument("--severities", default="1,2,3,4,5")
    p.set_defaults(fn=cmd_corrupt, error=p.error)

    p = sub.add_parser("eval", help="clean accuracy of a checkpoint", parents=[ckpt_args])
    p.add_argument("--batch-size", type=_count, default=256)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_eval, error=p.error)

    p = sub.add_parser("uncertainty", help="disagreement curve and exponent fit",
                       parents=[run_args])
    p.add_argument("--eps-grid", required=True, help="comma list, strictly increasing")
    p.add_argument("--samples", type=_count, default=32)
    p.add_argument("--norm", choices=("l2", "linf"), default="l2")
    p.set_defaults(fn=cmd_uncertainty, error=p.error)

    p = sub.add_parser("report", help="aggregate result files")
    p.add_argument("--in", dest="inputs", nargs="+", required=True)
    p.add_argument("--mean-robustness", action="store_true")
    p.set_defaults(fn=cmd_report)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
