"""Regenerate the eval-desk checkpoint and the per-seed values it is checked against.

Usage (from the repository root)::

    python3 perfbench/record.py --seeds 0-31            # record expected cells
    python3 perfbench/record.py --seeds 0-31 --retrain  # retrain desk_ep.ckpt first

``desk_ep.ckpt`` is ``epbench train --model ep`` on the ``train-desk`` config
at seed 0 (512 blobs, two epochs). ``expected_eval.json`` holds, per seed,
every result cell the eval-desk commands write; ``run.py`` requires each cell
to stay within one example (1/n) of it. Re-record only when a change is meant
to alter results, and say so in the change description.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

from epbench import cli  # noqa: E402

import workloads  # noqa: E402


def _run(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"command failed ({rc}): {' '.join(argv)}")


def retrain(tmp: Path) -> None:
    cfg = tmp / "desk.cfg"
    cfg.write_text(workloads.DESK_CONFIG.format(seed=0))
    cmd = workloads.train_command("ep", cfg, workloads.DESK_DATA, 2, tmp / "desk_ep.ckpt",
                                   workloads.DESK_EP_VAL_FLOOR)
    _run(cmd.argv)
    failed = [c for c in cmd.check() if not c.ok]
    if failed:
        raise SystemExit(f"retrained checkpoint fails its checks: {failed}")
    shutil.copyfile(tmp / "desk_ep.ckpt", workloads.DESK_CKPT)


def record(seed: int, tmp: Path) -> dict:
    cells = {}
    for cmd in workloads.eval_commands(workloads.DESK_CKPT, seed, tmp, expected=None):
        _run(cmd.argv)
        failed = [c for c in cmd.check() if not c.ok]
        if failed:
            raise SystemExit(f"seed {seed}, {cmd.name}: checks fail: {failed}")
        cells[cmd.name] = [list(r) for r in workloads.result_rows(tmp / Path(cmd.argv[-1]).name)]
    return cells


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="0-31", help="range lo-hi, inclusive")
    ap.add_argument("--retrain", action="store_true")
    args = ap.parse_args()
    lo, hi = (int(v) for v in args.seeds.split("-"))
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        tmp = Path(tmp)
        if args.retrain:
            retrain(tmp)
        table = {"checkpoint": workloads.digest(workloads.DESK_CKPT.read_bytes()),
                 "seeds": {}}
        for seed in range(lo, hi + 1):
            table["seeds"][str(seed)] = record(seed, tmp)
            print(f"recorded seed {seed}", flush=True)
    seeds = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in table["seeds"].items())
    workloads.EXPECTED.write_text(
        f'{{"checkpoint": {json.dumps(table["checkpoint"])},\n "seeds": {{\n{seeds}\n }}\n}}\n')
    return 0


if __name__ == "__main__":
    sys.exit(main())
