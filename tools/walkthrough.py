"""Desk CLI walkthrough: train and evaluate three small configs through
``epbench.cli.main`` and print one ``sha256  file`` line per output.

Usage (from the repository root)::

    python3 tools/walkthrough.py OUT_DIR

The configs are ``configs/desk.cfg`` at ``epochs = 2``, which has no
``adv_*`` keys, so that adv trains on the ``TrainConfig`` defaults, a
2-conv (4, 8) config that trains adv under linf PGD (epsilon 0.1, 3 steps),
and ``stripes``: 3x16x16 stripes in three classes, convs (4, 8), ``t_free``
8, ``t_nudge`` 4, one epoch, so that the digests cover the stripes generator
and 3-channel convolutions. Each trains ep, bp and adv models, the first two
on 256 synthetic blobs, ``stripes`` on 64 stripes; every checkpoint then
runs the attack suite, Square alone at epsilon 0.3 (30 queries, 16
examples: strong enough that it breaks some examples, and so the
walkthrough depends on its acceptance and query bookkeeping), PGD l2, PGD
linf at epsilon 0 and 0.05, the corruption sweep at severities 1 and 3,
eval and the uncertainty curve. The ep checkpoint sweeps all five
severities instead, so every entry of ``corruptions.SEVERITIES`` reaches a
digest, and also runs PGD at ``--timestep 3``.

Digests cover checkpoints and training histories byte for byte, result CSVs
with the ``wall_ms`` column dropped, and each command's stdout with wall
times masked; every command runs inside its config's directory, so no path
in an output depends on OUT_DIR. Two checkouts that compute the same numbers
print the same lines: run the script on both and ``diff`` the outputs.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import os
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from epbench import cli  # noqa: E402

CONFIGS = {
    "desk": re.sub(r"(?m)^epochs\s*=.*$", "epochs = 2",
                   (ROOT / "configs" / "desk.cfg").read_text()),
    "conv2": """input_shape    = 1,8,8
conv_channels  = 4, 8
readout_dim    = 2
t_free         = 60
t_nudge        = 15
beta           = 0.5
epochs         = 2
batch_size     = 64
adv_norm       = linf
adv_epsilon    = 0.1
adv_steps      = 3
""",
    "stripes": """input_shape    = 3,16,16
conv_channels  = 4, 8
readout_dim    = 3
t_free         = 8
t_nudge        = 4
beta           = 0.5
epochs         = 1
batch_size     = 32
""",
}
# training data per config: 256 blobs unless named here
SYNTH = {"stripes": ["--synth-kind", "stripes", "--synth-n", "64"]}
KINDS = ("ep", "bp", "adv")


def commands(kind: str) -> list[tuple[str, list[str]]]:
    """(name, argv) of every command run on the checkpoint of one model kind."""
    ck = ["--ckpt", f"{kind}.ckpt"]
    sub = ["--subset", "32"]
    severities = "1,2,3,4,5" if kind == "ep" else "1,3"
    runs = [
        ("suite", ["attack", *ck, "--family", "suite", "--eps", "0.05", "--subset", "16",
                   "--steps", "10", "--query-budget", "100"]),
        ("square", ["attack", *ck, "--family", "square", "--eps", "0.3", "--subset", "16",
                    "--query-budget", "30"]),
        ("pgd_l2", ["attack", *ck, "--family", "pgd", "--norm", "l2", "--eps", "0.5", *sub]),
        ("pgd_linf", ["attack", *ck, "--family", "pgd", "--norm", "linf",
                      "--eps", "0,0.05", *sub]),
        ("corrupt", ["corrupt", *ck, "--severities", severities, *sub]),
        ("eval", ["eval", *ck]),
        ("uncertainty", ["uncertainty", *ck, "--eps-grid", "0.05,0.1,0.2,0.4",
                         "--samples", "8", *sub]),
    ]
    if kind == "ep":
        runs.append(("pgd_t3", ["attack", *ck, "--family", "pgd", "--norm", "linf",
                                "--eps", "0.05", "--timestep", "3", *sub]))
    return [(f"{kind}_{name}", argv + ([] if name == "eval" else
                                       ["--out", f"{kind}_{name}.csv"]))
            for name, argv in runs]


def run(name: str, argv: list[str]) -> None:
    """Run one CLI command; its stdout, wall times masked, goes to NAME.stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    if status != 0:
        sys.exit(f"walkthrough: {' '.join(argv)} exited with status {status}")
    Path(f"{name}.stdout").write_text(re.sub(r"\b\d+\.\d+s\b", "<wall>s", out.getvalue()))


def digest(path: Path) -> str:
    """sha256 of the file; a CSV is hashed without its wall_ms column."""
    if path.suffix != ".csv":
        return hashlib.sha256(path.read_bytes()).hexdigest()
    with open(path, newline="") as fh:
        rows = [{k: v for k, v in row.items() if k != "wall_ms"} for row in csv.DictReader(fh)]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        sys.exit(f"usage: {Path(__file__).name} OUT_DIR")
    out_dir = Path(args[0]).resolve()
    for config, text in CONFIGS.items():
        work = out_dir / config
        work.mkdir(parents=True, exist_ok=True)
        (work / "model.cfg").write_text(text)
        os.chdir(work)
        for kind in KINDS:
            run(f"{kind}_train", ["train", "--model", kind, "--config", "model.cfg",
                                  *SYNTH.get(config, ["--synth-n", "256"]),
                                  "--out", f"{kind}.ckpt"])
            for name, cmd in commands(kind):
                run(name, cmd)
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file() and p.name != "model.cfg"):
        print(f"{digest(path)}  {path.relative_to(out_dir)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
