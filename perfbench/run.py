"""Benchmark runner for epbench.

Usage (from the repository root)::

    python3 perfbench/run.py --workload train-desk --seed 3 --seconds 20 --trace 0

Runs one workload (see ``workloads.py``) in this process through
``epbench.cli.main`` and prints, as its last stdout line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Every CLI command and every
output check counts as one attempted operation.

Every command runs once; then, until ``--seconds`` have passed, the command
with the least measured time so far is repeated if its last duration still
fits. Timings are medians over those repeats.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``:
``setup_s`` (median over three fresh processes that import epbench and prepare
the workload's inputs), ``run_s`` (the sum over the workload's commands of
each command's median) and ``peak_rss_mb``. The per-command throughputs
(``ep_train_examples_per_s`` and so on) are printed above the JSON line.

``--trace 1`` wraps every public ``epbench`` function (see ``tracer.py``) and
reports the per-layer metrics, per execution of the workload, plus
``trace.run_s`` (compare with the untraced ``run_s``) and
``trace.overhead_frac``: the spans opened times the measured cost of one span,
as a share of the rest of ``trace.run_s``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_SAMPLES = 3


def _import_epbench():
    """Import the epbench sources of this checkout, never an installed copy."""
    if not (SRC / "epbench" / "cli.py").is_file():
        sys.exit(f"perfbench: no epbench sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import epbench
    import epbench.cli  # noqa: F401  (imports every module the CLI uses)
    if Path(epbench.__file__).resolve().parent != (SRC / "epbench").resolve():
        sys.exit(f"perfbench: imported epbench from {epbench.__file__}, not {SRC}")
    return epbench


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one set-up sample, run in a fresh process by measure_setup()
    ap.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def measure_setup(args, work: Path) -> list[float]:
    """Wall times of fresh processes that import epbench and prepare the inputs."""
    walls = []
    for i in range(SETUP_SAMPLES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-only",
               str(work / f"setup{i}")]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up failed:\n{proc.stderr}")
    return walls


class Runner:
    """Executes a workload's commands, times them, and checks their outputs."""

    def __init__(self, workload, cli):
        self.workload = workload
        self.cli = cli
        self.tracer = None
        self.walls = {c.name: [] for c in workload.commands}
        self.layer_sums = {c.name: {} for c in workload.commands}
        self.fingerprints = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def _call(self, argv):
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                return self.cli.main(argv)
        except SystemExit as exc:
            return exc.code
        except Exception:  # a failed command is a failed operation, not a crash
            return traceback.format_exc()

    def execute(self, cmd) -> None:
        gc.collect()
        if self.tracer is not None:
            self.tracer.take()
        t0 = time.perf_counter()
        rc = self._call(cmd.argv)
        wall = time.perf_counter() - t0
        traced = self.tracer.take() if self.tracer is not None else None
        self.record(rc == 0, f"{cmd.name}: exit {rc}")
        if rc != 0:
            return
        self.walls[cmd.name].append(wall)
        if traced is not None:
            sums = self.layer_sums[cmd.name]
            for name, st in traced.items():
                sums.setdefault(name, type(st)()).merge(st)
        for check in cmd.check():
            self.record(check.ok, f"{cmd.name}: {check.name} ({check.detail})")
        fp = cmd.fingerprint()
        if cmd.name in self.fingerprints:
            self.record(fp == self.fingerprints[cmd.name],
                        f"{cmd.name}: outputs differ between repeats")
        else:
            self.fingerprints[cmd.name] = fp

    def fill(self, deadline: float) -> None:
        """Repeat the least-measured command whose last duration still fits."""
        while True:
            now = time.perf_counter()
            fits = [c for c in self.workload.commands
                    if self.walls[c.name] and now + self.walls[c.name][-1] <= deadline]
            if not fits:
                return
            self.execute(min(fits, key=lambda c: sum(self.walls[c.name])))

    def run_s(self) -> float:
        """Sum over commands of the median wall time."""
        return sum(statistics.median(v) for v in self.walls.values() if v)

    def throughputs(self) -> dict:
        """{metric: (work, median seconds, unit)} summed over commands sharing it."""
        out = {}
        for c in self.workload.commands:
            if self.walls[c.name]:
                work, secs, _ = out.get(c.metric, (0, 0.0, c.unit))
                out[c.metric] = (work + c.work, secs + statistics.median(self.walls[c.name]),
                                 c.unit)
        return out


def layer_metrics(runner, per_layer: list[dict]):
    """({metric: {value, unit}}, {layer: LayerStat per workload execution})."""
    from tracer import LayerStat, span_cost, stat_value

    per_exec: dict[str, LayerStat] = {}
    for cmd in runner.workload.commands:
        n = len(runner.walls[cmd.name])
        for name, st in runner.layer_sums[cmd.name].items():
            per_exec.setdefault(name, LayerStat()).merge(st.scaled(1.0 / n))
    traced_s = runner.run_s()
    spans = sum(st.calls for st in per_exec.values())
    overhead_s = spans * span_cost()
    trace = {"trace.run_s": traced_s, "trace.spans": spans,
             "trace.overhead_frac": overhead_s / (traced_s - overhead_s)}
    aliases = {"unrolled.tape": "unrolled.record_free_phase"}
    out = {}
    for m in per_layer:
        if m["name"] in trace:
            value = trace[m["name"]]
        else:
            layer, stat = m["name"].rsplit(".", 1)
            layer = aliases.get(layer, layer)
            value = stat_value(per_exec.get(layer, LayerStat()), stat)
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out, per_exec


def provenance(workload) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "EPBENCH_THREADS": os.environ.get("EPBENCH_THREADS", "unset"),
        "workload": workload.name,
        "seed": workload.seed,
    }
    info.update({f"digest {k}": v for k, v in workload.digests.items()})
    return info


def main(argv=None) -> int:
    args = parse_args(argv)
    epbench = _import_epbench()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.setup_only:
        workloads.prepare(args.workload, args.seed, Path(args.setup_only))
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    threads_env = os.environ.get("EPBENCH_THREADS", "unset")
    if threads_env not in ("unset", "1"):
        sys.exit(f"perfbench: EPBENCH_THREADS={threads_env}; the workloads run one worker")

    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        setup = [] if args.trace else measure_setup(args, work)
        wl = workloads.prepare(args.workload, args.seed, work / "run")
        runner = Runner(wl, epbench.cli)
        deadline = time.perf_counter() + args.seconds
        if args.trace:
            from tracer import Installation, Tracer

            runner.tracer = Tracer()
            inst = Installation(runner.tracer, epbench)
            missed = inst.unwrapped_references()
            runner.record(not missed, f"tracer left unwrapped references: {missed}")
            try:
                for cmd in wl.commands:
                    runner.execute(cmd)
                runner.fill(deadline)
            finally:
                inst.remove()
        else:
            for cmd in wl.commands:
                runner.execute(cmd)
            runner.fill(deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for key, value in provenance(wl).items():
        print(f"provenance {key}: {value}")
    for cmd in wl.commands:
        w = runner.walls[cmd.name]
        if w:
            print(f"command {cmd.name:12s} median {statistics.median(w):.4f} s over "
                  f"{len(w)} executions (range {min(w):.4f}-{max(w):.4f} s)")
    for metric, (work, secs, unit) in runner.throughputs().items():
        print(f"{metric} = {work / secs:.4f} {unit}")
    for failure in runner.failures:
        print(f"FAILED {failure}")

    if args.trace:
        metrics, per_exec = layer_metrics(runner, spec["per_layer"])
        for name in sorted(per_exec):
            st = per_exec[name]
            print(f"layer {name:36s} calls {st.calls:10.1f}  self {st.self_s:9.4f} s  "
                  f"total {st.total_s:9.4f} s")
    else:
        e2e = {
            "setup_s": statistics.median(setup),
            "run_s": runner.run_s(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
