"""Experiment harness: evaluation, run records, metric aggregation, and the
CSV/JSON result files every CLI command writes.

A RunRecord is one (model, attack-or-corruption, strength) accuracy cell;
mean robustness is the unweighted mean over all non-clean cells. The CSV
column order is fixed and the JSON mirror carries the same fields, so every
printed number can be regenerated from the emitted files.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from typing import get_type_hints

import numpy as np


@dataclass
class RunRecord:
    model: str
    attack: str            # attack family, corruption kind, or "clean"
    norm: str = ""
    strength: float = 0.0  # epsilon, C&W constant, or 0 for clean rows
    severity: int = 0      # corruption severity; 0 otherwise
    accuracy: float = 0.0
    n: int = 0
    seed: int = 0
    wall_ms: float = 0.0


_FIELD_TYPES = get_type_hints(RunRecord)  # field name -> str, float or int
CSV_COLUMNS = tuple(_FIELD_TYPES)


def evaluate(model_eval, dataset, batch_size: int = 256) -> float:
    """Top-1 accuracy of model_eval(images)->labels over the dataset."""
    ys = dataset.labels
    if len(ys) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    hits = 0
    for b0 in range(0, len(ys), batch_size):
        xs = np.asarray(dataset.images[b0:b0 + batch_size], dtype=np.float64)
        hits += int(np.sum(np.asarray(model_eval(xs)) == ys[b0:b0 + batch_size]))
    return hits / len(ys)


def mean_robustness(records: list[RunRecord]) -> float:
    """Unweighted mean accuracy over all (attack, strength) cells, clean excluded."""
    cells = [r.accuracy for r in records if r.attack != "clean"]
    if not cells:
        raise ValueError("mean_robustness needs at least one non-clean record")
    return float(np.mean(cells))


def _is_json(path) -> bool:
    """A result file's format, read from its name: JSON for .json, else CSV."""
    return str(path).endswith(".json")


def emit_results(records: list[RunRecord], path) -> None:
    """Write records as a JSON mirror to a .json path, else as CSV (fixed
    column order)."""
    with open(path, "w", newline="") as fh:
        if _is_json(path):
            json.dump([asdict(r) for r in records], fh, indent=2, sort_keys=True)
            fh.write("\n")
        else:
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            for r in records:
                writer.writerow(asdict(r))


def read_results(path) -> list[RunRecord]:
    """Parse a result file written by emit_results; a row without one of the
    RunRecord fields raises ValueError naming the path and the field."""
    with open(path, newline="") as fh:
        rows = json.load(fh) if _is_json(path) else list(csv.DictReader(fh))
    try:
        return [RunRecord(**{name: kind(row[name]) for name, kind in _FIELD_TYPES.items()})
                for row in rows]
    except KeyError as exc:
        raise ValueError(f"{path}: missing column {exc.args[0]!r}") from None
