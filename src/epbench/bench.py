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


# rows per model call when a dataset, or a set of draws around one, is scored
EVAL_BATCH = 256


def evaluate(model_eval, dataset, batch_size: int = EVAL_BATCH) -> float:
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
    """Parse a result file written by emit_results. A file that is not a list
    of rows, or a row without a RunRecord field or with a value of the wrong
    type, raises ValueError naming the path (and the row and the column)."""
    with open(path, newline="") as fh:
        try:
            rows = json.load(fh) if _is_json(path) else list(csv.DictReader(fh))
        except ValueError as exc:  # malformed JSON or undecodable bytes
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
        raise ValueError(f"{path}: expected a list of result rows")
    return [_record(path, n, row) for n, row in enumerate(rows, 1)]


def _record(path, n: int, row: dict) -> RunRecord:
    """Result row n (counted from 1) of path as a RunRecord."""
    if None in row:  # where csv.DictReader puts a row's values past the header
        raise ValueError(f"{path}: row {n} has more values than the header")
    fields = {}
    for name, kind in _FIELD_TYPES.items():
        if name not in row:
            raise ValueError(f"{path}: missing column {name!r}")
        value = row[name]  # None where a CSV row is short, or a JSON null
        try:
            fields[name] = kind(value)
        except (TypeError, ValueError):
            what = "no value" if value is None else f"{value!r} is not a {kind.__name__}"
            raise ValueError(f"{path}: row {n}, column {name!r}: {what}") from None
    return RunRecord(**fields)
