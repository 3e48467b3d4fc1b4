"""Severity-parameterized natural corruptions for robustness sweeps.

Seven kinds spanning the noise / blur / digital families. Every kind reads
its per-severity parameter from a plain-text table shipped with the package
(see corruption_severities.txt; format ``kind.severity = value``), applies
the distortion to a [0,1] image, clips back to [0,1], and is deterministic
for a fixed seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy import ndimage

from . import bench

KINDS = ("gaussian_noise", "shot_noise", "impulse_noise", "gaussian_blur",
         "contrast", "brightness", "pixelate")
NOISE_KINDS = ("gaussian_noise", "shot_noise", "impulse_noise")

_TABLE_PATH = Path(__file__).parent / "corruption_severities.txt"
_table_cache: dict | None = None


class CorruptionError(ValueError):
    pass


@dataclass(frozen=True)
class CorruptionSpec:
    kind: str
    severity: int
    seed: int | tuple = 0  # anything np.random.default_rng accepts

    def __post_init__(self):
        if self.kind not in KINDS:
            raise CorruptionError(f"unknown corruption kind {self.kind!r}")
        if not 1 <= self.severity <= 5:
            raise CorruptionError(f"severity must be in [1,5], got {self.severity}")


def load_severity_table(path=None) -> dict[tuple[str, int], float]:
    """Parse the ``kind.severity = value`` table."""
    path = _TABLE_PATH if path is None else Path(path)
    table: dict[tuple[str, int], float] = {}
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            key, value = (part.strip() for part in line.split("=", 1))
            kind, sev = key.rsplit(".", 1)
            table[(kind, int(sev))] = float(value)
        except ValueError as exc:
            raise CorruptionError(f"bad severity table line {lineno}: {line!r}") from exc
    return table


def severity_param(kind: str, severity: int) -> float:
    global _table_cache
    if _table_cache is None:
        _table_cache = load_severity_table()
    try:
        return _table_cache[(kind, severity)]
    except KeyError:
        raise CorruptionError(f"no table entry for {kind}.{severity}") from None


def _pixelate(img: np.ndarray, factor: float) -> np.ndarray:
    C, H, W = img.shape
    h = max(1, int(round(H * factor)))
    w = max(1, int(round(W * factor)))
    # nearest-neighbor down then up
    ri = (np.arange(h) * H // h)
    ci = (np.arange(w) * W // w)
    small = img[:, ri][:, :, ci]
    ru = (np.arange(H) * h // H)
    cu = (np.arange(W) * w // W)
    return small[:, ru][:, :, cu]


def corrupt(x: np.ndarray, spec: CorruptionSpec) -> np.ndarray:
    """Apply one corruption to an image [C,H,W] in [0,1] (float result in [0,1])."""
    img = np.asarray(x, dtype=np.float64)
    if img.ndim != 3:
        raise CorruptionError(f"corrupt expects a [C,H,W] image, got shape {img.shape}")
    p = severity_param(spec.kind, spec.severity)
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "gaussian_noise":
        out = img + p * rng.standard_normal(img.shape)
    elif spec.kind == "shot_noise":
        out = rng.poisson(np.clip(img, 0, 1) * p) / p
    elif spec.kind == "impulse_noise":
        out = img.copy()
        hits = rng.random(img.shape) < p
        salt = rng.random(img.shape) < 0.5
        out[hits & salt] = 1.0
        out[hits & ~salt] = 0.0
    elif spec.kind == "gaussian_blur":
        out = ndimage.gaussian_filter(img, sigma=(0, p, p), mode="reflect")
    elif spec.kind == "contrast":
        mean = img.mean()
        out = (img - mean) * p + mean
    elif spec.kind == "brightness":
        out = img + p
    else:  # pixelate
        out = _pixelate(img, p)
    return np.clip(out, 0.0, 1.0)


def corrupt_batch(xs: np.ndarray, kind: str, severity: int, seed: int = 0) -> np.ndarray:
    """Per-image corruption with per-image derived seeds."""
    out = np.empty_like(np.asarray(xs, dtype=np.float64))
    for k in range(len(xs)):
        out[k] = corrupt(xs[k], CorruptionSpec(kind, severity, seed=(seed, k)))
    return out


def corruption_sweep(dataset, model_eval, kinds=KINDS, severities=(1, 2, 3, 4, 5),
                     seed: int = 0):
    """Accuracy per (kind, severity) plus the clean column (severity 0).

    model_eval(images) -> predicted labels. Returns ({(kind, severity): acc},
    {(kind, severity): wall ms}): a corrupted cell's time covers corrupting
    the images and evaluating them; the clean cell is evaluated and timed
    once, and every kind's severity-0 entry carries that measurement.
    """
    xs = np.asarray(dataset.images, dtype=np.float64)
    grid: dict[tuple[str, int], float] = {}
    wall_ms: dict[tuple[str, int], float] = {}
    t0 = time.perf_counter()
    clean = bench.evaluate(model_eval, dataset)
    clean_ms = (time.perf_counter() - t0) * 1000
    for kind in kinds:
        grid[(kind, 0)] = clean
        wall_ms[(kind, 0)] = clean_ms
        for sev in severities:
            t0 = time.perf_counter()
            corrupted = replace(dataset, images=corrupt_batch(xs, kind, sev, seed=seed))
            grid[(kind, sev)] = bench.evaluate(model_eval, corrupted)
            wall_ms[(kind, sev)] = (time.perf_counter() - t0) * 1000
    return grid, wall_ms
