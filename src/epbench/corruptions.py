"""Severity-parameterized natural corruptions for robustness sweeps.

Seven kinds spanning the noise / blur / digital families. ``SEVERITIES``
holds each kind's parameter at severities 1-5, strictly monotone in
distortion: the noise kinds act on unit-range pixels, the blur sigma is in
pixels, and contrast, brightness and pixelate take a multiplicative factor,
an additive offset and a resolution-scale factor. ``corrupt_batch`` applies
one (kind, severity) to a [B,C,H,W] batch in [0,1], clips back to [0,1],
and is deterministic for a fixed seed.

The blur is SciPy's ``ndimage.gaussian_filter(img, sigma=(0, s, s),
mode="reflect")`` reproduced bit for bit in numpy, so the package needs
numpy alone.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from . import bench

SEVERITIES = {
    "gaussian_noise": (0.04, 0.06, 0.08, 0.09, 0.10),
    "shot_noise": (500.0, 250.0, 125.0, 90.0, 60.0),
    "impulse_noise": (0.01, 0.02, 0.04, 0.065, 0.10),
    "gaussian_blur": (0.4, 0.6, 0.8, 1.0, 1.3),
    "contrast": (0.75, 0.60, 0.45, 0.30, 0.20),
    "brightness": (0.05, 0.10, 0.15, 0.20, 0.30),
    "pixelate": (0.75, 0.60, 0.50, 0.40, 0.30),
}
KINDS = tuple(SEVERITIES)
NOISE_KINDS = ("gaussian_noise", "shot_noise", "impulse_noise")


class CorruptionError(ValueError):
    pass


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


def _blur(img: np.ndarray, sigma: float) -> np.ndarray:
    """SciPy's ``gaussian_filter1d(img, sigma, mode="reflect")`` on the last axis.

    Its kernel (radius int(4 sigma + 0.5), normalized, then reversed), its
    "reflect" border (numpy's "symmetric") and correlate1d's order for a
    symmetric kernel: the centre tap, then each pair from the outermost in.
    """
    r = int(4.0 * sigma + 0.5)
    taps = np.exp(-0.5 / (sigma * sigma) * np.arange(-r, r + 1) ** 2)
    w = (taps / taps.sum())[::-1]
    n = img.shape[-1]
    pad = np.pad(img, [(0, 0)] * (img.ndim - 1) + [(r, r)], mode="symmetric")
    out = pad[..., r:r + n] * w[r]
    for j in range(r, 0, -1):
        out += (pad[..., r - j:r - j + n] + pad[..., r + j:r + j + n]) * w[r - j]
    return out


def _corrupt(img: np.ndarray, kind: str, p: float, rng) -> np.ndarray:
    """One float64 image [C,H,W] in [0,1] under parameter p, clipped to [0,1]."""
    if kind == "gaussian_noise":
        out = img + p * rng.standard_normal(img.shape)
    elif kind == "shot_noise":
        out = rng.poisson(np.clip(img, 0, 1) * p) / p
    elif kind == "impulse_noise":
        out = img.copy()
        hits = rng.random(img.shape) < p
        salt = rng.random(img.shape) < 0.5
        out[hits & salt] = 1.0
        out[hits & ~salt] = 0.0
    elif kind == "gaussian_blur":
        out = _blur(_blur(img.swapaxes(1, 2), p).swapaxes(1, 2), p)  # H, then W
    elif kind == "contrast":
        mean = img.mean()
        out = (img - mean) * p + mean
    elif kind == "brightness":
        out = img + p
    else:  # pixelate
        out = _pixelate(img, p)
    return np.clip(out, 0.0, 1.0)


def corrupt_batch(xs: np.ndarray, kind: str, severity: int, seed: int = 0) -> np.ndarray:
    """Corrupt each image of a [B,C,H,W] batch in [0,1] (float64 result in [0,1]).

    Image k draws from its own stream, default_rng((seed, k)).
    """
    if kind not in SEVERITIES:
        raise CorruptionError(f"unknown corruption kind {kind!r}")
    if severity not in range(1, 6):
        raise CorruptionError(f"severity must be in [1,5], got {severity}")
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 4:
        raise CorruptionError(f"corrupt_batch expects a [B,C,H,W] batch, got shape {xs.shape}")
    p = SEVERITIES[kind][int(severity) - 1]
    out = np.empty_like(xs)
    for k in range(len(xs)):
        out[k] = _corrupt(xs[k], kind, p, np.random.default_rng((seed, k)))
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
