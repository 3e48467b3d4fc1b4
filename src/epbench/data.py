"""Datasets: the CIFAR binary reader and synthetic desk-scale generators.

Images are float32 in [0,1], channel-first [N,C,H,W]; labels are int64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SYNTH_KINDS = ("blobs", "stripes")
CIFAR_VARIANTS = ("cifar10", "cifar100")
_RUN_VALUES = 1 << 13  # float64 values in each of synth_dataset's per-run temporaries


class CifarFormatError(ValueError):
    """Malformed CIFAR binary file; carries the offending byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass
class Dataset:
    images: np.ndarray          # [N,C,H,W] float32 in [0,1]
    labels: np.ndarray          # [N] int64
    split: str = "train"

    def __len__(self) -> int:
        return len(self.labels)

    def subset(self, n: int) -> "Dataset":
        return Dataset(self.images[:n], self.labels[:n], self.split)


def channel_stats(images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean and std over a [N,C,H,W] stack (std floored at 1e-6)."""
    mean = images.mean(axis=(0, 2, 3))
    std = np.maximum(images.std(axis=(0, 2, 3)), 1e-6)
    return mean.astype(np.float32), std.astype(np.float32)


def normalize_images(images, mean, std) -> np.ndarray:
    """(images - mean) / std per channel (stats shaped [C, 1, 1], so the rank is
    kept) as one new float64 array."""
    mean, std = (np.asarray(a, dtype=np.float64).reshape(-1, 1, 1) for a in (mean, std))
    out = np.subtract(images, mean, dtype=np.float64)
    return np.divide(out, std, out=out)


def load_cifar_binary(path, variant: str = "cifar10") -> Dataset:
    """Parse the standard CIFAR binary layout.

    cifar10: 3073-byte records (1 label byte + 3*1024 channel-major pixel
    bytes, row-major within each channel plane). cifar100: 3074-byte records
    (coarse then fine label byte); the fine label is used.
    """
    if variant not in CIFAR_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    label_bytes = 1 if variant == "cifar10" else 2
    classes = 10 if variant == "cifar10" else 100
    record = label_bytes + 3072
    with open(path, "rb") as fh:
        raw = np.frombuffer(fh.read(), dtype=np.uint8)
    if raw.size % record:
        raise CifarFormatError(
            f"file size {raw.size} is not a multiple of the {record}-byte record",
            offset=(raw.size // record) * record,
        )
    n = raw.size // record
    if n == 0:
        return Dataset(np.zeros((0, 3, 32, 32), dtype=np.float32),
                       np.zeros(0, dtype=np.int64), split="test")
    recs = raw.reshape(n, record)
    labels = recs[:, label_bytes - 1].astype(np.int64)  # fine label for cifar100
    bad = np.nonzero(labels >= classes)[0]
    if bad.size:
        raise CifarFormatError(
            f"label {labels[bad[0]]} out of range [0,{classes})",
            offset=int(bad[0]) * record + label_bytes - 1,
        )
    pixels = recs[:, label_bytes:].reshape(n, 3, 32, 32)
    return Dataset(np.divide(pixels, 255.0, dtype=np.float32), labels, split="test")


def synth_dataset(kind: str, n: int, image_shape=(1, 8, 8), classes: int = 2,
                  seed: int = 0, noise: float = 0.1, split: str = "train") -> Dataset:
    """Deterministic class-conditional toy images.

    blobs: one Gaussian bump per class at a class-specific position; with
    noise=0 the classes are linearly separable by construction. stripes:
    oriented sinusoidal gratings, one orientation per class, random phase.
    Labels are balanced to within one example (round-robin).
    """
    if n <= 0:
        raise ValueError("n must be > 0")
    if classes < 1:
        raise ValueError(f"classes must be >= 1, got {classes!r}")
    if min(image_shape) < 1:
        raise ValueError(f"image_shape extents must be >= 1, got {tuple(image_shape)!r}")
    if not (np.isfinite(noise) and noise >= 0):
        raise ValueError(f"noise must be a finite number >= 0, got {noise!r}")
    if kind not in SYNTH_KINDS:
        raise ValueError(f"unknown synthetic kind {kind!r}")
    rng = np.random.default_rng(seed)
    C, H, W = image_shape
    labels = np.arange(n, dtype=np.int64) % classes
    ii, jj = np.meshgrid(np.arange(H), np.arange(W), indexing="ij")
    y = np.arange(classes)[:, None, None]
    if kind == "blobs":  # one bump per class, centered on a circle around the image center
        angles, r, width = 2 * np.pi * y / classes, min(H, W) / 4.0, min(H, W) / 6.0
        ci = H / 2.0 - 0.5 + r * np.sin(angles)
        cj = W / 2.0 - 0.5 + r * np.cos(angles)
        per_class = 0.9 * np.exp(-(((ii - ci) ** 2 + (jj - cj) ** 2) / (2.0 * width ** 2)))
    else:  # one orientation per class at frequency 2; each image adds its own phase
        theta = np.pi * y / classes
        per_class = 2 * np.pi * 2.0 * (ii * np.cos(theta) + jj * np.sin(theta)) / H
    images = np.empty((n, C, H, W), dtype=np.float32)
    run = max(1, _RUN_VALUES // (C * H * W))
    for start in range(0, n, run):
        ys = labels[start:start + run]
        img, phase = np.empty((len(ys), C, H, W)), np.empty((len(ys), 1, 1))
        for k in range(len(ys)):  # the stream's order: a stripe's phase, then its noise
            if kind == "stripes":
                phase[k] = rng.uniform(0.0, 2 * np.pi)
            rng.standard_normal(out=img[k])
        clean = per_class[ys] if kind == "blobs" else 0.5 + 0.45 * np.sin(per_class[ys] + phase)
        img *= noise
        img += clean[:, None]
        images[start:start + run] = np.clip(img, 0.0, 1.0, out=img)
    return Dataset(images, labels, split=split)
