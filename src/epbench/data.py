"""Datasets: the CIFAR binary reader and synthetic desk-scale generators.

Images are float32 in [0,1], channel-first [N,C,H,W]; labels are int64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SYNTH_KINDS = ("blobs", "stripes")
CIFAR_VARIANTS = ("cifar10", "cifar100")


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


def normalize_images(images: np.ndarray, mean, std) -> np.ndarray:
    mean = np.asarray(mean, dtype=np.float64).reshape(1, -1, 1, 1)
    std = np.asarray(std, dtype=np.float64).reshape(1, -1, 1, 1)
    return ((images - mean) / std).astype(np.float64, copy=False)


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
    images = (pixels.astype(np.float32) / 255.0)
    return Dataset(images, labels, split="test")


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
    images = np.empty((n, C, H, W), dtype=np.float32)
    if kind == "blobs":
        # class centers on a circle around the image center
        angles = 2 * np.pi * np.arange(classes) / classes
        r = min(H, W) / 4.0
        ci = H / 2.0 - 0.5 + r * np.sin(angles)
        cj = W / 2.0 - 0.5 + r * np.cos(angles)
        width = min(H, W) / 6.0
        for k in range(n):
            y = labels[k]
            bump = 0.9 * np.exp(-(((ii - ci[y]) ** 2 + (jj - cj[y]) ** 2)
                                  / (2.0 * width ** 2)))
            img = bump[None, :, :] + noise * rng.standard_normal((C, H, W))
            images[k] = np.clip(img, 0.0, 1.0)
    else:
        freq = 2.0
        for k in range(n):
            y = labels[k]
            theta = np.pi * y / classes
            phase = rng.uniform(0.0, 2 * np.pi)
            wave = np.sin(2 * np.pi * freq * (ii * np.cos(theta) + jj * np.sin(theta)) / H
                          + phase)
            img = (0.5 + 0.45 * wave)[None, :, :] + noise * rng.standard_normal((C, H, W))
            images[k] = np.clip(img, 0.0, 1.0)
    return Dataset(images, labels, split=split)
