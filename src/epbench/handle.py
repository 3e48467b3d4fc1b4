"""One raw-pixel view of a model, shared by attacks, evaluation and sweeps.

A ModelHandle takes images in [0,1], maps them through the per-channel
normalization the model was trained with, runs the model (a dynamics model at
a fixed free-phase timestep, or the feedforward twin) and chains the
normalization's jacobian, 1/std, into every input gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import baseline, energy, unrolled
from .data import normalize_images
from .model import ModelSpec, Params

_F = np.float64


@dataclass(frozen=True)
class ModelHandle:
    """logits(xs) -> [B,K] for images xs [B,C,H,W]; logits_vjp(xs) -> (logits,
    pullback from logit to pixel space). Cross-entropy gradients (loss_grad)
    and labels (predict) derive from these two. A dynamics model's free-phase
    timestep is fixed inside both when the handle is made.
    """

    logits: Callable
    logits_vjp: Callable

    def predict(self, xs) -> np.ndarray:
        """Top-1 labels; ties go to the lowest index."""
        return np.argmax(self.logits(xs), axis=-1)

    def loss_grad(self, xs, ys):
        """(per-example cross-entropy, dL/dxs), pulled back through logits_vjp."""
        z, vjp = self.logits_vjp(xs)
        return energy.cross_entropy(z, ys), vjp(energy.cross_entropy_grad(z, ys))


def for_params(params: Params, spec: ModelSpec, kind: str, timestep: int | None,
               normalize=None) -> ModelHandle:
    """Handle on an ep model read at `timestep`, or on a bp/adv model.

    normalize=(mean, std) per channel maps raw pixels into model space as
    (x - mean) / std; None feeds the pixels in unchanged.
    """
    # shaped [C, 1, 1] once, as normalize_images broadcasts them, for the pullback too
    mean, std = (np.asarray(a, dtype=_F).reshape(-1, 1, 1)
                 for a in ((0.0, 1.0) if normalize is None else normalize))

    def to_model(xs):
        return normalize_images(xs, mean, std)

    if kind == "ep":
        if timestep is None:
            raise ValueError("an ep handle needs a timestep")

        def logits(xs):
            return energy.logits_at(to_model(xs), params, spec, timestep)

        def model_logits_vjp(xm):
            return unrolled.logits_and_vjp(xm, params, spec, timestep)
    elif kind in ("bp", "adv"):
        def logits(xs):
            return baseline.bp_forward(to_model(xs), params, spec)

        def model_logits_vjp(xm):
            return baseline.bp_logits_and_vjp(xm, params, spec)
    else:
        raise ValueError(f"unknown model kind {kind!r}")

    def logits_vjp(xs):
        z, vjp = model_logits_vjp(to_model(xs))
        return z, lambda gz: vjp(gz) / std

    return ModelHandle(logits, logits_vjp)


def from_checkpoint(ckpt, timestep: int | None = None) -> ModelHandle:
    """Handle on a loaded checkpoint. An ep model is read at `timestep`, by
    default at its recorded convergence step (t_free when none was recorded)."""
    if timestep is None and ckpt.model_kind == "ep":
        timestep = ckpt.convergence_step or ckpt.spec.t_free
    return for_params(ckpt.params, ckpt.spec, ckpt.model_kind, timestep, ckpt.normalize)
