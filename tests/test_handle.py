"""The raw-pixel model handle: per-channel normalization chained into input
gradients, checkpoints that reproduce a handle's logits bit for bit, and the
batch axis every model entry point requires."""

import numpy as np
import pytest

from epbench import attacks, baseline, energy, ops, unrolled
from epbench.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from epbench.handle import for_params, from_checkpoint
from epbench.model import zero_state
from conftest import tiny_model

MEAN = np.array([0.4, 0.5, 0.6])
STD = np.array([0.2, 0.5, 2.0])
T = 6


def three_channel_case(dtype=np.float64):
    spec, params = tiny_model(np.random.default_rng(0), in_shape=(3, 8, 8), t_free=20,
                              dtype=dtype)
    xs = np.random.default_rng(1).uniform(0, 1, (4,) + spec.input_shape)
    return spec, params, xs, np.array([0, 1, 2, 1])


def model_space(kind, params, spec):
    """(logits, loss_and_grad, logits_and_vjp) on already-normalized inputs."""
    if kind == "ep":
        return (lambda xm: energy.logits_at(xm, params, spec, T),
                lambda xm, ys: for_params(params, spec, "ep", T).loss_grad(xm, ys),
                lambda xm: unrolled.logits_and_vjp(xm, params, spec, T))
    return (lambda xm: baseline.bp_forward(xm, params, spec),
            lambda xm, ys: for_params(params, spec, "bp", None).loss_grad(xm, ys),
            lambda xm: baseline.bp_logits_and_vjp(xm, params, spec))


@pytest.mark.parametrize("kind", ["ep", "bp"])
def test_gradients_are_model_space_gradients_over_std(kind):
    spec, params, xs, ys = three_channel_case()
    model = for_params(params, spec, kind, T, normalize=(MEAN, STD))
    std = STD.reshape(1, -1, 1, 1)
    xm = (xs - MEAN.reshape(1, -1, 1, 1)) / std
    ref_logits, ref_loss_grad, ref_logits_vjp = model_space(kind, params, spec)

    assert np.array_equal(model.logits(xs), ref_logits(xm))
    assert np.array_equal(model.predict(xs), np.argmax(ref_logits(xm), axis=-1))
    losses, g = model.loss_grad(xs, ys)
    ref_losses, ref_g = ref_loss_grad(xm, ys)
    assert np.array_equal(losses, ref_losses)
    assert np.array_equal(g, ref_g / std)
    gz = np.random.default_rng(2).standard_normal((len(xs), spec.readout_dim))
    z, vjp = model.logits_vjp(xs)
    ref_z, ref_vjp = ref_logits_vjp(xm)
    assert np.array_equal(z, ref_z)
    assert np.array_equal(vjp(gz), ref_vjp(gz) / std)


@pytest.mark.parametrize("kind", ["ep", "bp"])
def test_checkpoint_round_trip_keeps_logits_bit_exact(kind, tmp_path):
    spec, params, xs, _ = three_channel_case(dtype=np.float32)
    ck = Checkpoint(spec=spec, params=params, model_kind=kind, norm_mean=list(MEAN),
                    norm_std=list(STD), convergence_step=T)
    save_checkpoint(tmp_path / "m.ckpt", ck)
    loaded = from_checkpoint(load_checkpoint(tmp_path / "m.ckpt"))
    want = for_params(params, spec, kind, T, normalize=(MEAN, STD)).logits(xs)
    assert np.array_equal(from_checkpoint(ck).logits(xs), want)
    assert np.array_equal(loaded.logits(xs), want)


def test_ep_needs_a_timestep_and_kinds_are_checked():
    spec, params, _, _ = three_channel_case()
    with pytest.raises(ValueError, match="timestep"):
        for_params(params, spec, "ep", None)
    with pytest.raises(ValueError, match="kind"):
        for_params(params, spec, "svm", None)


def _handle(params, spec, normalize=None):
    return for_params(params, spec, "ep", T, normalize=normalize)


UNBATCHED_CALLS = {
    "ops.conv2d": lambda x, p, s: ops.conv2d(x, p.w[0], s.conv[0]),
    "energy.free_phase": lambda x, p, s: energy.free_phase(x, p, s),
    "energy.logits_at": lambda x, p, s: energy.logits_at(x, p, s, T),
    "energy.phi": lambda x, p, s: energy.phi(x, zero_state(s, 1), p, s),
    "energy.dynamics_step":
        lambda x, p, s: energy.dynamics_step(x, zero_state(s, 1).layers, p, s),
    "unrolled.logits_and_vjp": lambda x, p, s: unrolled.logits_and_vjp(x, p, s, T),
    "baseline.bp_forward": lambda x, p, s: baseline.bp_forward(x, p, s),
    "attacks.project": lambda x, p, s: attacks.project(x, x, "l2", 0.1),
    "handle.logits": lambda x, p, s: _handle(p, s).logits(x),
    "handle.logits-normalized": lambda x, p, s: _handle(p, s, (MEAN, STD)).logits(x),
    "handle.loss_grad": lambda x, p, s: _handle(p, s).loss_grad(x, np.array([1])),
    "handle.loss_grad-normalized":
        lambda x, p, s: _handle(p, s, (MEAN, STD)).loss_grad(x, np.array([1])),
}


@pytest.mark.parametrize("call", UNBATCHED_CALLS.values(), ids=UNBATCHED_CALLS.keys())
def test_unbatched_image_rejected(call):
    spec, params, xs, _ = three_channel_case()
    with pytest.raises(ops.ShapeError, match=r"\[B, C, H, W\]"):
        call(xs[0], params, spec)


def test_empty_batch_predicts_no_labels():
    spec, params, xs, _ = three_channel_case()
    labels = _handle(params, spec, (MEAN, STD)).predict(xs[:0])
    assert labels.shape == (0,)
