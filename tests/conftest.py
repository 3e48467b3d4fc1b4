"""Shared fixtures: the desk-scale dataset and trained models.

Training runs once per session; every test that needs a trained model reuses
these. The recipe (blobs at noise 0.5, one conv connection plus readout) is
the reference desk-scale setup for the acceptance gate.
"""

import numpy as np
import pytest

from epbench import data, energy, training
from epbench.model import ModelSpec, init_params
from epbench.ops import ConvSpec

DESK_NOISE = 0.5
DESK_SHAPE = (1, 8, 8)


def tiny_model(rng: np.random.Generator, *, in_shape=(1, 8, 8), channels=(4, 8),
               classes: int = 3, t_free: int = 250, t_nudge: int = 30,
               beta: float = 0.5, fp_tol: float = 1e-6, scale: float = 1.0,
               dtype=np.float64):
    """Small random conv model used throughout the test oracles."""
    c = in_shape[0]
    conv = []
    for ch in channels:
        conv.append(ConvSpec(c, ch, kernel=3, padding=1))
        c = ch
    spec = ModelSpec(
        input_shape=in_shape, conv=tuple(conv), readout_dim=classes,
        t_free=t_free, t_nudge=t_nudge, beta=beta, fp_tol=fp_tol,
    )
    params = init_params(spec, rng, dtype=dtype, scale=scale)
    return spec, params


def oracle_model(seed, **kw):
    """Random tiny 2-conv model with oracle-grade phase settings."""
    defaults = dict(scale=0.8, t_free=400, t_nudge=200, fp_tol=1e-13)
    defaults.update(kw)
    return tiny_model(np.random.default_rng(seed), **defaults)


def fixed_point_loss(x, y, params, spec):
    st = energy.free_phase(x, params, spec)
    return float(np.mean(energy.cross_entropy(energy.readout(st, params, spec), y)))


def fd_param_grads(x, y, params, spec, h=1e-4, skip_readout=True):
    """Central finite differences of the fixed-point loss per parameter."""
    out = {}
    for name, arr in params.tensors():
        if skip_readout and name.startswith("readout"):
            continue
        g = np.zeros(arr.shape)
        for ix in np.ndindex(arr.shape):
            orig = arr[ix]
            arr[ix] = orig + h
            lp = fixed_point_loss(x, y, params, spec)
            arr[ix] = orig - h
            lm = fixed_point_loss(x, y, params, spec)
            arr[ix] = orig
            g[ix] = (lp - lm) / (2 * h)
        out[name] = g
    return out


def one_conv_model(rng, **kw):
    """tiny_model with a single conv connection: conv 1->4 on 1x8x8, then a
    3-class readout."""
    return tiny_model(rng, channels=(4,), **kw)


def desk_spec() -> ModelSpec:
    return ModelSpec(
        input_shape=DESK_SHAPE,
        conv=(ConvSpec(1, 8, kernel=3, padding=1),),
        readout_dim=2,
        t_free=60, t_nudge=15, beta=0.5, fp_tol=1e-6,
    )


def desk_train_config(seed: int = 0, **overrides) -> training.TrainConfig:
    kwargs = dict(epochs=20, batch_size=64, learning_rates=(0.1, 0.05),
                  momentum=0.9, update_rule="symmetric", seed=seed)
    kwargs.update(overrides)
    return training.TrainConfig(**kwargs)


@pytest.fixture(scope="session")
def desk_data():
    train = data.synth_dataset("blobs", 512, DESK_SHAPE, 2, seed=0, noise=DESK_NOISE)
    test = data.synth_dataset("blobs", 256, DESK_SHAPE, 2, seed=1, noise=DESK_NOISE,
                              split="test")
    return train, test


@pytest.fixture(scope="session")
def trained_ep(desk_data):
    train, test = desk_data
    spec = desk_spec()
    params, history = training.train("ep", train, spec, desk_train_config(),
                                     val_dataset=test)
    return spec, params, history


@pytest.fixture(scope="session")
def trained_bp(desk_data):
    train, test = desk_data
    spec = desk_spec()
    cfg = desk_train_config(epochs=15)
    params, history = training.train("bp", train, spec, cfg, val_dataset=test)
    return spec, params, history


@pytest.fixture(scope="session")
def trained_adv(desk_data):
    train, test = desk_data
    spec = desk_spec()
    cfg = desk_train_config(epochs=15, adv_norm="l2", adv_epsilon=0.5, adv_steps=10)
    params, history = training.train("adv", train, spec, cfg, val_dataset=test)
    return spec, params, history


@pytest.fixture(scope="session")
def eval_batch(desk_data):
    _, test = desk_data
    xs = np.asarray(test.images[:128], dtype=np.float64)
    ys = test.labels[:128]
    return xs, ys
