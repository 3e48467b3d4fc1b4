"""Plain key=value config files for the CLI.

One ``key = value`` pair per line, ``#`` comments allowed. Keys map onto
ModelSpec and TrainConfig fields (see README for the full table); unknown
keys are hard errors so typos cannot silently change an experiment.
"""

from __future__ import annotations

from pathlib import Path

from .model import ModelSpec
from .ops import ConvSpec
from .training import AdversarialBlock, TrainConfig


class ConfigError(ValueError):
    pass


MODEL_KEYS = ("input_shape", "conv_channels", "conv_kernels", "conv_paddings",
              "fc_dims", "readout_dim", "t_free", "t_nudge", "beta", "fp_tol")
TRAIN_KEYS = ("epochs", "batch_size", "learning_rates", "momentum",
              "update_rule", "seed", "adv_norm", "adv_epsilon", "adv_steps")


def parse_config_text(text: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if key not in MODEL_KEYS and key not in TRAIN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        pairs[key] = value
    return pairs


def _ints(value: str) -> list[int]:
    value = value.strip()
    return [int(v) for v in value.split(",") if v.strip()] if value else []


def _floats(value: str) -> list[float]:
    value = value.strip()
    return [float(v) for v in value.split(",") if v.strip()] if value else []


def load_config(path) -> tuple[ModelSpec, TrainConfig]:
    pairs = parse_config_text(Path(path).read_text())
    try:
        shape = tuple(int(v) for v in pairs["input_shape"].replace("x", ",").split(","))
        channels = _ints(pairs["conv_channels"])
        kernels = _ints(pairs.get("conv_kernels", ",".join(["3"] * len(channels))))
        paddings = _ints(pairs.get("conv_paddings", ",".join(["1"] * len(channels))))
    except KeyError as exc:
        raise ConfigError(f"missing required key {exc.args[0]!r}") from None
    if not (len(channels) == len(kernels) == len(paddings)):
        raise ConfigError("conv_channels, conv_kernels, conv_paddings lengths differ")
    conv = []
    c = shape[0]
    for ch, k, p in zip(channels, kernels, paddings):
        conv.append(ConvSpec(c, ch, k, p))
        c = ch

    fc_dims = _ints(pairs.get("fc_dims", ""))
    # chain fc in-dims from the flattened conv top
    probe = ModelSpec(input_shape=shape, conv=tuple(conv),
                      readout_dim=int(pairs.get("readout_dim", 10)),
                      t_free=int(pairs.get("t_free", 250)),
                      t_nudge=int(pairs.get("t_nudge", 30)),
                      beta=float(pairs.get("beta", 0.5)),
                      fp_tol=float(pairs.get("fp_tol", 1e-6)))
    fc = []
    d = probe.top_dim
    for dim in fc_dims:
        fc.append((d, dim))
        d = dim
    spec = ModelSpec(input_shape=shape, conv=tuple(conv), fc=tuple(fc),
                     readout_dim=probe.readout_dim, t_free=probe.t_free,
                     t_nudge=probe.t_nudge, beta=probe.beta, fp_tol=probe.fp_tol)

    adv = None
    if any(k in pairs for k in ("adv_norm", "adv_epsilon", "adv_steps")):
        adv = AdversarialBlock(
            norm=pairs.get("adv_norm", "l2"),
            epsilon=float(pairs.get("adv_epsilon", 0.5)),
            steps=int(pairs.get("adv_steps", 10)),
        )
    n_rates = spec.n_layers + 1
    cfg = TrainConfig(
        epochs=int(pairs.get("epochs", 20)),
        batch_size=int(pairs.get("batch_size", 64)),
        learning_rates=tuple(_floats(pairs.get("learning_rates", ""))
                             or [0.05] * n_rates),
        beta=spec.beta,
        momentum=float(pairs.get("momentum", 0.9)),
        update_rule=pairs.get("update_rule", "symmetric"),
        seed=int(pairs.get("seed", 0)),
        adversarial=adv,
    )
    cfg.validate_for(spec)
    return spec, cfg
