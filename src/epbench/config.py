"""Plain key=value config files for the CLI.

One ``key = value`` pair per line, ``#`` comments allowed. Each key sets the
ModelSpec or TrainConfig field of the same name, apart from the architecture
keys that build ModelSpec's conv chain (see README for the full table). Each
key has one parser below; a key left out of the file is not passed on, so
the dataclass's own default applies. Unknown keys, duplicate
keys and values that fail to parse raise ConfigError naming the line; a
value the dataclasses reject raises ConfigError naming the file.
"""

from __future__ import annotations

from pathlib import Path

from .model import ModelSpec
from .ops import ConvSpec
from .training import TrainConfig


class ConfigError(ValueError):
    pass


def _items(value: str, kind) -> tuple:
    items = [v.strip() for v in value.split(",")]
    if "" in items:
        raise ValueError(f"blank item in list {value!r}")
    return tuple(map(kind, items))


def _ints(value: str) -> tuple[int, ...]:
    return _items(value, int)


def _floats(value: str) -> tuple[float, ...]:
    return _items(value, float)


def _shape(value: str) -> tuple[int, int, int]:
    c, h, w = _ints(value.replace("x", ","))
    return c, h, w


# one parser per key, grouped by the dataclass whose same-named field the key
# sets
_SPEC_KEYS = {"readout_dim": int, "t_free": int, "t_nudge": int, "beta": float,
              "fp_tol": float}
_TRAIN_KEYS = {"epochs": int, "batch_size": int, "learning_rates": _floats,
               "momentum": float, "update_rule": str, "seed": int,
               "adv_norm": str, "adv_epsilon": float, "adv_steps": int}
_PARSERS = {"input_shape": _shape, "conv_channels": _ints, "conv_kernels": _ints,
            "conv_paddings": _ints, **_SPEC_KEYS, **_TRAIN_KEYS}


def parse_config_text(text: str) -> dict[str, object]:
    """{key: parsed value} for the keys the text sets."""
    pairs: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            pairs[key] = _PARSERS[key](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from None
    return pairs


def _given(pairs: dict, keys) -> dict:
    return {k: pairs[k] for k in keys if k in pairs}


def load_config(path) -> tuple[ModelSpec, TrainConfig]:
    try:
        pairs = parse_config_text(Path(path).read_text())
        shape, channels = pairs["input_shape"], pairs["conv_channels"]
        kernels = pairs.get("conv_kernels", (3,) * len(channels))
        paddings = pairs.get("conv_paddings", (1,) * len(channels))
        if not (len(channels) == len(kernels) == len(paddings)):
            raise ConfigError("conv_channels, conv_kernels, conv_paddings lengths differ")
        # each connection's input is the previous one's output
        ins = (shape[0],) + channels[:-1]
        conv = tuple(map(ConvSpec, ins, channels, kernels, paddings))
        spec = ModelSpec(input_shape=shape, conv=conv, **_given(pairs, _SPEC_KEYS))
        cfg = TrainConfig(**_given(pairs, _TRAIN_KEYS))
        cfg.validate_for(spec)
    except KeyError as exc:
        raise ConfigError(f"{path}: missing required key {exc.args[0]!r}") from None
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return spec, cfg
