"""Model structure: architecture spec, parameter set, and layered network state.

The network is a chain of convolutional connections (each followed by 2x2
stride-2 max pooling) and optional fully connected connections, all inside the
energy, plus a linear readout on the flattened top state that stays outside
the dynamics. States s^1..s^N live in [0,1]; s^0 is the clamped input.

Connections are numbered conv first, then fc, then the readout at
i = n_layers. Params holds connection i's weight and bias as w[i] and b[i];
param_shapes is the one place that derives tensor names and shapes from a
spec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ops import ConvSpec


@dataclass(frozen=True)
class ModelSpec:
    """Architecture and dynamics hyperparameters.

    conv: one ConvSpec per convolutional connection; every conv output is
        2x2-max-pooled, so its spatial extent must come out even.
    fc: (in_dim, out_dim) pairs for fully connected connections inside the
        energy (usually empty; the readout is separate).
    t_free: max free-phase steps; t_nudge: nudged-phase steps; beta: nudging
        strength; fp_tol: infinity-norm step tolerance for fixed-point exit.
    """

    input_shape: tuple[int, int, int]
    conv: tuple[ConvSpec, ...]
    fc: tuple[tuple[int, int], ...] = ()
    readout_dim: int = 10
    t_free: int = 250
    t_nudge: int = 30
    beta: float = 0.5
    fp_tol: float = 1e-6

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if self.fp_tol <= 0:
            raise ValueError(f"fp_tol must be > 0, got {self.fp_tol}")
        if self.readout_dim < 1:
            raise ValueError("readout_dim must be >= 1")
        shapes = self.state_shapes()  # validates the chain
        if self.t_free < len(shapes):
            raise ValueError(
                f"t_free={self.t_free} < number of layers {len(shapes)}; "
                "information cannot reach the top layer"
            )
        if self.t_nudge < 1:
            raise ValueError("t_nudge must be >= 1")

    @property
    def n_conv(self) -> int:
        return len(self.conv)

    @property
    def n_layers(self) -> int:
        return len(self.conv) + len(self.fc)

    def state_shapes(self) -> list[tuple[int, ...]]:
        """Per-layer state shapes s^1..s^N (unbatched), validating the chain."""
        if self.n_layers == 0:
            raise ValueError("model needs at least one conv or fc connection")
        c, h, w = self.input_shape
        shapes: list[tuple[int, ...]] = []
        for i, cs in enumerate(self.conv):
            if cs.in_channels != c:
                raise ValueError(
                    f"conv {i}: in_channels {cs.in_channels} != incoming channels {c}"
                )
            h2, w2 = cs.out_extent(h), cs.out_extent(w)
            if h2 % 2 or w2 % 2:
                raise ValueError(
                    f"conv {i}: pre-pool extent {h2}x{w2} must be even for 2x2 pooling"
                )
            c, h, w = cs.out_channels, h2 // 2, w2 // 2
            shapes.append((c, h, w))
        dim = c * h * w
        for j, (din, dout) in enumerate(self.fc):
            if din != dim:
                raise ValueError(f"fc {j}: in_dim {din} != incoming dim {dim}")
            if dout < 1:
                raise ValueError(f"fc {j}: out_dim must be >= 1, got {dout}")
            dim = dout
            shapes.append((dim,))
        return shapes

    @property
    def top_dim(self) -> int:
        return int(np.prod(self.state_shapes()[-1]))


def param_shapes(spec: ModelSpec) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every parameter tensor, weight then bias per connection
    in connection order: conv_w0, conv_b0, ..., fc_w0, fc_b0, ..., readout_w,
    readout_b. These are the checkpoint manifest's names and shapes."""
    w_shapes = [(cs.out_channels, cs.in_channels, cs.kernel, cs.kernel) for cs in spec.conv]
    w_shapes += [(dout, din) for din, dout in spec.fc]
    w_shapes.append((spec.readout_dim, spec.top_dim))
    shapes = [shape for w in w_shapes for shape in (w, w[:1])]
    return list(zip(_tensor_names(spec.n_conv, spec.n_layers), shapes))


def _tensor_names(n_conv: int, n_layers: int) -> list[str]:
    """The names param_shapes gives a model of n_conv conv connections among
    n_layers energy connections; Params.tensors() uses them too."""
    names = [(f"conv_w{i}", f"conv_b{i}") for i in range(n_conv)]
    names += [(f"fc_w{j}", f"fc_b{j}") for j in range(n_layers - n_conv)]
    names.append(("readout_w", "readout_b"))
    return [name for pair in names for name in pair]


@dataclass
class Params:
    """Weights and biases by connection: w[i] and b[i] belong to connection i,
    numbered conv first, then fc, then the readout at i = n_layers. Gradient
    estimates and optimizer velocities use the same container, holding
    float64 arrays.

    A conv weight is [out, in, k, k], an fc weight [out, in], the readout
    weight [readout_dim, top_dim]; each bias is [out].
    """

    w: list[np.ndarray]
    b: list[np.ndarray]

    def tensors(self) -> list[tuple[str, np.ndarray]]:
        """(name, tensor) pairs named and ordered as param_shapes lists them."""
        n_conv = sum(w.ndim == 4 for w in self.w)
        names = _tensor_names(n_conv, len(self.w) - 1)
        return list(zip(names, [t for wb in zip(self.w, self.b) for t in wb]))

    def map(self, fn, *others: "Params", **kwargs) -> "Params":
        """Params of fn(tensor, *the same connection's tensors of others, **kwargs).

        params.map(np.asarray, dtype=np.float64) casts; params.map(np.zeros_like,
        dtype=np.float64) starts a gradient estimate; g.map(f, h) combines two.
        """
        w = [fn(*ts, **kwargs) for ts in zip(self.w, *(o.w for o in others))]
        b = [fn(*ts, **kwargs) for ts in zip(self.b, *(o.b for o in others))]
        return Params(w, b)

    def all_finite(self) -> bool:
        return all(np.isfinite(t).all() for t in self.w + self.b)


def init_params(spec: ModelSpec, rng: np.random.Generator, dtype=np.float32,
                scale: float = 1.0) -> Params:
    """Uniform fan-in initialization, U(-s/sqrt(fan_in), s/sqrt(fan_in)) with
    fan_in = prod(w.shape[1:]), drawn weight then bias per connection."""
    shapes = [shape for _, shape in param_shapes(spec)]
    w, b = [], []
    for w_shape, b_shape in zip(shapes[0::2], shapes[1::2]):
        bound = scale / np.sqrt(math.prod(w_shape[1:]))
        w.append(rng.uniform(-bound, bound, size=w_shape).astype(dtype))
        b.append(rng.uniform(-bound, bound, size=b_shape).astype(dtype))
    return Params(w, b)


@dataclass
class NetworkState:
    """Layer states s^1..s^N (batched [B, ...]); steps counts the dynamics
    steps applied to produce this state."""

    layers: list[np.ndarray]
    steps: int = 0


def zero_state(spec: ModelSpec, batch: int) -> NetworkState:
    return NetworkState(
        layers=[np.zeros((batch,) + s, dtype=np.float64) for s in spec.state_shapes()]
    )


def spec_from_dict(d: dict) -> ModelSpec:
    """Inverse of asdict(spec) after JSON; a missing field raises KeyError naming it."""
    return ModelSpec(
        input_shape=tuple(d["input_shape"]),
        conv=tuple(ConvSpec(**c) for c in d["conv"]),
        fc=tuple(tuple(p) for p in d["fc"]),
        readout_dim=d["readout_dim"],
        t_free=d["t_free"],
        t_nudge=d["t_nudge"],
        beta=d["beta"],
        fp_tol=d["fp_tol"],
    )
