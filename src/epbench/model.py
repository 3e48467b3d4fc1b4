"""Model structure: architecture spec, parameter set, and layered network state.

The network is a chain of convolutional connections (each followed by 2x2
stride-2 max pooling) and optional fully connected connections, all inside the
energy, plus a linear readout on the flattened top state that stays outside
the dynamics. States s^1..s^N live in [0,1]; s^0 is the clamped input.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

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
            dim = dout
            shapes.append((dim,))
        return shapes

    @property
    def top_dim(self) -> int:
        return int(np.prod(self.state_shapes()[-1]))


@dataclass
class Params:
    """Weight set: energy connections plus the readout. Gradient estimates and
    optimizer velocities use the same container, holding float64 arrays.

    conv_w[i]: [out,in,k,k]; conv_b[i]: [out]; fc_w[j]: [out,in]; fc_b[j]: [out];
    readout_w: [readout_dim, top_dim]; readout_b: [readout_dim].
    """

    conv_w: list[np.ndarray]
    conv_b: list[np.ndarray]
    fc_w: list[np.ndarray]
    fc_b: list[np.ndarray]
    readout_w: np.ndarray
    readout_b: np.ndarray

    def tensors(self) -> list[tuple[str, np.ndarray]]:
        named = []
        for i, (w, b) in enumerate(zip(self.conv_w, self.conv_b)):
            named += [(f"conv_w{i}", w), (f"conv_b{i}", b)]
        for j, (w, b) in enumerate(zip(self.fc_w, self.fc_b)):
            named += [(f"fc_w{j}", w), (f"fc_b{j}", b)]
        named += [("readout_w", self.readout_w), ("readout_b", self.readout_b)]
        return named

    def map(self, fn, *others: "Params", **kwargs) -> "Params":
        """Params of fn(tensor, *same-named tensors of others, **kwargs).

        params.map(np.asarray, dtype=np.float64) casts; params.map(np.zeros_like,
        dtype=np.float64) starts a gradient estimate; g.map(f, h) combines two.
        """
        out = {}
        for f in fields(self):
            mine, theirs = getattr(self, f.name), [getattr(o, f.name) for o in others]
            out[f.name] = ([fn(*ts, **kwargs) for ts in zip(mine, *theirs)]
                           if isinstance(mine, list) else fn(mine, *theirs, **kwargs))
        return Params(**out)

    def all_finite(self) -> bool:
        return all(np.isfinite(t).all() for _, t in self.tensors())

    def validate(self, spec: ModelSpec) -> None:
        shapes = spec.state_shapes()
        if len(self.conv_w) != spec.n_conv or len(self.fc_w) != len(spec.fc):
            raise ValueError("parameter list lengths do not match the spec")
        c = spec.input_shape[0]
        for i, cs in enumerate(spec.conv):
            want = (cs.out_channels, cs.in_channels, cs.kernel, cs.kernel)
            if self.conv_w[i].shape != want:
                raise ValueError(f"conv_w{i} shape {self.conv_w[i].shape} != {want}")
            if self.conv_b[i].shape != (cs.out_channels,):
                raise ValueError(f"conv_b{i} shape mismatch")
            c = cs.out_channels
        for j, (din, dout) in enumerate(spec.fc):
            if self.fc_w[j].shape != (dout, din):
                raise ValueError(f"fc_w{j} shape {self.fc_w[j].shape} != {(dout, din)}")
            if self.fc_b[j].shape != (dout,):
                raise ValueError(f"fc_b{j} shape mismatch")
        if self.readout_w.shape != (spec.readout_dim, spec.top_dim):
            raise ValueError(
                f"readout_w shape {self.readout_w.shape} != "
                f"{(spec.readout_dim, spec.top_dim)}"
            )
        if self.readout_b.shape != (spec.readout_dim,):
            raise ValueError("readout_b shape mismatch")
        if not self.all_finite():
            raise ValueError("parameters contain non-finite values")


def init_params(spec: ModelSpec, rng: np.random.Generator, dtype=np.float32,
                scale: float = 1.0) -> Params:
    """Uniform fan-in initialization: U(-s/sqrt(fan_in), s/sqrt(fan_in))."""

    def uni(shape, fan_in):
        bound = scale / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape).astype(dtype)

    conv_w, conv_b, fc_w, fc_b = [], [], [], []
    for cs in spec.conv:
        fan = cs.in_channels * cs.kernel * cs.kernel
        conv_w.append(uni((cs.out_channels, cs.in_channels, cs.kernel, cs.kernel), fan))
        conv_b.append(uni((cs.out_channels,), fan))
    for din, dout in spec.fc:
        fc_w.append(uni((dout, din), din))
        fc_b.append(uni((dout,), din))
    d = spec.top_dim
    return Params(
        conv_w=conv_w, conv_b=conv_b, fc_w=fc_w, fc_b=fc_b,
        readout_w=uni((spec.readout_dim, d), d),
        readout_b=uni((spec.readout_dim,), d),
    )


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
