"""Binary model checkpoints.

Layout: 4 magic bytes, little-endian uint32 format version, little-endian
uint64 JSON header length, the UTF-8 JSON header, then the named parameter
tensors as raw little-endian float32 in manifest order. The header carries
the architecture descriptor, model kind (ep/bp/adv), training-config
snapshot, RNG seed, normalization stats, the recorded free-phase convergence
step, and the tensor manifest (name + shape), which must equal
model.param_shapes(spec). Round trips are bit-exact.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import SYNTH_KINDS
from .model import ModelSpec, Params, param_shapes, spec_from_dict

MAGIC = b"EPBN"
VERSION = 1
MODEL_KINDS = ("ep", "bp", "adv")
_INT_SPEC_FIELDS = ("input_shape", "conv", "fc", "readout_dim", "t_free", "t_nudge")
# the header fields besides the spec and the tensor manifest, in Checkpoint order
_META_FIELDS = ("model_kind", "seed", "train_config", "norm_mean", "norm_std",
                "convergence_step")


class CheckpointError(ValueError):
    pass


@dataclass
class Checkpoint:
    spec: ModelSpec
    params: Params
    model_kind: str = "ep"           # ep | bp | adv
    seed: int = 0
    train_config: dict = field(default_factory=dict)
    norm_mean: list = field(default_factory=list)
    norm_std: list = field(default_factory=list)
    convergence_step: int = 0

    @property
    def normalize(self):
        if not self.norm_mean:
            return None
        return (np.asarray(self.norm_mean, dtype=np.float64),
                np.asarray(self.norm_std, dtype=np.float64))


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Write ckpt to path; raises CheckpointError, writing nothing, on a header
    field, manifest or non-finite tensor that load_checkpoint would reject."""
    tensors = [(name, np.ascontiguousarray(t, dtype="<f4"))
               for name, t in ckpt.params.tensors()]
    meta = {k: getattr(ckpt, k) for k in _META_FIELDS}
    meta.update(norm_mean=[float(v) for v in ckpt.norm_mean],
                norm_std=[float(v) for v in ckpt.norm_std])
    _require_valid(meta, [(name, t.shape) for name, t in tensors], ckpt.spec)
    for name, t in tensors:
        if not np.isfinite(t).all():
            raise CheckpointError(f"tensor {name} holds a non-finite value")
    header = {
        "spec": asdict(ckpt.spec),  # tuples serialize as JSON lists
        **meta,
        "tensors": [{"name": n, "shape": list(t.shape)} for n, t in tensors],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for _, t in tensors:
            fh.write(t.tobytes())


def _listing(manifest) -> str:
    return ", ".join(f"{name}{list(shape)}" for name, shape in manifest)


def _is_int(v, lo=-math.inf) -> bool:
    return type(v) is int and v >= lo


def _recipe_rules(spec: ModelSpec) -> list:
    """(field, test, expectation) of each train_config field `epbench train`
    records: the training data and, for synthetic data, its recipe."""
    shape = list(spec.input_shape)
    return [
        ("data", lambda v: isinstance(v, str), "a string"),
        ("seed", _is_int, "an integer"),
        ("synth_kind", lambda v: v in SYNTH_KINDS, f"one of {', '.join(SYNTH_KINDS)}"),
        ("input_shape", lambda v: isinstance(v, (list, tuple)) and list(v) == shape
         and all(map(_is_int, v)), f"{shape}, the spec's input_shape"),
        ("classes", lambda v: _is_int(v) and v == spec.readout_dim,
         f"{spec.readout_dim}, the spec's readout_dim"),
        ("n_train", lambda v: _is_int(v, 1), "an integer >= 1"),
        ("n_test", lambda v: _is_int(v, 1), "an integer >= 1"),
        ("synth_noise", lambda v: type(v) in (int, float) and math.isfinite(v) and v >= 0,
         "a finite number >= 0"),
    ]


def _require_valid(meta: dict, manifest, spec: ModelSpec) -> None:
    """The header checks that save_checkpoint and load_checkpoint share.

    seed is an integer; train_config is an object whose recorded fields have
    the types and ranges `epbench train` writes. The normalization stats are
    both empty or both one finite value per input channel, with std > 0;
    convergence_step is an integer in [0, t_free].
    """
    if meta["model_kind"] not in MODEL_KINDS:
        raise CheckpointError(f"header field 'model_kind' is {meta['model_kind']!r}, "
                              f"expected one of {', '.join(MODEL_KINDS)}")
    if not _is_int(meta["seed"]):
        raise CheckpointError(f"header field 'seed' is {meta['seed']!r}, expected an "
                              "integer")
    recipe = meta["train_config"]
    if not isinstance(recipe, dict):
        raise CheckpointError(f"header field 'train_config' is {recipe!r}, expected an "
                              "object")
    for key, ok, want in _recipe_rules(spec):
        if key in recipe and not ok(recipe[key]):
            raise CheckpointError(f"header field 'train_config.{key}' is "
                                  f"{recipe[key]!r}, expected {want}")
    expected = param_shapes(spec)
    if manifest != expected:
        raise CheckpointError("tensor manifest does not match the spec: expected "
                              f"{_listing(expected)}; found {_listing(manifest)}")
    mean, std = meta["norm_mean"], meta["norm_std"]
    for name, v in (("norm_mean", mean), ("norm_std", std)):
        if not (isinstance(v, list) and all(type(e) in (int, float) for e in v)):
            raise CheckpointError(f"header field {name!r} is {v!r}, expected a list "
                                  "of numbers")
        if not all(math.isfinite(e) for e in v):
            raise CheckpointError(f"header field {name!r} is {v!r}, expected finite "
                                  "values")
    channels = spec.input_shape[0]
    if (len(mean), len(std)) not in ((0, 0), (channels, channels)):
        raise CheckpointError(f"header fields 'norm_mean' and 'norm_std' hold {len(mean)} "
                              f"and {len(std)} values, expected both 0 or both "
                              f"{channels} (one per input channel)")
    if any(e <= 0 for e in std):
        raise CheckpointError(f"header field 'norm_std' is {std!r}, expected values > 0")
    step = meta["convergence_step"]
    if type(step) is not int or not 0 <= step <= spec.t_free:
        raise CheckpointError(f"header field 'convergence_step' is {step!r}, expected "
                              f"an integer in [0, {spec.t_free}] (t_free)")


def _unpack(blob: bytes, offset: int, fmt: str, name: str) -> int:
    if len(blob) < offset + struct.calcsize(fmt):
        raise CheckpointError(f"truncated {name} field at byte offset {offset}")
    return struct.unpack_from(fmt, blob, offset)[0]


def _require_ints(value, field: str) -> None:
    """TypeError naming the first number in nested JSON lists and objects that
    is not an integer (a float or a bool)."""
    if isinstance(value, (dict, list)):
        for k, v in (value.items() if isinstance(value, dict) else enumerate(value)):
            _require_ints(v, f"{field}.{k}")
    elif type(value) is not int:
        raise TypeError(f"{field} is {value!r}, not an integer")


def load_checkpoint(path) -> Checkpoint:
    """Parse a checkpoint; any malformed content raises CheckpointError naming
    the byte offset or header field at fault."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise CheckpointError(f"bad magic {blob[:4]!r}, expected {MAGIC!r}")
    version = _unpack(blob, 4, "<I", "version")
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    hlen = _unpack(blob, 8, "<Q", "header length")
    offset = 16 + hlen
    if offset > len(blob):
        raise CheckpointError(f"header length {hlen} at byte offset 8 runs past "
                              f"the end of the {len(blob)}-byte file")
    try:
        text = blob[16:offset].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"header is not UTF-8 at byte offset {16 + exc.start}") from None
    try:
        header = json.loads(text)
    except json.JSONDecodeError as exc:
        at = 16 + len(text[:exc.pos].encode("utf-8"))
        raise CheckpointError(f"header is not JSON at byte offset {at}: {exc.msg}") from None
    try:
        _require_ints({k: header["spec"][k] for k in _INT_SPEC_FIELDS}, "spec")
        spec = spec_from_dict(header["spec"])
        for i, e in enumerate(header["tensors"]):
            _require_ints(e["shape"], f"tensors.{i}.shape")
        manifest = [(str(e["name"]), tuple(e["shape"])) for e in header["tensors"]]
        meta = {k: header[k] for k in _META_FIELDS}
    except KeyError as exc:
        raise CheckpointError(f"header field {exc.args[0]!r} missing") from None
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"bad header field: {exc}") from None
    _require_valid(meta, manifest, spec)
    tensors = []
    for name, shape in manifest:
        count = math.prod(shape)
        if offset + 4 * count > len(blob):
            raise CheckpointError(f"truncated tensor {name} at byte offset {offset}")
        t = np.frombuffer(blob, dtype="<f4", count=count, offset=offset).reshape(shape)
        if not np.isfinite(t).all():
            raise CheckpointError(f"tensor {name} at byte offset {offset} holds a "
                                  "non-finite value")
        tensors.append(t.copy())
        offset += 4 * count
    if offset != len(blob):
        raise CheckpointError(f"trailing bytes after the last tensor at byte offset {offset}")
    return Checkpoint(spec=spec, params=Params(tensors[0::2], tensors[1::2]), **meta)
