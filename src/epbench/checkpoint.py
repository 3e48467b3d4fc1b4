"""Binary model checkpoints.

Layout: 4 magic bytes, little-endian uint32 format version, little-endian
uint64 JSON header length, the UTF-8 JSON header, then the named parameter
tensors as raw little-endian float32 in manifest order. The header carries
the architecture descriptor, model kind (ep/bp/adv), training-config
snapshot, RNG seed, normalization stats, the recorded free-phase convergence
step, and the tensor manifest (name + shape), which must equal
model.param_shapes(spec). The spec's "fc" field is always the empty list:
format 1 reserved it for fully connected connections inside the energy,
which models no longer have. Round trips are bit-exact.
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
_INT_SPEC_FIELDS = ("input_shape", "conv", "readout_dim", "t_free", "t_nudge")
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
    header = {
        "spec": {**asdict(ckpt.spec), "fc": []},  # tuples serialize as JSON lists
        **{k: getattr(ckpt, k) for k in _META_FIELDS},
        "norm_mean": [float(v) for v in ckpt.norm_mean],
        "norm_std": [float(v) for v in ckpt.norm_std],
        "tensors": [{"name": n, "shape": list(t.shape)} for n, t in tensors],
    }
    _check_header(header)
    for name, t in tensors:
        if not np.isfinite(t).all():
            raise CheckpointError(f"tensor {name} holds a non-finite value")
    try:
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
    except TypeError:
        name, v = next(filter(None, (_unencodable(k, v) for k, v in header.items())))
        raise CheckpointError(f"header field {name!r} is {v!r} of type "
                              f"{type(v).__name__}, which JSON cannot hold") from None
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for _, t in tensors:
            fh.write(t.tobytes())


def _unencodable(name: str, v):
    """(dotted name, value) of the first part of header field `name` that
    json.dumps refuses, or None: a value of another type, such as a numpy
    float, or a dict whose keys it cannot sort or write."""
    if isinstance(v, dict):
        probe, parts = dict.fromkeys(v), v.items()
    elif isinstance(v, (list, tuple)):
        probe, parts = [], enumerate(v)
    else:
        probe, parts = v, ()
    try:
        json.dumps(probe, sort_keys=True)
    except TypeError:
        return name, v
    for k, e in parts:
        found = _unencodable(f"{name}.{k}", e)
        if found:
            return found
    return None


def _listing(manifest) -> str:
    return ", ".join(f"{name}{list(shape)}" for name, shape in manifest)


def _is_int(v, lo=-math.inf) -> bool:
    return type(v) is int and v >= lo


def _header_rules(spec: ModelSpec) -> list:
    """(field, test, expectation) of each header field, in the order checked.
    A train_config.<key> row checks a field `epbench train` records (the
    training data and, for synthetic data, its recipe) when it is present."""
    shape = list(spec.input_shape)
    return [
        ("model_kind", lambda v: v in MODEL_KINDS, f"one of {', '.join(MODEL_KINDS)}"),
        ("seed", _is_int, "an integer"),
        ("train_config", lambda v: isinstance(v, dict), "an object"),
        ("train_config.data", lambda v: isinstance(v, str), "a string"),
        ("train_config.seed", _is_int, "an integer"),
        ("train_config.synth_kind", lambda v: v in SYNTH_KINDS,
         f"one of {', '.join(SYNTH_KINDS)}"),
        ("train_config.input_shape", lambda v: isinstance(v, (list, tuple))
         and list(v) == shape and all(map(_is_int, v)), f"{shape}, the spec's input_shape"),
        ("train_config.classes", lambda v: _is_int(v) and v == spec.readout_dim,
         f"{spec.readout_dim}, the spec's readout_dim"),
        ("train_config.n_train", lambda v: _is_int(v, 1), "an integer >= 1"),
        ("train_config.n_test", lambda v: _is_int(v, 1), "an integer >= 1"),
        ("train_config.synth_noise", lambda v: type(v) in (int, float) and math.isfinite(v)
         and v >= 0, "a finite number >= 0"),
        ("norm_mean", lambda v: isinstance(v, list)
         and all(type(e) in (int, float) for e in v), "a list of numbers"),
        ("norm_mean", lambda v: all(map(math.isfinite, v)), "finite values"),
        ("norm_std", lambda v: isinstance(v, list)
         and all(type(e) in (int, float) for e in v), "a list of numbers"),
        ("norm_std", lambda v: all(map(math.isfinite, v)), "finite values"),
        ("norm_std", lambda v: all(e > 0 for e in v), "values > 0"),
        ("convergence_step", lambda v: _is_int(v, 0) and v <= spec.t_free,
         f"an integer in [0, {spec.t_free}] (t_free)"),
    ]


def _require_ints(value, field: str) -> None:
    """TypeError naming the first number in nested lists, tuples and dicts
    that is not an integer (a float, a bool or a numpy integer)."""
    if isinstance(value, (dict, list, tuple)):
        for k, v in (value.items() if isinstance(value, dict) else enumerate(value)):
            _require_ints(v, f"{field}.{k}")
    elif type(value) is not int:
        raise TypeError(f"{field} is {value!r}, not an integer")


def _check_header(header: dict):
    """(spec, manifest, meta) of a header as save_checkpoint writes it or
    load_checkpoint parsed it, checked field by field (_header_rules) and
    across fields; CheckpointError names the field at fault."""
    try:
        _require_ints({k: header["spec"][k] for k in _INT_SPEC_FIELDS}, "spec")
        spec, fc = spec_from_dict(header["spec"]), header["spec"]["fc"]
        for i, e in enumerate(header["tensors"]):
            _require_ints(e["shape"], f"tensors.{i}.shape")
        manifest = [(str(e["name"]), tuple(e["shape"])) for e in header["tensors"]]
        meta = {k: header[k] for k in _META_FIELDS}
    except KeyError as exc:
        raise CheckpointError(f"header field {exc.args[0]!r} missing") from None
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"bad header field: {exc}") from None
    if fc != []:
        raise CheckpointError(f"header field 'spec.fc' is {fc!r}, expected [] "
                              "(no fully connected connections)")
    for name, ok, want in _header_rules(spec):
        top, _, key = name.partition(".")
        if key and key not in meta[top]:
            continue  # train_config holds only the fields its data needs
        v = meta[top][key] if key else meta[top]
        if not ok(v):
            raise CheckpointError(f"header field {name!r} is {v!r}, expected {want}")
    expected = param_shapes(spec)
    if manifest != expected:
        raise CheckpointError("tensor manifest does not match the spec: expected "
                              f"{_listing(expected)}; found {_listing(manifest)}")
    mean, std, channels = meta["norm_mean"], meta["norm_std"], spec.input_shape[0]
    if (len(mean), len(std)) not in ((0, 0), (channels, channels)):
        raise CheckpointError(f"header fields 'norm_mean' and 'norm_std' hold {len(mean)} "
                              f"and {len(std)} values, expected both 0 or both "
                              f"{channels} (one per input channel)")
    return spec, manifest, meta


def _unpack(blob: bytes, offset: int, fmt: str, name: str) -> int:
    if len(blob) < offset + struct.calcsize(fmt):
        raise CheckpointError(f"truncated {name} field at byte offset {offset}")
    return struct.unpack_from(fmt, blob, offset)[0]


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
    spec, manifest, meta = _check_header(header)
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
