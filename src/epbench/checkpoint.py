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

from .model import ModelSpec, Params, param_shapes, spec_from_dict

MAGIC = b"EPBN"
VERSION = 1
MODEL_KINDS = ("ep", "bp", "adv")


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
    tensors = [(name, np.ascontiguousarray(t, dtype="<f4"))
               for name, t in ckpt.params.tensors()]
    header = {
        "spec": asdict(ckpt.spec),  # tuples serialize as JSON lists
        "model_kind": ckpt.model_kind,
        "seed": ckpt.seed,
        "train_config": ckpt.train_config,
        "norm_mean": [float(v) for v in ckpt.norm_mean],
        "norm_std": [float(v) for v in ckpt.norm_std],
        "convergence_step": ckpt.convergence_step,
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
    try:
        spec = spec_from_dict(header["spec"])
        manifest = [(str(e["name"]), tuple(int(d) for d in e["shape"]))
                    for e in header["tensors"]]
        meta = {k: header[k] for k in ("model_kind", "seed", "train_config", "norm_mean",
                                       "norm_std", "convergence_step")}
    except KeyError as exc:
        raise CheckpointError(f"header field {exc.args[0]!r} missing") from None
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"bad header field: {exc}") from None
    if meta["model_kind"] not in MODEL_KINDS:
        raise CheckpointError(f"header field 'model_kind' is {meta['model_kind']!r}, "
                              f"expected one of {', '.join(MODEL_KINDS)}")
    expected = param_shapes(spec)
    if manifest != expected:
        raise CheckpointError("tensor manifest does not match the spec: expected "
                              f"{_listing(expected)}; found {_listing(manifest)}")
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
