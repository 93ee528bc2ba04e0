"""Model weights container.

Byte layout, little-endian throughout:

    magic "C2FW" | version u16 | n_main u32 | c_y u32 | c_z u32 |
    main_depth u32 | lambda_tag u16 | distortion u8 (0 mse, 1 msssim) |
    n_records u32 | records...

    record: name_len u16 | name utf-8 | ndim u8 | dims u32 * ndim |
            raw little-endian float32 values

main_depth is always MAIN_DEPTH (4) and every channel count is >= 1; a
header with other values is refused as malformed.  Records are sorted by
name, so serialization is canonical: the model id that binds bitstreams
to weights is the sha-256 of this serialization, and for a file written
by save_model it equals the digest of the file bytes.  Checkpoints reuse
the same record format with extra "opt.*" and "meta.*" records appended;
those are excluded from the model id.
"""

from __future__ import annotations

import hashlib
import struct
import weakref
from pathlib import Path

import numpy as np

from .autodiff import Adam
from .errors import BadMagicError, FormatError, TruncatedFileError, VersionMismatchError
from .transforms import MAIN_DEPTH, ArchConfig, CodecModel

MAGIC = b"C2FW"
VERSION = 1
_HEAD_FMT = "<4sHIIIIHBI"
_DISTORTION = {"mse": 0, "msssim": 1}
_DISTORTION_INV = {v: k for k, v in _DISTORTION.items()}


def _pack_records(records: list[tuple[str, np.ndarray]]) -> bytes:
    out = bytearray()
    for name, arr in records:
        raw = name.encode("utf-8")
        arr = np.ascontiguousarray(arr, dtype="<f4")
        out += struct.pack("<H", len(raw)) + raw
        out += struct.pack("<B", arr.ndim)
        out += struct.pack(f"<{arr.ndim}I", *arr.shape)
        out += arr.tobytes()
    return bytes(out)


def model_bytes(model: CodecModel, extra: dict[str, np.ndarray] | None = None) -> bytes:
    params = sorted((name, t.data) for name, t in model.named_params().items())
    if extra:
        params += sorted(extra.items())
    head = struct.pack(
        _HEAD_FMT, MAGIC, VERSION,
        model.arch.n_main, model.arch.c_y, model.arch.c_z, MAIN_DEPTH,
        model.lambda_tag, _DISTORTION[model.distortion], len(params))
    return head + _pack_records(params)


# each model load_model returned -> [its read-only parameter arrays, their
# digest once model_digest has computed it]
_loaded: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def model_digest(model: CodecModel) -> bytes:
    """32-byte identity of the exact weights (canonical serialization).

    A model from load_model is hashed once, on first use: its arrays are
    read-only, so the digest holds while every parameter is bound to the
    array it was loaded with.  Any other model, fresh or in training, is
    hashed from its live weights on every call."""
    entry = _loaded.get(model)
    live = [t.data for t in model.named_params().values()]
    if entry is None or not all(
            a is b and not a.flags.writeable for a, b in zip(live, entry[0])):
        return hashlib.sha256(model_bytes(model)).digest()
    if entry[1] is None:
        entry[1] = hashlib.sha256(model_bytes(model)).digest()
    return entry[1]


def save_model(model: CodecModel, path) -> bytes:
    data = model_bytes(model)
    Path(path).write_bytes(data)
    return hashlib.sha256(data).digest()


def _parse(data: bytes):
    head_size = struct.calcsize(_HEAD_FMT)
    if len(data) < head_size:
        raise TruncatedFileError("weights file shorter than its header")
    (magic, version, n_main, c_y, c_z, main_depth,
     lambda_tag, distortion, n_records) = struct.unpack_from(_HEAD_FMT, data)
    if magic != MAGIC:
        raise BadMagicError(f"bad weights magic {magic!r}")
    if version != VERSION:
        raise VersionMismatchError(f"weights version {version}, expected {VERSION}")
    if distortion not in _DISTORTION_INV:
        raise FormatError(f"unknown distortion flag {distortion}")
    if main_depth != MAIN_DEPTH:
        raise FormatError(f"main_depth {main_depth}, expected {MAIN_DEPTH}")
    if min(n_main, c_y, c_z) < 1:
        raise FormatError(f"channel counts must be >= 1, got {n_main}/{c_y}/{c_z}")
    pos = head_size
    records: dict[str, np.ndarray] = {}
    for _ in range(n_records):
        try:
            (name_len,) = struct.unpack_from("<H", data, pos)
            pos += 2
            name = data[pos:pos + name_len].decode("utf-8")
            pos += name_len
            (ndim,) = struct.unpack_from("<B", data, pos)
            pos += 1
            dims = struct.unpack_from(f"<{ndim}I", data, pos)
            pos += 4 * ndim
            count = int(np.prod(dims, dtype=np.int64)) if ndim else 1
            raw = data[pos:pos + 4 * count]
            if len(raw) != 4 * count:
                raise TruncatedFileError(f"record {name!r} truncated")
            pos += 4 * count
        except struct.error as exc:
            raise TruncatedFileError(f"weights records truncated: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise FormatError(f"weights record name is not UTF-8: {exc}") from exc
        records[name] = np.frombuffer(raw, dtype="<f4").reshape(dims).copy()
    if pos != len(data):
        raise FormatError(f"{len(data) - pos} trailing bytes in weights file")
    arch = ArchConfig(n_main=n_main, c_y=c_y, c_z=c_z)
    return arch, lambda_tag, _DISTORTION_INV[distortion], records


def _load(data: bytes) -> tuple[CodecModel, dict[str, np.ndarray]]:
    """The model a weights or checkpoint file holds, and all its records.

    Every parameter must be present with its exact shape."""
    arch, lambda_tag, distortion, records = _parse(data)
    model = CodecModel(arch, lambda_tag=lambda_tag, distortion=distortion)
    wanted = model.named_params()
    missing = set(wanted) - set(records)
    if missing:
        raise FormatError(f"weights file missing parameters: {sorted(missing)[:4]}...")
    for name, tensor in wanted.items():
        arr = records[name]
        if arr.shape != tensor.data.shape:
            raise FormatError(
                f"parameter {name!r} has shape {arr.shape}, expected {tensor.data.shape}")
        tensor.data = np.ascontiguousarray(arr, dtype=np.float32)
    return model, records


def load_model(path) -> CodecModel:
    """The model a weights file holds.  Its parameter arrays are read-only,
    so an in-place write raises instead of going past model_digest."""
    model = _load(Path(path).read_bytes())[0]
    arrays = [t.data for t in model.named_params().values()]
    for arr in arrays:
        arr.flags.writeable = False
    _loaded[model] = [arrays, None]
    return model


def save_checkpoint(model: CodecModel, opt: Adam, step: int, path) -> None:
    extra = opt.state_arrays()
    extra["meta.step"] = np.array([step], dtype=np.float32)
    Path(path).write_bytes(model_bytes(model, extra))


def load_checkpoint(path) -> tuple[CodecModel, dict[str, np.ndarray], int]:
    """The model, Adam state records and step a checkpoint holds.

    Every parameter of model.param_list(), in that order, must have its
    opt.{i}.m and .v records in the parameter's shape and a one-value
    opt.{i}.t, and meta.step must hold one value.  Every value must be
    finite, each v >= 0, and each t and the step a whole number >= 0."""
    model, records = _load(Path(path).read_bytes())
    wanted = {"meta.step": (1,)}
    for i, param in enumerate(model.param_list()):
        wanted.update({f"opt.{i}.m": param.shape, f"opt.{i}.v": param.shape,
                       f"opt.{i}.t": (1,)})
    for name, shape in wanted.items():
        if name not in records:
            raise FormatError(f"{path}: checkpoint missing record {name!r}")
        arr = records[name]
        if arr.shape != shape:
            raise FormatError(f"{path}: record {name!r} has shape {arr.shape}, expected {shape}")
        if (not np.isfinite(arr).all() or (not name.endswith(".m") and arr.min() < 0)
                or (name.endswith((".t", ".step")) and not float(arr[0]).is_integer())):
            raise FormatError(f"{path}: record {name!r} holds a value out of range")
    opt_arrays = {k: v for k, v in records.items() if k.startswith("opt.")}
    return model, opt_arrays, int(records["meta.step"][0])
