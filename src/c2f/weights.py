"""Model weights container.

Byte layout, little-endian throughout:

    magic "C2FW" | version u16 | n_main u32 | c_y u32 | c_z u32 |
    main_depth u32 | lambda_tag u16 | distortion u8 (0 mse, 1 msssim) |
    n_records u32 | records...

    record: name_len u16 | name utf-8 | ndim u8 | dims u32 * ndim |
            raw little-endian float32 values

main_depth is always MAIN_DEPTH (4) and every channel count is >= 1; a
header with other values is refused as malformed, as is a record that
holds a NaN or an infinity, or whose name appears twice.  Records are
sorted by name, so serialization is canonical: the model id that binds
bitstreams to weights is the sha-256 of this serialization, and for a
file written by save_model it equals the digest of the file bytes.
Checkpoints reuse the same record format with extra "opt.*" and "meta.*"
records appended; those are excluded from the model id.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import weakref
from pathlib import Path

import numpy as np

from .autodiff import Adam
from .errors import FormatError
from .transforms import MAIN_DEPTH, ArchConfig, CodecModel

MAGIC = b"C2FW"
VERSION = 1
_HEAD_FMT = "<4sHIIIIHBI"
_DISTORTION = {"mse": 0, "msssim": 1}
_DISTORTION_INV = {v: k for k, v in _DISTORTION.items()}


def model_chunks(model: CodecModel, extra: dict[str, np.ndarray] | None = None):
    """The serialization, piece by piece: the header, then each record's
    header bytes and a view of its little-endian float32 values."""
    params = sorted((name, t.data) for name, t in model.named_params().items())
    if extra:
        params += sorted(extra.items())
    yield struct.pack(
        _HEAD_FMT, MAGIC, VERSION,
        model.arch.n_main, model.arch.c_y, model.arch.c_z, MAIN_DEPTH,
        model.lambda_tag, _DISTORTION[model.distortion], len(params))
    for name, arr in params:
        raw = name.encode("utf-8")
        arr = np.ascontiguousarray(arr, dtype="<f4")
        yield struct.pack(f"<H{len(raw)}sB{arr.ndim}I", len(raw), raw, arr.ndim, *arr.shape)
        yield memoryview(arr).cast("B")


def model_bytes(model: CodecModel, extra: dict[str, np.ndarray] | None = None) -> bytes:
    return b"".join(model_chunks(model, extra))


def _sha256(chunks, fh=None) -> bytes:
    """The sha-256 of the chunks, each also written to fh if one is given."""
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
        if fh is not None:
            fh.write(chunk)
    return digest.digest()


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
        return _sha256(model_chunks(model))
    if entry[1] is None:
        entry[1] = _sha256(model_chunks(model))
    return entry[1]


def save_model(model: CodecModel, path) -> bytes:
    with open(path, "wb") as fh:
        return _sha256(model_chunks(model), fh)


def _parse(fh, size: int):
    """The header of a weights file of `size` bytes open as fh, and the
    (dims, offset) of each record's values by name.  Only the record
    headers are read, so a record's size is checked against the file's
    before anything is allocated for it."""
    head_size = struct.calcsize(_HEAD_FMT)
    if size < head_size:
        raise FormatError("weights file shorter than its header")
    (magic, version, n_main, c_y, c_z, main_depth,
     lambda_tag, distortion, n_records) = struct.unpack(_HEAD_FMT, fh.read(head_size))
    if magic != MAGIC:
        raise FormatError(f"bad weights magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"weights version {version}, expected {VERSION}")
    if distortion not in _DISTORTION_INV:
        raise FormatError(f"unknown distortion flag {distortion}")
    if main_depth != MAIN_DEPTH:
        raise FormatError(f"main_depth {main_depth}, expected {MAIN_DEPTH}")
    if min(n_main, c_y, c_z) < 1:
        raise FormatError(f"channel counts must be >= 1, got {n_main}/{c_y}/{c_z}")
    pos = head_size
    index: dict[str, tuple[tuple[int, ...], int]] = {}
    for _ in range(n_records):
        try:
            (name_len,) = struct.unpack("<H", fh.read(2))
            name = fh.read(name_len).decode("utf-8")
            (ndim,) = struct.unpack("<B", fh.read(1))
            dims = struct.unpack(f"<{ndim}I", fh.read(4 * ndim))
            pos += 3 + name_len + 4 * ndim
            if 0 in dims:  # no parameter is empty
                raise FormatError(f"record {name!r} has an empty dimension")
            count = math.prod(dims)  # a Python int: no int64 wrap-around
            if 4 * count > size - pos:
                raise FormatError(f"record {name!r} truncated")
        except struct.error as exc:
            raise FormatError(f"weights records truncated: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise FormatError(f"weights record name is not UTF-8: {exc}") from exc
        if name in index:
            raise FormatError(f"record {name!r} appears twice")
        index[name] = dims, pos
        pos += 4 * count
        fh.seek(pos)
    if pos != size:
        raise FormatError(f"{size - pos} trailing bytes in weights file")
    # a record sized by each channel count, checked before CodecModel
    # allocates parameters for the header's counts, so that a header cannot
    # make it allocate more than a bounded multiple of the file's size
    for name, shape in (("analysis.1.kernel", (5, 5, n_main, n_main)),
                        ("hyper_analysis_2.0.kernel", (3, 3, c_y, 2 * c_y)),
                        ("hyper_analysis_2.4.kernel", (1, 1, 4 * c_y, c_z))):
        if name not in index or index[name][0] != shape:
            raise FormatError(f"channel counts {n_main}/{c_y}/{c_z} do not fit record {name!r}")
    arch = ArchConfig(n_main=n_main, c_y=c_y, c_z=c_z)
    return arch, lambda_tag, _DISTORTION_INV[distortion], index


def _read(fh, name: str, dims: tuple[int, ...], offset: int) -> np.ndarray:
    """A record's values, read straight into an array of their own."""
    arr = np.empty(dims, dtype="<f4")
    fh.seek(offset)
    if fh.readinto(memoryview(arr).cast("B")) != arr.nbytes:
        raise FormatError(f"record {name!r} truncated")
    if not np.isfinite(arr).all():
        raise FormatError(f"record {name!r} holds a non-finite value")
    return arr


def _load(path) -> tuple[CodecModel, dict[str, np.ndarray]]:
    """The model a weights or checkpoint file holds, and all its records.

    Every parameter must be present with its exact shape.  Each record is
    read into an array of its own, and a parameter is bound to it at once,
    so a load holds the model and one record beyond it.  A FormatError
    names the file."""
    try:
        with open(path, "rb") as fh:
            arch, lambda_tag, distortion, index = _parse(fh, os.fstat(fh.fileno()).st_size)
            # drawn from nothing: every parameter is rebound to its record below
            model = CodecModel(arch, lambda_tag=lambda_tag, distortion=distortion, seed=None)
            wanted = model.named_params()
            missing = set(wanted) - set(index)
            if missing:
                raise FormatError(f"weights file missing parameters: {sorted(missing)[:4]}...")
            records = {}
            for name, (dims, offset) in index.items():
                arr = records[name] = _read(fh, name, dims, offset)
                tensor = wanted.get(name)
                if tensor is None:
                    continue
                if arr.shape != tensor.data.shape:
                    raise FormatError(f"parameter {name!r} has shape {arr.shape}, "
                                      f"expected {tensor.data.shape}")
                tensor.data = np.ascontiguousarray(arr, dtype=np.float32)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return model, records


def load_model(path) -> CodecModel:
    """The model a weights file holds.  Its parameter arrays are read-only,
    so an in-place write raises instead of going past model_digest."""
    model = _load(path)[0]
    arrays = [t.data for t in model.named_params().values()]
    for arr in arrays:
        arr.flags.writeable = False
    _loaded[model] = [arrays, None]
    return model


def save_checkpoint(model: CodecModel, opt: Adam, step: int, path) -> None:
    extra = opt.state_arrays()
    extra["meta.step"] = np.array([step], dtype=np.float32)
    with open(path, "wb") as fh:
        fh.writelines(model_chunks(model, extra))


def load_checkpoint(path) -> tuple[CodecModel, dict[str, np.ndarray], int]:
    """The model, Adam state records and step a checkpoint holds.

    Every parameter of model.param_list(), in that order, must have its
    opt.{i}.m and .v records in the parameter's shape and a one-value
    opt.{i}.t, and meta.step must hold one value.  Each v must be >= 0,
    and each t and the step a whole number >= 0."""
    model, records = _load(path)
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
        if (not name.endswith(".m") and arr.min() < 0
                or name.endswith((".t", ".step")) and not float(arr[0]).is_integer()):
            raise FormatError(f"{path}: record {name!r} holds a value out of range")
    opt_arrays = {k: v for k, v in records.items() if k.startswith("opt.")}
    return model, opt_arrays, int(records["meta.step"][0])
