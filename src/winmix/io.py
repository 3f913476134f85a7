"""Binary file formats: WMIX checkpoints and WDAT image datasets.

Both formats are little-endian and must round-trip bit-exactly. Writes are
atomic: a failed save leaves the previous file intact (see ``_write_atomic``).

WMIX checkpoint::

    magic "WMIX" | u32 version | u32 json_len | config JSON (UTF-8)
    repeated tensor records until EOF:
        u32 name_len | name (UTF-8) | u8 dtype (0=f32, 1=f64) | u8 rank
        u64 dims[rank] | raw row-major data

WDAT dataset::

    magic "WDAT" | u32 count | u16 height | u16 width | u16 channels
    u8 pixels[count*h*w*c] | u16 labels[count]
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
import typing
from pathlib import Path

import numpy as np

__all__ = [
    "CheckpointError",
    "save_checkpoint",
    "load_checkpoint",
    "save_wdat",
    "load_wdat",
]

_WMIX_MAGIC = b"WMIX"
_WMIX_VERSION = 1
_WDAT_MAGIC = b"WDAT"

_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: np.dtype(np.float32), 1: np.dtype(np.float64)}


class CheckpointError(IOError):
    """Malformed or mismatched checkpoint/dataset file."""


def dataclass_from_dict(cls, d, what: str, error: type[Exception] = ValueError,
                        retired: dict | None = None):
    """Build the dataclass ``cls`` from a decoded JSON object.

    A value that is not an object, an object with keys that are not fields
    of ``cls`` or without a field that has no default, or a value that does
    not fit its field's type raises ``error`` naming ``what`` and the keys.
    A JSON int fits a float field; a JSON bool fits only a bool field; a
    list fits a tuple field. ``retired`` maps each former field to the one
    value it now stands for: that key is dropped when its value fits the
    old value's type and equals it, and raises ``error`` naming it otherwise.
    """
    if not isinstance(d, dict):
        raise error(f"{what} must be a JSON object, got {type(d).__name__}")
    for key, old in (retired or {}).items():
        if key in d and not (_fits(d[key], type(old)) and d[key] == old):
            raise error(f"retired {what} field {key!r} must be {json.dumps(old)}, "
                        f"got {type(d[key]).__name__} {d[key]!r}")
    d = {k: v for k, v in d.items() if k not in (retired or {})}
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(d) - set(fields)
    if unknown:
        raise error(f"unknown {what} fields: {sorted(unknown)}")
    missing = [k for k, f in fields.items() if k not in d and f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING]
    if missing:
        raise error(f"missing {what} fields: {missing}")
    hints = typing.get_type_hints(cls)
    for key, value in d.items():
        if not _fits(value, hints[key]):
            raise error(f"{what} field {key!r} must be {fields[key].type}, "
                        f"got {type(value).__name__} {value!r}")
    return cls(**d)


def _fits(value, tp) -> bool:
    """Whether a decoded JSON value fits the field type ``tp``."""
    if isinstance(value, bool):
        return tp is bool or bool in typing.get_args(tp)
    if tp is float and isinstance(value, int):
        return True
    if typing.get_origin(tp) is tuple:
        return isinstance(value, (list, tuple)) and all(
            _fits(v, t) for v, t in zip(value, typing.get_args(tp)))
    if typing.get_origin(tp) is list:
        return isinstance(value, list) and all(_fits(v, typing.get_args(tp)[0]) for v in value)
    args = typing.get_args(tp)
    if args:  # a union such as ``float | None``
        return any(_fits(value, t) for t in args)
    return isinstance(value, tp)


def _write_atomic(path, chunks) -> None:
    """Write the byte ``chunks`` to ``<path>.tmp``, fsync it and move it onto
    ``path``; on failure remove it, so ``path`` is never half-written."""
    tmp = Path(f"{os.fspath(path)}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.writelines(chunks)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(path, config: dict, tensors: dict[str, np.ndarray]) -> None:
    """Write a WMIX file: a JSON config blob plus named tensor records."""
    blob = json.dumps(config, sort_keys=True).encode("utf-8")

    def chunks():
        yield _WMIX_MAGIC + struct.pack("<II", _WMIX_VERSION, len(blob)) + blob
        for name, arr in tensors.items():
            arr = np.ascontiguousarray(arr)
            if arr.dtype not in _DTYPE_CODES:
                raise CheckpointError(f"tensor {name!r} has unsupported dtype {arr.dtype}")
            enc = name.encode("utf-8")
            yield struct.pack("<I", len(enc)) + enc + struct.pack(
                f"<BB{arr.ndim}Q", _DTYPE_CODES[arr.dtype], arr.ndim, *arr.shape)
            yield arr.tobytes()

    _write_atomic(path, chunks())


class _Reader:
    """A file's bytes after its magic, read front to back by ``take``, which
    raises CheckpointError naming what was cut and its byte offset."""

    def __init__(self, path, magic: bytes):
        self.path, self.raw, self.off = path, Path(path).read_bytes(), len(magic)
        if self.raw[:len(magic)] != magic:
            raise CheckpointError(f"{path}: not a {magic.decode()} file")

    def left(self) -> int:
        return len(self.raw) - self.off

    def take(self, n: int, what: str) -> bytes:
        if n > self.left():
            raise CheckpointError(f"{self.path}: truncated {what} at byte {self.off} "
                                  f"(needs {n}, file has {len(self.raw)})")
        self.off += n
        return self.raw[self.off - n:self.off]

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a WMIX file back into (config dict, ordered name -> array).

    A truncated or garbled header, config blob or tensor record, or a second
    record of one name, raises CheckpointError naming the byte offset. A
    file cut exactly on a record boundary still parses, as a file with
    fewer records; v1 has no checksum to tell the two apart, so
    ``load_model`` and ``load_state`` check the records against the
    config's ``table_shapes``.
    """
    r = _Reader(path, _WMIX_MAGIC)
    version, json_len = r.unpack("<II", "header")
    if version != _WMIX_VERSION:
        raise CheckpointError(f"{path}: unsupported WMIX version {version}")
    blob = r.take(json_len, "config blob")
    try:
        config = json.loads(blob.decode("utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise CheckpointError(f"{path}: unreadable config blob: {exc}") from None
    if not isinstance(config, dict):
        raise CheckpointError(f"{path}: config blob is not a JSON object")
    tensors: dict[str, np.ndarray] = {}
    while r.left():
        start = r.off
        (name_len,) = r.unpack("<I", "record header")
        head = r.take(name_len + 2, "record header")
        try:
            name = head[:name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: garbled tensor name at byte {start + 4}") from None
        if name in tensors:
            raise CheckpointError(f"{path}: duplicate tensor record {name!r} at byte {start}")
        code, rank = head[name_len:]
        if code not in _CODE_DTYPES:
            raise CheckpointError(f"{path}: bad dtype code {code} for tensor {name!r}")
        dims = r.unpack(f"<{rank}Q", f"dims of tensor {name!r}")
        dtype = _CODE_DTYPES[code]
        data = r.take(math.prod(dims) * dtype.itemsize, f"data of tensor {name!r}")
        tensors[name] = np.frombuffer(data, dtype.newbyteorder("<")).astype(dtype).reshape(dims)
    return config, tensors


def save_wdat(path, images: np.ndarray, labels: np.ndarray) -> None:
    """Write a WDAT dataset: u8 images (N, H, W, C) with u16 labels (N,).
    Other image dtypes, labels of a non-integer dtype (float, bool) and labels
    outside [0, 65535], which the file's fields would cast without a word,
    raise CheckpointError before any write."""
    if images.ndim != 4:
        raise CheckpointError(f"images must be (N, H, W, C), got {images.shape}")
    if images.dtype != np.uint8:
        raise CheckpointError(f"images must be uint8, got {images.dtype}")
    n, h, w, c = images.shape
    if labels.shape != (n,):
        raise CheckpointError(f"labels shape {labels.shape} != ({n},)")
    if not np.issubdtype(labels.dtype, np.integer):
        raise CheckpointError(f"labels must be integers, got {labels.dtype}")
    bad = labels[(labels < 0) | (labels > 0xFFFF)]
    if bad.size:
        raise CheckpointError(f"label {bad[0]} outside the u16 range [0, 65535]")
    px = np.ascontiguousarray(images)
    lb = np.ascontiguousarray(labels, dtype="<u2")
    _write_atomic(path, [_WDAT_MAGIC, struct.pack("<IHHH", n, h, w, c), px.tobytes(), lb.tobytes()])


def load_wdat(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a WDAT dataset into float32 images in [0, 1] and int64 labels.

    A short header, a truncated block or bytes after the labels raise
    CheckpointError.
    """
    r = _Reader(path, _WDAT_MAGIC)
    n, h, w, c = r.unpack("<IHHH", "header")
    px = np.frombuffer(r.take(n * h * w * c, "pixel block"), dtype=np.uint8)
    lb = np.frombuffer(r.take(2 * n, "label block"), dtype="<u2")
    if r.left():
        raise CheckpointError(f"{path}: {r.left()} trailing bytes after the label block")
    images = (px.reshape(n, h, w, c).astype(np.float32)) / 255.0
    return images, lb.astype(np.int64)
