"""On-disk matrix container: length-prefixed JSON header + float64 payload.

Layout: an 8-byte little-endian unsigned header length, the UTF-8 JSON
header, then the array as row-major 64-bit little-endian floats. The header
fully describes the payload (shape, dtype, byte order) plus role and
provenance metadata, and always parses before any payload byte is
interpreted. Writes are byte-deterministic: the header is serialized with
sorted keys and no timestamps.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .convae import AutoencoderParams, ConvLayer, DeconvLayer, DenseLayer

FORMAT_NAME = "connfp-matrix"
FORMAT_VERSION = 1

_LEN_STRUCT = struct.Struct("<Q")
_MAX_HEADER = 16 * 1024 * 1024


class ContainerError(ValueError):
    """The file is not a well-formed matrix container."""


@contextmanager
def atomic_open(path, mode: str = "wb", **kwargs):
    """Open a temporary sibling of path for writing; when the block ends it
    replaces path, and when the block or the replace fails it is removed, so
    path never holds a partial file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _encode_header(header: dict) -> bytes:
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")


def write_matrix(path, matrix, role: str, subject=None, session=None, seed=None, extra=None):
    """Write one float64 array with its describing header, atomically."""
    arr = np.ascontiguousarray(np.asarray(matrix, dtype=np.float64))
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "shape": [int(s) for s in arr.shape],
        "dtype": "float64",
        "byte_order": "little",
        "order": "C",
        "role": str(role),
        "subject": subject,
        "session": session,
        "seed": seed,
    }
    if extra:
        for key, value in extra.items():
            header[key] = value
    blob = _encode_header(header)
    with atomic_open(path, "wb") as fh:
        fh.write(_LEN_STRUCT.pack(len(blob)))
        fh.write(blob)
        fh.write(arr.astype("<f8", copy=False).tobytes(order="C"))
    return header


def read_header(path) -> dict:
    """Parse and validate only the header; payload bytes stay untouched."""
    with open(path, "rb") as fh:
        prefix = fh.read(_LEN_STRUCT.size)
        if len(prefix) != _LEN_STRUCT.size:
            raise ContainerError(f"{path}: truncated before the header length")
        (length,) = _LEN_STRUCT.unpack(prefix)
        if length == 0 or length > _MAX_HEADER:
            raise ContainerError(f"{path}: implausible header length {length}")
        blob = fh.read(length)
    if len(blob) != length:
        raise ContainerError(f"{path}: truncated header")
    try:
        header = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ContainerError(f"{path}: header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise ContainerError(f"{path}: header is not a JSON object")
    if header.get("format") != FORMAT_NAME:
        raise ContainerError(f"{path}: unknown format {header.get('format')!r}")
    if header.get("version") != FORMAT_VERSION:
        raise ContainerError(f"{path}: unsupported version {header.get('version')!r}")
    if (header.get("dtype"), header.get("byte_order"), header.get("order", "C")) != (
        "float64", "little", "C"
    ):
        raise ContainerError(f"{path}: unsupported payload encoding")
    shape = header.get("shape")
    if not isinstance(shape, list) or any(
        not isinstance(s, int) or isinstance(s, bool) or s < 0 for s in shape
    ):
        raise ContainerError(f"{path}: malformed shape {shape!r}")
    return header


def read_matrix(path):
    """Read (array, header); the payload length must match the declared shape."""
    header = read_header(path)
    shape = tuple(header["shape"])
    count = int(np.prod(shape, dtype=np.int64)) if shape else 1
    with open(path, "rb") as fh:
        (length,) = _LEN_STRUCT.unpack(fh.read(_LEN_STRUCT.size))
        fh.seek(_LEN_STRUCT.size + length)
        payload = fh.read()
    if len(payload) != count * 8:
        raise ContainerError(
            f"{path}: payload holds {len(payload)} bytes but shape {shape} needs {count * 8}"
        )
    arr = np.frombuffer(payload, dtype="<f8").reshape(shape).astype(np.float64)
    return arr, header


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# autoencoder parameters: written for the record, never read back


_KIND = {ConvLayer: "conv", DeconvLayer: "deconv", DenseLayer: "dense"}


def _layer_spec(layer) -> dict:
    spec = {"kind": _KIND[type(layer)], "weight_shape": list(layer.weight.shape),
            "activation": layer.activation}
    if not isinstance(layer, DenseLayer):
        spec["stride"] = layer.stride
    return spec


def write_autoencoder(path, params: AutoencoderParams, seed=None):
    """Flatten every tensor (canonical order) into one payload vector; the
    header's architecture block gives the input size and each layer's kind,
    weight shape, activation and (conv kinds) stride in that order, which is
    all convae needs to rebuild the net. No reader exists: no command loads
    the file back."""
    flat = np.concatenate([a.ravel() for a in params.arrays()])
    spec = {
        "input_size": params.input_size,
        "layers": [_layer_spec(l) for l in params._layers()],
    }
    return write_matrix(path, flat, role="autoencoder_params", seed=seed,
                        extra={"architecture": spec})
