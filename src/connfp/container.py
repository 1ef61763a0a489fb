"""On-disk matrix container: length-prefixed JSON header + float64 payload.

Layout: an 8-byte little-endian unsigned header length, the UTF-8 JSON
header, then the array as row-major 64-bit little-endian floats. The header
fully describes the payload (shape, dtype, byte order) plus role and
provenance metadata, and always parses before any payload byte is
interpreted. Writes are byte-deterministic: the header is serialized with
sorted keys and no timestamps. write_bytes writes every output file of the
package (container, JSON or CSV) and returns the SHA-256 of its bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from pathlib import Path

import numpy as np

from .convae import AutoencoderParams, layer_specs

FORMAT_NAME = "connfp-matrix"
FORMAT_VERSION = 1

_LEN_STRUCT = struct.Struct("<Q")
_MAX_HEADER = 16 * 1024 * 1024


class ContainerError(ValueError):
    """The file is not a well-formed matrix container."""


class ChecksumError(ContainerError):
    """The file's bytes do not hash to the SHA-256 the caller expected."""


def write_bytes(path, parts) -> str:
    """Write the byte strings or buffers of parts, in order, to a temporary
    sibling of path that then replaces path whole; on any failure the sibling
    is removed, so path never holds a partial file. Return the SHA-256 (hex)
    of the bytes as they were written."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    digest = hashlib.sha256()
    try:
        with open(tmp, "wb") as fh:
            for part in parts:
                fh.write(part)
                digest.update(part)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return digest.hexdigest()


def _encode_header(header: dict) -> bytes:
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _write(path, header: dict, arrays) -> str:
    """Write header, completed with the payload encoding, then the bytes of
    arrays (each C-contiguous little-endian float64) in order, by write_bytes
    and without copying them."""
    blob = _encode_header({"format": FORMAT_NAME, "version": FORMAT_VERSION, "dtype": "float64",
                           "byte_order": "little", "order": "C", **header})
    return write_bytes(path, [_LEN_STRUCT.pack(len(blob)), blob, *arrays])


def write_matrix(path, matrix, role: str, subject=None, session=None, seed=None, extra=None):
    """Write one float64 array, of any shape (0-d too), with its describing
    header by write_bytes, and return the SHA-256 (hex) of the bytes written."""
    arr = np.asarray(matrix, dtype="<f8", order="C")
    return _write(path, {"shape": [int(s) for s in arr.shape], "role": str(role),
                         "subject": subject, "session": session, "seed": seed,
                         **(extra or {})}, [arr])


def _header_length(path, prefix: bytes) -> int:
    if len(prefix) != _LEN_STRUCT.size:
        raise ContainerError(f"{path}: truncated before the header length")
    (length,) = _LEN_STRUCT.unpack(prefix)
    if length == 0 or length > _MAX_HEADER:
        raise ContainerError(f"{path}: implausible header length {length}")
    return length


def _parse_header(path, blob: bytes, length: int) -> dict:
    """Validate the ``length`` header bytes ``blob`` read after the prefix."""
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


def read_header(path) -> dict:
    """Parse and validate only the header; payload bytes stay unread."""
    with open(path, "rb") as fh:
        length = _header_length(path, fh.read(_LEN_STRUCT.size))
        return _parse_header(path, fh.read(length), length)


def read_matrix(path, sha256=None):
    """Read (array, header) with one read of the file; the payload length
    must match the declared shape. With ``sha256`` (hex), the bytes read must
    hash to it before any of them is parsed, else ChecksumError."""
    with open(path, "rb") as fh:
        data = fh.read()
    if sha256 is not None and hashlib.sha256(data).hexdigest() != sha256:
        raise ChecksumError(f"{path}: does not match SHA-256 {sha256!r}")
    length = _header_length(path, data[: _LEN_STRUCT.size])
    start = _LEN_STRUCT.size + length
    header = _parse_header(path, data[_LEN_STRUCT.size : start], length)
    shape = tuple(header["shape"])
    count = int(np.prod(shape, dtype=np.int64)) if shape else 1
    if len(data) - start != count * 8:
        raise ContainerError(
            f"{path}: payload holds {len(data) - start} bytes but shape {shape} needs {count * 8}"
        )
    arr = np.frombuffer(data, dtype="<f8", count=count, offset=start)
    return arr.reshape(shape).astype(np.float64), header


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# autoencoder parameters: written for the record, never read back


def write_autoencoder(path, params: AutoencoderParams, seed=None) -> str:
    """Write every tensor, in canonical order, as one payload vector, without
    concatenating them, and return the SHA-256 (hex) of the bytes written; the
    header's architecture block gives the input size and, from
    convae.layer_specs, each layer's kind, weight shape, activation and (conv
    kinds) stride in that order, which is all convae needs to rebuild the net.
    No reader exists: no command loads the file back."""
    spec = {"input_size": params.input_size, "layers": layer_specs(params)}
    return _write(path, {"shape": [params.n_parameters()], "role": "autoencoder_params",
                         "subject": None, "session": None, "seed": seed, "architecture": spec},
                  [np.ascontiguousarray(a, dtype="<f8") for a in params.arrays()])
