"""Matrix container format: round trips, byte determinism, corruption handling.

The layout is checked byte by byte against a struct/json re-implementation so
the writer cannot drift from the documented format.
"""

import json
import struct

import numpy as np
import pytest

from connfp import ArchitectureConfig, build_params, forward
from connfp.container import (
    ContainerError,
    read_autoencoder,
    read_header,
    read_matrix,
    sha256_file,
    write_autoencoder,
    write_matrix,
)
from connfp.rng import substream


def sample_matrix(seed=0, shape=(4, 5)):
    return substream(seed, 401).standard_normal(shape)


# -------------------------------------------------------------- round trip


def test_matrix_round_trip_preserves_payload_and_header(tmp_path):
    path = tmp_path / "m.bin"
    arr = sample_matrix()
    write_matrix(path, arr, role="connectome", subject="sub003", session="rest", seed=7)
    back, header = read_matrix(path)
    np.testing.assert_array_equal(back, arr)
    assert header["role"] == "connectome"
    assert header["subject"] == "sub003"
    assert header["session"] == "rest"
    assert header["seed"] == 7
    assert header["shape"] == [4, 5]


def test_write_read_write_is_byte_identical(tmp_path):
    p1 = tmp_path / "a.bin"
    p2 = tmp_path / "b.bin"
    arr = sample_matrix(1)
    write_matrix(p1, arr, role="x", subject="s", session="rest", seed=3)
    back, header = read_matrix(p1)
    write_matrix(
        p2, back, role=header["role"], subject=header["subject"],
        session=header["session"], seed=header["seed"],
    )
    assert p1.read_bytes() == p2.read_bytes()
    assert sha256_file(p1) == sha256_file(p2)


def test_rewriting_same_content_gives_same_hash(tmp_path):
    p1 = tmp_path / "a.bin"
    p2 = tmp_path / "b.bin"
    write_matrix(p1, sample_matrix(2), role="x")
    write_matrix(p2, sample_matrix(2), role="x")
    assert sha256_file(p1) == sha256_file(p2)


def test_extras_survive_and_header_keys_are_sorted(tmp_path):
    path = tmp_path / "m.bin"
    write_matrix(path, sample_matrix(3), role="x", extra={"zeta": 1, "alpha": [1, 2]})
    header = read_header(path)
    assert header["zeta"] == 1 and header["alpha"] == [1, 2]
    with open(path, "rb") as fh:
        (length,) = struct.unpack("<Q", fh.read(8))
        blob = fh.read(length)
    keys = list(json.loads(blob).keys())
    assert keys == sorted(keys)


def test_payload_is_little_endian_c_order_float64(tmp_path):
    path = tmp_path / "m.bin"
    arr = np.array([[1.0, 2.0], [3.0, 4.0]])
    write_matrix(path, arr, role="x")
    raw = path.read_bytes()
    (length,) = struct.unpack("<Q", raw[:8])
    payload = raw[8 + length :]
    assert payload == struct.pack("<4d", 1.0, 2.0, 3.0, 4.0)


def test_one_dimensional_and_empty_shapes_round_trip(tmp_path):
    for arr in (np.arange(5.0), np.zeros((0, 3))):
        path = tmp_path / "v.bin"
        write_matrix(path, arr, role="edges")
        back, header = read_matrix(path)
        np.testing.assert_array_equal(back, arr)
        assert tuple(header["shape"]) == arr.shape


# -------------------------------------------------------------- corruption


def test_truncated_payload_is_detected(tmp_path):
    path = tmp_path / "m.bin"
    write_matrix(path, sample_matrix(4), role="x")
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ContainerError, match="payload"):
        read_matrix(path)
    # the header alone is still intact
    assert read_header(path)["role"] == "x"


def test_truncated_header_is_detected(tmp_path):
    path = tmp_path / "m.bin"
    write_matrix(path, sample_matrix(5), role="x")
    raw = path.read_bytes()
    path.write_bytes(raw[:12])
    with pytest.raises(ContainerError, match="truncated"):
        read_header(path)
    path.write_bytes(b"\x03")
    with pytest.raises(ContainerError, match="truncated"):
        read_header(path)


def test_corrupt_header_json_is_detected(tmp_path):
    path = tmp_path / "m.bin"
    blob = b"{not json"
    path.write_bytes(struct.pack("<Q", len(blob)) + blob)
    with pytest.raises(ContainerError, match="JSON"):
        read_header(path)


@pytest.mark.parametrize("header", [[1, 2], 3, "connfp-matrix", None])
def test_header_that_is_not_an_object_is_rejected(tmp_path, header):
    path = tmp_path / "m.bin"
    blob = json.dumps(header).encode()
    path.write_bytes(struct.pack("<Q", len(blob)) + blob)
    with pytest.raises(ContainerError, match="not a JSON object"):
        read_header(path)


def test_foreign_format_and_version_are_rejected(tmp_path):
    path = tmp_path / "m.bin"

    def write_header(header):
        blob = json.dumps(header).encode()
        path.write_bytes(struct.pack("<Q", len(blob)) + blob)

    good = {
        "format": "connfp-matrix",
        "version": 1,
        "shape": [0],
        "dtype": "float64",
        "byte_order": "little",
    }
    write_header({**good, "format": "npy"})
    with pytest.raises(ContainerError, match="format"):
        read_header(path)
    write_header({**good, "version": 2})
    with pytest.raises(ContainerError, match="version"):
        read_header(path)
    write_header({**good, "dtype": "float32"})
    with pytest.raises(ContainerError, match="encoding"):
        read_header(path)
    write_header({**good, "shape": [-1]})
    with pytest.raises(ContainerError, match="shape"):
        read_header(path)
    write_header({**good, "shape": "square"})
    with pytest.raises(ContainerError, match="shape"):
        read_header(path)
    write_header({**good, "shape": [True, 2]})
    with pytest.raises(ContainerError, match="shape"):
        read_header(path)


def test_implausible_header_length_is_rejected(tmp_path):
    path = tmp_path / "m.bin"
    path.write_bytes(struct.pack("<Q", 0) + b"xx")
    with pytest.raises(ContainerError, match="length"):
        read_header(path)
    path.write_bytes(struct.pack("<Q", 1 << 60))
    with pytest.raises(ContainerError, match="length"):
        read_header(path)


# ------------------------------------------------------------- autoencoder


def test_autoencoder_round_trip_reproduces_forward_pass(tmp_path):
    path = tmp_path / "ae.bin"
    params = build_params(ArchitectureConfig(channels=(3, 5), latent_dim=7), 9, seed=4)
    write_autoencoder(path, params, seed=4)
    loaded = read_autoencoder(path)
    assert loaded.input_size == 9 and loaded.latent_dim == 7
    for a, b in zip(params.arrays(), loaded.arrays()):
        np.testing.assert_array_equal(a, b)
    assert [a.shape for a in params.arrays()] == [a.shape for a in loaded.arrays()]
    x = sample_matrix(6, (9, 9))
    l1, r1 = forward(params, x)
    l2, r2 = forward(loaded, x)
    np.testing.assert_array_equal(l1, l2)
    np.testing.assert_array_equal(r1, r2)


def test_autoencoder_write_is_byte_deterministic(tmp_path):
    params = build_params(ArchitectureConfig(channels=(2,), latent_dim=3), 6, seed=0)
    p1 = tmp_path / "a.bin"
    p2 = tmp_path / "b.bin"
    write_autoencoder(p1, params)
    write_autoencoder(p2, read_autoencoder(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_autoencoder_stray_payload_values_are_rejected(tmp_path):
    path = tmp_path / "ae.bin"
    params = build_params(ArchitectureConfig(channels=(2,), latent_dim=3), 6, seed=1)
    header = write_autoencoder(path, params)
    raw = path.read_bytes()
    path.write_bytes(raw + struct.pack("<d", 0.25))
    with pytest.raises(ContainerError, match="payload"):
        read_autoencoder(path)
    # an honest header admitting the extra value still fails the layer walk
    flat = np.concatenate([a.ravel() for a in params.arrays()] + [np.array([0.25])])
    write_matrix(
        path, flat, role="autoencoder_params",
        extra={"architecture": {k: v for k, v in header.items()
                                if k == "architecture"}["architecture"]},
    )
    with pytest.raises(ContainerError, match="stray"):
        read_autoencoder(path)


def test_autoencoder_reader_requires_architecture(tmp_path):
    path = tmp_path / "ae.bin"
    write_matrix(path, np.zeros(3), role="autoencoder_params")
    with pytest.raises(ContainerError, match="architecture"):
        read_autoencoder(path)


def test_autoencoder_architecture_without_layers_is_rejected(tmp_path):
    path = tmp_path / "ae.bin"
    params = build_params(ArchitectureConfig(channels=(2,), latent_dim=3), 6, seed=2)
    header = write_autoencoder(path, params)
    spec = {k: v for k, v in header["architecture"].items() if k != "layers"}
    flat = np.concatenate([a.ravel() for a in params.arrays()])
    write_matrix(path, flat, role="autoencoder_params", extra={"architecture": spec})
    with pytest.raises(ContainerError, match=f"{path.name}.*layers"):
        read_autoencoder(path)


def test_autoencoder_payload_shorter_than_its_layers_is_rejected(tmp_path):
    path = tmp_path / "ae.bin"
    params = build_params(ArchitectureConfig(channels=(2,), latent_dim=3), 6, seed=3)
    header = write_autoencoder(path, params)
    flat = np.concatenate([a.ravel() for a in params.arrays()])
    write_matrix(path, flat[:-1], role="autoencoder_params",
                 extra={"architecture": header["architecture"]})
    with pytest.raises(ContainerError, match=f"{path.name}.*fewer than its layers need"):
        read_autoencoder(path)
