"""Matrix container format: round trips, byte determinism, corruption handling.

The layout is checked byte by byte against a struct/json re-implementation so
the writer cannot drift from the documented format.
"""

import json
import struct
import tracemalloc

import numpy as np
import pytest

from connfp import (
    ArchitectureConfig,
    AutoencoderParams,
    Layer,
    build_params,
    residual,
)
from connfp.container import (
    ChecksumError,
    ContainerError,
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


def test_write_returns_the_sha256_of_the_bytes_it_wrote(tmp_path):
    path = tmp_path / "a.bin"
    assert write_matrix(path, sample_matrix(3), role="x", seed=1) == sha256_file(path)


def test_read_checks_the_sha256_of_the_bytes_it_parses(tmp_path):
    path = tmp_path / "a.bin"
    digest = write_matrix(path, sample_matrix(4), role="x")
    back, _ = read_matrix(path, sha256=digest)
    np.testing.assert_array_equal(back, sample_matrix(4))
    # a wrong digest is reported before the bytes are parsed, even bytes
    # that are no container at all
    path.write_bytes(b"\x00" * 3)
    with pytest.raises(ChecksumError, match="SHA-256"):
        read_matrix(path, sha256=digest)
    with pytest.raises(ContainerError, match="truncated"):
        read_matrix(path)


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
    # a 0-d value keeps its shape
    path = tmp_path / "s.bin"
    write_matrix(path, np.float64(2.5), role="x")
    back, header = read_matrix(path)
    assert back.shape == () and back == 2.5 and header["shape"] == []


def test_written_bytes_match_pinned_digests(tmp_path):
    """The format fixes every byte: pinned SHA-256 of a matrix read through a
    transposed view, a 0-d value and an autoencoder with nonzero biases."""
    m = np.arange(12.0).reshape(3, 4) / 7
    assert write_matrix(tmp_path / "m.bin", m.T, role="edges", subject="sub001",
                        session="rest", seed=5, extra={"K": 3}) == (
        "cb95618fff45ea69c5d49c85de34eb62cb609e8fe2ebd1028b60705e21669181")
    assert write_matrix(tmp_path / "s.bin", np.float64(2.5), role="x") == (
        "1b8b366cfd608e363f2e81b4814f1709ab8cf63572135af6930e7d2a07c61db0")
    params = build_params(ArchitectureConfig(channels=(3, 5), latent_dim=7), 9, seed=4)
    rng = substream(9, 402)
    for layer in params._layers():
        layer.bias = rng.standard_normal(layer.bias.shape)
    digest = write_autoencoder(tmp_path / "ae.bin", params, seed=4)
    assert digest == sha256_file(tmp_path / "ae.bin") == (
        "78a19e6ca789692d20c5fe712b334004329f8c3538018b1e561b8baa59a730e0")


def traced_write_peak(write) -> int:
    """Traced peak bytes of one call of write, after a first call."""
    write()
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writes_copy_no_payload(tmp_path):
    matrix = sample_matrix(5, (512, 1024))  # 4 MiB
    peak = traced_write_peak(lambda: write_matrix(tmp_path / "m.bin", matrix, role="x"))
    assert peak < 0.1 * matrix.nbytes
    params = build_params(ArchitectureConfig(), 88, seed=0)
    assert params.n_parameters() > 1_000_000
    peak = traced_write_peak(lambda: write_autoencoder(tmp_path / "ae.bin", params, seed=1))
    assert peak < 0.1 * 8 * params.n_parameters()


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


def test_autoencoder_write_is_byte_deterministic(tmp_path):
    params = build_params(ArchitectureConfig(channels=(2,), latent_dim=3), 6, seed=0)
    p1 = tmp_path / "a.bin"
    p2 = tmp_path / "b.bin"
    write_autoencoder(p1, params)
    write_autoencoder(p2, params)
    assert p1.read_bytes() == p2.read_bytes()


def test_autoencoder_payload_is_every_array_in_forward_order(tmp_path):
    path = tmp_path / "ae.bin"
    params = build_params(ArchitectureConfig(channels=(3, 5), latent_dim=7), 9, seed=4)
    write_autoencoder(path, params, seed=4)
    flat, header = read_matrix(path)
    np.testing.assert_array_equal(flat, np.concatenate([a.ravel() for a in params.arrays()]))
    assert header["role"] == "autoencoder_params" and header["seed"] == 4


def test_autoencoder_header_describes_each_layer(tmp_path):
    path = tmp_path / "ae.bin"
    params = build_params(ArchitectureConfig(channels=(3, 5), latent_dim=7), 9, seed=4)
    write_autoencoder(path, params)
    spec = read_header(path)["architecture"]
    # a layer's kind is its slot in params
    assert [(l["kind"], l["weight_shape"]) for l in spec["layers"]] == [
        (kind, list(l.weight.shape)) for l, kind in zip(params._layers(), params._kinds())
    ]
    assert [l["kind"] for l in spec["layers"]] == ["conv"] * 2 + ["dense"] * 2 + ["deconv"] * 2
    # every net's structure: stride 2 and tanh, but a linear last layer
    assert [(l["activation"], l.get("stride")) for l in spec["layers"]] == [
        ("tanh", 2)] * 2 + [("tanh", None)] * 2 + [("tanh", 2), ("linear", 2)]
    assert spec["input_size"] == 9


def rebuild_autoencoder(path):
    """The network of a saved autoencoder, from the file alone: the header's
    input size and each layer's kind and weight shape, with the payload split
    in layer order, weight then bias. Each layer's kind follows from its
    position, as in the params: the convs, two dense layers, then as many
    transposed convs as convs; the header's kinds must say the same. Stride
    and activations are every net's structure, which the header records
    too."""
    flat, header = read_matrix(path)
    spec = header["architecture"]
    n_convs = (len(spec["layers"]) - 2) // 2
    kinds = ["conv"] * n_convs + ["dense"] * 2 + ["deconv"] * n_convs
    assert [entry["kind"] for entry in spec["layers"]] == kinds
    layers, offset = [], 0
    for entry, kind in zip(spec["layers"], kinds):
        shape = tuple(entry["weight_shape"])
        # a transposed conv's weight is (c_in, c_out, k, k); every other is (out, ...)
        n_weight, n_bias = int(np.prod(shape)), shape[1 if kind == "deconv" else 0]
        weight = flat[offset : offset + n_weight].reshape(shape)
        bias = flat[offset + n_weight : offset + n_weight + n_bias]
        offset += n_weight + n_bias
        layers.append(Layer(weight, bias))
    assert offset == flat.size
    return AutoencoderParams(
        input_size=spec["input_size"],
        enc_convs=layers[:n_convs],
        enc_dense=layers[n_convs],
        dec_dense=layers[n_convs + 1],
        dec_deconvs=layers[n_convs + 2 :],
    )


@pytest.mark.parametrize("p", [7, 9, 32])
def test_autoencoder_file_alone_rebuilds_the_network(tmp_path, p):
    params = build_params(ArchitectureConfig(channels=(3, 5), latent_dim=7), p, seed=p)
    rng = substream(p, 402)
    # build_params starts every bias at zero; nonzero ones check the payload split
    for layer in params._layers():
        layer.bias = rng.standard_normal(layer.bias.shape)
    path = tmp_path / "ae.bin"
    write_autoencoder(path, params)
    rebuilt = rebuild_autoencoder(path)
    batch = rng.standard_normal((4, p, p))
    assert np.array_equal(residual(batch, rebuilt, 4), residual(batch, params, 4))
