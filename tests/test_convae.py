"""Autoencoder forward, gradients, and training.

The analytic gradients are checked against a central finite-difference
oracle and a per-sample reference; reconstruction oracles use hand-built
networks whose output can be written down in closed form. Every net, built or
hand-built, has stride-2 convs and transposed convs, and tanh after every
layer but the last, which is linear. Every entry point takes edge vectors;
the references take the p x p connectome of each (connectome_of).
"""

import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from connfp import (
    ArchitectureConfig,
    AutoencoderParams,
    ConfigurationError,
    DimensionError,
    Layer,
    TrainConfig,
    TrainingDivergenceError,
    build_params,
    forward,
    loss_and_grad,
    mat,
    pearson_fc,
    residual,
    train,
    vectorize_upper,
)
from connfp.config import config_from_dict, example_config
from connfp.connectome import n_rois
from connfp.container import read_matrix, write_autoencoder
from connfp.convae import (
    _ADAM_BLOCK,
    _LEARNING_RATE,
    _Workspace,
    _backward,
    _col2im,
    _flatten_params,
    _forward,
    _im2col,
    _loss,
    _param_views,
    _stack_inputs,
)
from connfp.rng import substream

# ---------------------------------------------------------------- oracles


def fd_gradient(params, batch, h=1e-5):
    """Central finite differences of the batch loss over every parameter."""
    arrays = params.arrays()
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        flat = a.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = loss_and_grad(params, batch)[0]
            flat[i] = keep - h
            down = loss_and_grad(params, batch)[0]
            flat[i] = keep
            gflat[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


# the stride of every conv and transposed conv of a network
STRIDE = 2


def constant_net(recon):
    """The two dense layers alone, no conv, both of weight zero: the latent is
    zero and the reconstruction is dec_dense's bias, recon, whatever the
    input."""
    n = recon.size
    return AutoencoderParams(
        input_size=len(recon),
        enc_dense=Layer(np.zeros((n, n)), np.zeros(n)),
        dec_dense=Layer(np.zeros((n, n)), recon.reshape(-1).copy()),
    )


def hand_built(p, channels, latent_dim, k=3, seed=0):
    """build_params' layout at any odd kernel size k, weights uniform in
    +-1 / sqrt(fan_in). build_params fixes k = 3; the layers and the conv
    primitives take any odd k, the layers padding by (k - 1) / 2."""
    rng = substream(seed, 209)
    chans, side = (1, *channels), p
    for _ in channels:
        side = (side + 2 * ((k - 1) // 2) - k) // STRIDE + 1

    def uniform(fan_in, shape):
        return rng.uniform(-1.0, 1.0, size=shape) / np.sqrt(fan_in)

    enc = [Layer(uniform(c_in * k * k, (c_out, c_in, k, k)), np.zeros(c_out))
           for c_in, c_out in zip(chans, chans[1:])]
    deconvs = []
    for i in reversed(range(len(channels))):
        c_in, c_out = chans[i + 1], chans[i]
        deconvs.append(Layer(uniform(c_in * k * k, (c_in, c_out, k, k)), np.zeros(c_out)))
    flat = chans[-1] * side * side
    return AutoencoderParams(
        input_size=p,
        enc_convs=enc,
        enc_dense=Layer(uniform(flat, (latent_dim, flat)), np.zeros(latent_dim)),
        dec_dense=Layer(uniform(latent_dim, (flat, latent_dim)), np.zeros(flat)),
        dec_deconvs=deconvs,
    )


def n_edges(p):
    return p * (p - 1) // 2


def random_batch(seed, n, p):
    """n random edge vectors of p x p connectomes: symmetric inputs with a
    unit diagonal."""
    return substream(seed, 201).standard_normal((n, n_edges(p)))


def connectome_of(edges):
    """The p x p input an edge vector stands for: the edges in both
    triangles, 1.0 on the diagonal."""
    m = mat(edges)
    return m + np.eye(len(m))


def reference_im2col(x, k, s, p, ho, wo):
    """Patch columns from a zero-padded copy, one strided slice per kernel tap."""
    n, c, _, _ = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    cols = np.empty((n, c, k, k, ho, wo), dtype=x.dtype)
    for a in range(k):
        for b in range(k):
            cols[:, :, a, b] = xp[:, :, a : a + s * ho : s, b : b + s * wo : s]
    return cols.reshape(n, c * k * k, ho * wo)


def reference_col2im(cols, x_shape, k, s, p, ho, wo):
    """Adjoint of reference_im2col: add each kernel tap's slice, in (a, b) order."""
    n, c, h, w = x_shape
    dxp = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=cols.dtype)
    cols = cols.reshape(n, c, k, k, ho, wo)
    for a in range(k):
        for b in range(k):
            dxp[:, :, a : a + s * ho : s, b : b + s * wo : s] += cols[:, :, a, b]
    return dxp[:, :, p : p + h, p : p + w]


def reference_forward(params, x):
    """One (p, p) sample through the network in the per-sample (c, h, w)
    layout, on the reference loops: the latent, the reconstruction and one
    (layer, kind, input, patch columns, output) record per layer, its kind
    read from its slot in params. Each layer pads by (k - 1) / 2, each
    transposed conv returns to the size its mirror conv took in, dec_dense's
    output takes enc_dense's input shape, and every layer but the last
    applies tanh."""
    z, records, sizes, s = x[None], [], [], STRIDE
    layers = params._layers()
    for layer, kind in zip(layers, params._kinds()):
        w, b, cols = layer.weight, layer.bias, None
        act = (lambda z: z) if layer is layers[-1] else np.tanh
        if kind == "dense":
            if layer is params.enc_dense:
                unflat = z.shape
            out = act(w @ z.reshape(-1) + b)
        elif kind == "conv":
            k = w.shape[2]
            pad = (k - 1) // 2
            ho = (z.shape[1] + 2 * pad - k) // s + 1
            sizes.append(z.shape[1])
            cols = reference_im2col(z[None], k, s, pad, ho, ho)[0]
            out = act((w.reshape(len(w), -1) @ cols).reshape(-1, ho, ho) + b[:, None, None])
        else:
            c_in, c_out, k, _ = w.shape
            h, ho, pad = z.shape[1], sizes.pop(), (k - 1) // 2
            img = reference_col2im((w.reshape(c_in, -1).T @ z.reshape(c_in, -1))[None],
                                   (1, c_out, ho, ho), k, s, pad, h, h)[0]
            out = act(img + b[:, None, None])
        records.append((layer, kind, z, cols, out))
        z = out.reshape(unflat) if layer is params.dec_dense else out
    # a conv-only stack reads its p*p dense outputs as the p x p reconstruction
    return records[len(params.enc_convs)][4], z.reshape(x.shape), records


def reference_loss_and_grad(params, batch):
    """loss_and_grad in float64, one sample at a time in the (c, h, w) layout,
    the gradient of each layer summed over the batch."""
    grads = [np.zeros_like(a) for a in params.arrays()]
    losses = []
    for x in map(connectome_of, batch):
        _, recon, records = reference_forward(params, x)
        losses.append(np.mean((recon - x) ** 2))
        g = (2.0 / (len(batch) * x.size) * (recon - x))[None]
        for i in reversed(range(len(records))):
            layer, kind, z, cols, out = records[i]
            w, s = layer.weight, STRIDE
            g = g.reshape(out.shape)
            if i < len(records) - 1:
                g = g * (1.0 - out * out)
            if kind == "dense":
                grads[2 * i] += np.outer(g, z.reshape(-1))
                grads[2 * i + 1] += g
                g = w.T @ g
            elif kind == "conv":
                c_out, ho, wo = g.shape
                pad = (w.shape[2] - 1) // 2
                gm = g.reshape(c_out, -1)
                grads[2 * i] += (gm @ cols.T).reshape(w.shape)
                grads[2 * i + 1] += gm.sum(axis=1)
                g = reference_col2im((w.reshape(c_out, -1).T @ gm)[None], (1, *z.shape),
                                     w.shape[2], s, pad, ho, wo)[0]
            else:
                c_in, h, _ = z.shape
                pad = (w.shape[2] - 1) // 2
                g_cols = reference_im2col(g[None], w.shape[2], s, pad, h, h)[0]
                grads[2 * i] += (z.reshape(c_in, -1) @ g_cols.T).reshape(w.shape)
                grads[2 * i + 1] += g.sum(axis=(1, 2))
                g = w.reshape(c_in, -1) @ g_cols
    return float(np.mean(losses)), grads


def reference_train(dataset, arch, cfg, seed):
    """train() written out in float32: loss_and_grad on each minibatch of the
    same shuffle stream, on float32 copies of the params and the batches,
    then the per-array moment updates with bias correction."""
    x = np.asarray(dataset).astype(np.float32)
    n, m = x.shape
    params = build_params(arch, n_rois(m), seed)
    for layer in params._layers():
        layer.weight = layer.weight.astype(np.float32)
        layer.bias = layer.bias.astype(np.float32)
    arrays = params.arrays()
    m1 = [np.zeros_like(a) for a in arrays]
    m2 = [np.zeros_like(a) for a in arrays]
    shuffle = substream(seed, 1)
    history = []
    step = 0
    for _ in range(cfg.epochs):
        order = shuffle.permutation(n)
        losses = np.empty(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, grads = loss_and_grad(params, list(x[idx]))
            losses[idx] = loss
            step += 1
            c1 = 1.0 - 0.9**step
            c2 = 1.0 - 0.999**step
            for a, g, u, v in zip(arrays, grads, m1, m2):
                u *= 0.9
                u += (1.0 - 0.9) * g
                v *= 0.999
                v += (1.0 - 0.999) * g * g
                a -= _LEARNING_RATE * (u / c1) / (np.sqrt(v / c2) + 1e-8)
        history.append(float(losses.mean()))
    return params, np.asarray(history)


# ------------------------------------------------------- forward oracles


def test_layers_hold_only_weight_and_bias():
    # a layer's kind is its slot; stride and activations are the network's
    # structure, not a layer's
    params = build_params(ArchitectureConfig(channels=(2, 3), latent_dim=4), 9, seed=0)
    assert len(params._layers()) == 6
    for layer in params._layers():
        assert type(layer) is Layer
        assert [f.name for f in fields(layer)] == ["weight", "bias"]


def test_zero_weight_network_reconstructs_zero():
    params = hand_built(7, (2, 3), 4, seed=2)
    for layer in params._layers():
        layer.weight = np.zeros_like(layer.weight)
    x = substream(2, 203).standard_normal(n_edges(7))
    latent, recon = forward(params, x)
    np.testing.assert_array_equal(latent, np.zeros(4))
    np.testing.assert_array_equal(recon, np.zeros((7, 7)))
    loss, _ = loss_and_grad(params, [x])
    # both triangles and the unit diagonal
    assert loss == pytest.approx((2.0 * float(x @ x) + 7.0) / 49.0, rel=1e-12)


def test_only_the_last_layer_is_linear():
    # zero weights: each layer outputs tanh of its bias, the last its bias
    params = hand_built(6, (2,), 3, seed=3)
    for i, layer in enumerate(params._layers()):
        layer.weight = np.zeros_like(layer.weight)
        layer.bias = np.full(layer.bias.shape, 2.0 + i)
    latent, recon = forward(params, np.ones(n_edges(6)))
    np.testing.assert_array_equal(latent, np.full(3, np.tanh(3.0)))
    np.testing.assert_array_equal(recon, np.full((6, 6), 5.0))


def test_full_architecture_latent_has_configured_dimension():
    arch = ArchitectureConfig(channels=(4, 8), latent_dim=16)
    params = build_params(arch, 8, seed=0)
    latent, recon = forward(params, np.zeros(n_edges(8)))
    assert latent.shape == (16,)
    assert recon.shape == (8, 8)
    assert params.n_parameters() == sum(a.size for a in params.arrays())
    assert [a.shape for a in params.arrays()] == [
        (4, 1, 3, 3), (4,), (8, 4, 3, 3), (8,), (16, 32), (16,),
        (32, 16), (32,), (8, 4, 3, 3), (4,), (4, 1, 3, 3), (1,),
    ]


def test_odd_input_size_round_trips_through_decoder():
    # ceil-division downsampling must invert exactly for non-powers of two
    for p in (7, 9, 13):
        params = build_params(ArchitectureConfig(channels=(3, 5), latent_dim=6), p, seed=1)
        _, recon = forward(params, np.zeros(n_edges(p)))
        assert recon.shape == (p, p)


# -------------------------------------------------------------- gradients


def test_analytic_gradients_match_finite_differences():
    strided = ArchitectureConfig(channels=(4, 8), latent_dim=16)
    nets = [build_params(strided, 8, seed=0), build_params(strided, 8, seed=1)]
    worst = 0.0
    for params, seed in zip(nets, (0, 1)):
        p = params.input_size
        batch = random_batch(seed + 10, 2, p)
        _, grads = loss_and_grad(params, batch)
        fd = fd_gradient(params, batch, h=1e-5)
        for g, f in zip(grads, fd):
            denom = np.maximum(np.maximum(np.abs(g), np.abs(f)), 1e-6)
            worst = max(worst, float(np.max(np.abs(g - f) / denom)))
    assert worst < 1e-4


def test_gradients_match_on_conv_only_stack():
    # a hand-built stack: one padded 3x3 conv with no deconvs, so the conv's
    # gradient flows straight through the two dense layers; its 4 channels of
    # 3 x 3 hold as many values as the 6 x 6 input, so dec_dense's 36 outputs
    # are the reconstruction
    rng = substream(5, 204)
    params = AutoencoderParams(
        input_size=6,
        enc_convs=[Layer(rng.standard_normal((4, 1, 3, 3)) * 0.3, np.zeros(4))],
        enc_dense=Layer(rng.standard_normal((5, 36)) * 0.2, np.zeros(5)),
        dec_dense=Layer(rng.standard_normal((36, 5)) * 0.2, np.zeros(36)),
    )
    batch = random_batch(6, 3, 6)
    loss, grads = loss_and_grad(params, batch)
    fd = fd_gradient(params, batch, h=1e-5)
    ref_loss, ref_grads = reference_loss_and_grad(params, batch)
    assert loss == pytest.approx(ref_loss, rel=1e-12)
    for g, f, r in zip(grads, fd, ref_grads):
        denom = np.maximum(np.maximum(np.abs(g), np.abs(f)), 1e-6)
        assert np.max(np.abs(g - f) / denom) < 1e-4
        np.testing.assert_allclose(g, r, rtol=1e-12, atol=1e-12 * float(np.max(np.abs(r))))


@pytest.mark.parametrize(
    "arch,p",
    [
        (ArchitectureConfig(), 32),
        (ArchitectureConfig(channels=(4, 8), latent_dim=16), 8),
        # a dict: hand_built's keyword arguments, for a geometry build_params does not make
        (dict(channels=(2, 3), latent_dim=6, k=5), 6),
        (ArchitectureConfig(channels=(3, 5), latent_dim=6), 7),
        (ArchitectureConfig(channels=(3, 5), latent_dim=6), 9),
        # k < s: the pixels between patches are read by none of them
        (dict(channels=(2, 3), latent_dim=5, k=1), 9),
    ],
)
def test_batched_passes_match_per_sample_reference(arch, p):
    if isinstance(arch, dict):
        params = hand_built(p, seed=p, **arch)
    else:
        params = build_params(arch, p, seed=p)
    batch = random_batch(p, 3, p)

    def close(actual, expected):
        atol = 1e-12 * float(np.max(np.abs(expected)))
        np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=atol)

    loss, grads = loss_and_grad(params, batch)
    ref_loss, ref_grads = reference_loss_and_grad(params, batch)
    assert loss == pytest.approx(ref_loss, rel=1e-12)
    for g, r in zip(grads, ref_grads):
        assert g.shape == r.shape
        close(g, r)
    expected = []
    for x in batch:
        latent, recon = forward(params, x)
        ref_latent, ref_recon, _ = reference_forward(params, connectome_of(x))
        close(latent, ref_latent)
        close(recon, ref_recon)
        d = connectome_of(x) - ref_recon
        expected.append(vectorize_upper((d + d.T) / 2.0))
    # residual's edges: the strict upper triangle of (R + R.T) / 2
    close(residual(batch, params, 2), np.stack(expected))


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    k=st.sampled_from([1, 3, 5]),
    s=st.integers(1, 3),
    pad_pick=st.integers(0, 2),
    n=st.sampled_from([1, 3]),
    c=st.sampled_from([1, 2]),
    size_pick=st.integers(0, 6),
    deconv=st.booleans(),
    op_pick=st.integers(0, 2),
    dtype=st.sampled_from([np.float64, np.float32]),
)
def test_patch_index_conv_primitives_match_reference_loops(
    seed, k, s, pad_pick, n, c, size_pick, deconv, op_pick, dtype
):
    pad = pad_pick % ((k - 1) // 2 + 1)
    if deconv:
        # transposed-conv geometry: a grid of ho x wo inputs spread onto an
        # image that output_padding widens past the last patch
        ho, wo = 1 + size_pick, 2 + size_pick // 2
        op = op_pick % s
        h = (ho - 1) * s - 2 * pad + k + op
        w = (wo - 1) * s - 2 * pad + k + op
    else:
        h, w = k + 2 * size_pick + 1, k + size_pick
        ho = (h + 2 * pad - k) // s + 1
        wo = (w + 2 * pad - k) // s + 1
    rng = substream(seed, 207)
    x = rng.standard_normal((n, c, h, w)).astype(dtype)
    y = rng.standard_normal((n, c * k * k, ho * wo)).astype(dtype)
    # _im2col and _col2im read guarded blocks, a zero row followed by the
    # batch-innermost rows: the (c, h, w, n) image's pixels, or the
    # (c*k*k*ho*wo, n) patch entries
    geom = (c, h, w, k, s, pad, ho, wo)
    image = np.zeros((1 + c * h * w, n), dtype=dtype)
    image[1:] = x.transpose(1, 2, 3, 0).reshape(-1, n)
    cols = _im2col(image, geom, np.empty((c * k * k * ho * wo, n), dtype=dtype))
    cols = cols.reshape(c * k * k, ho * wo, n).transpose(2, 0, 1)
    entries = np.zeros((1 + c * k * k * ho * wo, n), dtype=dtype)
    entries[1:] = y.transpose(1, 2, 0).reshape(-1, n)
    img = np.empty((c * h * w, n), dtype=dtype)
    _col2im(entries, geom, img, np.empty_like(img))
    img = img.reshape(c, h, w, n).transpose(3, 0, 1, 2)
    assert cols.dtype == img.dtype == dtype
    assert np.array_equal(cols, reference_im2col(x, k, s, pad, ho, wo))
    assert np.array_equal(img, reference_col2im(y, x.shape, k, s, pad, ho, wo))
    cols, y, x, img = (a.astype(np.float64) for a in (cols, y, x, img))
    lhs, rhs = float(np.sum(cols * y)), float(np.sum(x * img))
    if dtype == np.float64:
        tol = 1e-12 * max(1.0, abs(lhs))
    else:  # img sums up to k*k float32 terms per pixel, each add rounded
        tol = 2 * k * k * np.finfo(np.float32).eps * max(1.0, float(np.sum(np.abs(cols * y))))
    assert abs(lhs - rhs) <= tol


# ------------------------------------------------------------ determinism


def test_build_params_is_seed_deterministic():
    arch = ArchitectureConfig(channels=(4,), latent_dim=8)
    a = build_params(arch, 8, seed=3)
    b = build_params(arch, 8, seed=3)
    c = build_params(arch, 8, seed=4)
    for x, y in zip(a.arrays(), b.arrays()):
        np.testing.assert_array_equal(x, y)
    assert any(not np.array_equal(x, y) for x, y in zip(a.arrays(), c.arrays()))


def test_build_params_weights_are_float32_values():
    for arch, p, seed in (
        (ArchitectureConfig(channels=(4, 8), latent_dim=16), 8, 0),
        (ArchitectureConfig(channels=(3,), latent_dim=7), 11, 9),
    ):
        for a in build_params(arch, p, seed=seed).arrays():
            assert a.dtype == np.float64
            np.testing.assert_array_equal(a.astype(np.float32).astype(np.float64), a)


def test_forward_is_deterministic():
    params = build_params(ArchitectureConfig(channels=(4,), latent_dim=8), 8, seed=0)
    x = substream(7, 205).standard_normal(n_edges(8))
    l1, r1 = forward(params, x)
    l2, r2 = forward(params, x)
    np.testing.assert_array_equal(l1, l2)
    np.testing.assert_array_equal(r1, r2)


def test_train_is_run_to_run_deterministic():
    data = random_batch(8, 6, 8)
    arch = ArchitectureConfig(channels=(4,), latent_dim=8)
    cfg = TrainConfig(epochs=5, batch_size=4)
    p1, h1 = train(data, arch, cfg, seed=2)
    p2, h2 = train(data, arch, cfg, seed=2)
    np.testing.assert_array_equal(h1, h2)
    for x, y in zip(p1.arrays(), p2.arrays()):
        np.testing.assert_array_equal(x, y)


# --------------------------------------------------------------- training


def test_training_memorizes_small_dataset():
    rng = substream(9, 206)
    edges = [vectorize_upper(pearson_fc(rng.standard_normal((8, 60)))) for _ in range(6)]
    arch = ArchitectureConfig(channels=(4, 8), latent_dim=16)
    # at the learning rate 1e-3, 400 epochs fit the diagonal but not yet the
    # off-diagonal edges the residual check reads
    cfg = TrainConfig(epochs=1200, batch_size=3)
    params, history = train(edges, arch, cfg, seed=0)
    assert history.shape == (1200,)
    assert history[-1] < 0.1 * history[0]
    # the residual of a training connectome keeps only what the net missed
    r = residual(edges[:1], params, 3)[0]
    assert np.linalg.norm(r) < np.linalg.norm(edges[0])


def test_residual_of_a_stack_matches_one_matrix_at_a_time():
    params = build_params(ArchitectureConfig(channels=(2, 4), latent_dim=6), 9, seed=3)
    series = substream(14, 208).standard_normal((5, 9, 40))
    edges = [vectorize_upper(pearson_fc(x)) for x in series]
    batched = residual(edges, params, 2)
    assert batched.shape == (5, 36) and batched.dtype == np.float64
    for e, r in zip(edges, batched):
        single = residual([e], params, 2)[0]
        np.testing.assert_allclose(r, single, rtol=0, atol=1e-15)
    np.testing.assert_array_equal(residual(np.stack(edges), params, 2), batched)
    with pytest.raises(DimensionError):
        residual(random_batch(0, 2, 8), params, 2)
    with pytest.raises(DimensionError):
        residual(edges[0], params, 2)  # one edge vector is not a stack
    with pytest.raises(DimensionError):
        residual([pearson_fc(series[0])], params, 2)  # nor is a p x p matrix
    with pytest.raises(ValueError, match="at least one"):
        residual([], params, 2)
    with pytest.raises(ConfigurationError, match="batch_size"):
        residual(edges, params, 0)


@pytest.mark.parametrize("n", [3, 4, 11])
def test_chunked_residual_matches_each_matrix_alone(n):
    """n around the batch size of 4: one short chunk, one full chunk, and two
    full chunks plus a short one, all through one workspace."""
    params = build_params(ArchitectureConfig(channels=(2, 4), latent_dim=6), 9, seed=5)
    edges = np.stack([vectorize_upper(pearson_fc(x))
                      for x in substream(15, 209).standard_normal((n, 9, 40))])
    r = residual(edges, params, 4)
    assert r.shape == (n, 36) and r.dtype == np.float64
    for e, row in zip(edges, r):
        np.testing.assert_allclose(row, residual([e], params, 4)[0], rtol=0, atol=1e-15)
    np.testing.assert_array_equal(residual(edges, params, 4), r)


def residual_peak(params, mats, batch_size) -> int:
    """Traced peak bytes of one residual call, less the output it returns."""
    residual(mats[:batch_size], params, batch_size)  # fills the index caches
    tracemalloc.start()
    try:
        r = residual(mats, params, batch_size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - r.nbytes


def test_residual_memory_is_one_batch_of_activations():
    params = build_params(ArchitectureConfig(channels=(2, 4), latent_dim=6), 16, seed=2)
    mats = substream(16, 210).standard_normal((32, n_edges(16)))
    # the workspace and chunk buffers do not grow with n
    assert residual_peak(params, mats, 4) <= 1.5 * residual_peak(params, mats[:4], 4)


def test_different_seeds_improve_from_different_starts():
    data = random_batch(11, 6, 8)
    arch = ArchitectureConfig(channels=(4,), latent_dim=8)
    runs = [train(data, arch, TrainConfig(epochs=40, batch_size=6), seed=s) for s in (0, 1)]
    for params, history in runs:
        assert history[-1] < history[0]
    assert any(
        not np.array_equal(x, y)
        for x, y in zip(runs[0][0].arrays(), runs[1][0].arrays())
    )


def test_divergence_raises_with_epoch_index():
    # inputs this large overflow float32 on the first forward pass
    data = [1e30 * m for m in random_batch(12, 12, 8)]
    arch = ArchitectureConfig(channels=(2, 4), latent_dim=4)
    cfg = TrainConfig(epochs=4, batch_size=8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # overflow warnings are the point here
        with pytest.raises(TrainingDivergenceError) as exc:
            train(data, arch, cfg, seed=0)
    assert exc.value.epoch == 0


SMALL = ArchitectureConfig(channels=(2, 3), latent_dim=5)


@pytest.mark.parametrize(
    "arch,p,n,batch_size,epochs",
    [
        pytest.param(SMALL, 8, 5, 1, 6, id="5-1"),
        pytest.param(SMALL, 8, 7, 3, 6, id="7-3"),
        # 134,641 parameters: the update runs on two full slices of
        # _ADAM_BLOCK and a short third
        pytest.param(ArchitectureConfig(), 32, 6, 4, 2, id="default-32"),
    ],
)
def test_train_equals_per_array_moment_updates(tmp_path, arch, p, n, batch_size, epochs):
    data = random_batch(13, n, p)
    cfg = TrainConfig(epochs=epochs, batch_size=batch_size)
    params, history = train(data, arch, cfg, seed=4)
    # the small nets fit in one slice of the update, the default one does not
    assert (params.n_parameters() <= _ADAM_BLOCK) == (arch is SMALL)
    ref_params, ref_history = reference_train(data, arch, cfg, seed=4)
    for x, y in zip(params.arrays(), ref_params.arrays()):
        assert x.dtype == np.float64 and y.dtype == np.float32
        np.testing.assert_array_equal(x, y)
    if batch_size == 1:
        np.testing.assert_array_equal(history, ref_history)
    else:
        # train averages per-sample losses, the reference the batch means it
        # is given: the same numbers summed in another order
        np.testing.assert_allclose(history, ref_history, rtol=1e-14, atol=0)
    # the trained arrays share one buffer; the writer must not notice
    path = tmp_path / "ae.bin"
    write_autoencoder(path, params)
    np.testing.assert_array_equal(read_matrix(path)[0], params.arrays()[0].base)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_reused_workspace_keeps_no_stale_state(dtype):
    """Steps through one workspace, as train takes them (n = 30 at batch 16:
    full batches alternate with the 14-sample remainder, and the weights
    move between steps), equal steps through loss_and_grad, which builds a
    fresh workspace per call, bit for bit; the guard rows stay zero."""
    n, batch, p = 30, 16, 32
    params = build_params(ArchitectureConfig(), p, seed=5)
    theta = _flatten_params(params, dtype)
    data = substream(16, 210).standard_normal((n, n_edges(p))).astype(dtype)
    x = _stack_inputs(data, dtype).reshape(p * p, n)
    ws = _Workspace(params, batch, dtype, grads=True)
    buffers = [ws.x, ws.adj, ws.tmp, ws.g, *ws.out]
    for buf in buffers:
        buf[batch:] = np.nan  # whatever a step reads before writing shows
    g = np.empty_like(theta)
    order = substream(16, 211).permutation(n)
    for step in range(5):
        idx = np.roll(order, 7 * step)[16 * (step % 2) :][:batch]
        v = ws.views(len(idx))
        np.take(x, idx, axis=1, out=v.x[1:], mode="clip")
        _forward(params, v)
        loss = float(_loss(v).mean(dtype=np.float64))
        _backward(params, v, _param_views(g, params))
        fresh_loss, fresh_grads = loss_and_grad(params, list(data[idx]))
        assert loss == fresh_loss
        np.testing.assert_array_equal(g, np.concatenate([a.reshape(-1) for a in fresh_grads]))
        assert all(not buf[:batch].any() for buf in buffers)
        theta -= 0.05 * g


def test_a_workspace_step_allocates_no_arrays():
    """After the first steps, steps through the workspace allocate no array
    of a step, whatever the heap's layout, which decides whether page faults
    show it. What they trace is numpy's own iterator buffer, 8192 values
    (32 kB in float32), for broadcasting a bias over a layer's output; the
    step's arrays are 64 kB and more, but for the 4 kB latent."""
    n, batch, p = 30, 16, 32
    params = build_params(ArchitectureConfig(), p, seed=5)
    theta = _flatten_params(params, np.float32)
    x = substream(17, 215).standard_normal((p * p, n)).astype(np.float32)
    ws = _Workspace(params, batch, np.float32, grads=True)
    grads = _param_views(np.empty_like(theta), params)

    def step(idx):
        v = ws.views(len(idx))
        np.take(x, idx, axis=1, out=v.x[1:], mode="clip")
        _forward(params, v)
        _loss(v)
        _backward(params, v, grads)

    batches = [np.arange(16), np.arange(16, 30)]
    for idx in batches:
        step(idx)
    tracemalloc.start()
    try:
        for idx in batches * 2:
            step(idx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48_000


def test_train_from_float64_or_float32_inputs_is_the_same():
    # train narrows float64 inputs to float32 as it stacks them
    data = [vectorize_upper(pearson_fc(x)) for x in substream(19, 213).standard_normal((5, 8, 30))]
    arch = ArchitectureConfig(channels=(2, 3), latent_dim=5)
    cfg = TrainConfig(epochs=4, batch_size=2)
    p64, h64 = train(data, arch, cfg, seed=6)
    p32, h32 = train([e.astype(np.float32) for e in data], arch, cfg, seed=6)
    np.testing.assert_array_equal(h64, h32)
    for a, b in zip(p64.arrays(), p32.arrays()):
        np.testing.assert_array_equal(a, b)


# train in a fresh interpreter; prints the minor page faults it took
TRAIN_FAULTS = """
import resource
import sys

from connfp import ArchitectureConfig, TrainConfig, train
from connfp.rng import substream

data = substream(0, 214).standard_normal((30, 496))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
train(data, ArchitectureConfig(), TrainConfig(epochs=int(sys.argv[1]), batch_size=16))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_train_steps_take_no_pages_from_the_system():
    """40 more epochs (80 more steps) take under 1000 more minor page faults.
    Steps that allocate and free their arrays can make the heap top grow and
    shrink every step: with this script that took 6000 to 11000 more faults;
    a step through the workspace takes none."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)

    def faults(epochs):
        done = subprocess.run([sys.executable, "-c", TRAIN_FAULTS, str(epochs)], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        return int(done.stdout)

    assert faults(50) - faults(10) < 1000


def test_train_returns_float64_views_of_one_vector():
    # test_train_equals_per_array_moment_updates writes them with
    # write_autoencoder
    data = random_batch(15, 4, 8)
    arch = ArchitectureConfig(channels=(2, 3), latent_dim=5)
    params, history = train(data, arch, TrainConfig(epochs=3, batch_size=2), seed=1)
    assert history.dtype == np.float64
    arrays = params.arrays()
    base = arrays[0].base
    assert base is not None and base.dtype == np.float64 and base.ndim == 1
    assert base.size == params.n_parameters()
    offset = 0
    for a in arrays:
        assert a.dtype == np.float64 and a.base is base
        np.testing.assert_array_equal(a.reshape(-1), base[offset : offset + a.size])
        offset += a.size


# ------------------------------------------------------------- validation


def test_input_guards():
    params = build_params(ArchitectureConfig(channels=(4,), latent_dim=8), 8, seed=0)
    with pytest.raises(DimensionError, match="built for 8x8"):
        forward(params, np.zeros(n_edges(9)))
    with pytest.raises(DimensionError):
        forward(params, np.eye(8))  # a p x p matrix is not an edge vector
    with pytest.raises(ValueError):
        loss_and_grad(params, [])
    with pytest.raises(DimensionError, match="p\\(p-1\\)/2"):
        loss_and_grad(params, [np.zeros(27)])
    with pytest.raises(ValueError, match="non-finite"):
        loss_and_grad(params, [np.full(n_edges(8), np.nan)])


@pytest.mark.parametrize(
    "kw",
    [
        dict(channels=()),
        dict(channels=(0,)),
        # kernel size is a module constant and stride and activations are
        # the network's structure: a config that sets one names an unknown
        # key, whatever the value
        dict(kernel_size=2),
        dict(kernel_size=-3),
        dict(stride=0),
        dict(latent_dim=0),
        dict(activation="relu"),
    ],
)
def test_architecture_validation(kw):
    ((field, value),) = kw.items()
    raw = example_config()
    raw["ae"][field] = list(value) if isinstance(value, tuple) else value
    if field in ArchitectureConfig.__dataclass_fields__:
        with pytest.raises(ConfigurationError, match=f"^{field} "):
            ArchitectureConfig(**kw).validate()
        message = f"^ae: {field} "
    else:
        message = rf"^ae\.{field}: unknown key$"
    with pytest.raises(ConfigurationError, match=message):
        config_from_dict(raw)


@pytest.mark.parametrize(
    "kw",
    [
        dict(epochs=0),
        dict(batch_size=0),
        # the learning rate, the moment decay rates, the denominator floor and
        # the init scale are module constants: a config that sets one names an
        # unknown key, whatever the value
        dict(learning_rate=-1e-3),
        dict(learning_rate=float("nan")),
        dict(beta1=1.0),
        dict(beta2=-0.1),
        dict(epsilon=0.0),
        dict(init_scale=0.0),
        dict(epsilon=1e-50),
        dict(epsilon=float(np.finfo(np.float32).tiny) / 2),
        dict(epsilon=float("nan")),
        dict(epsilon=1e39),
        dict(learning_rate=1e39),
        dict(init_scale=1e39),
        dict(init_scale=float("inf")),
        dict(init_scale=float("nan")),
    ],
)
def test_train_config_validation(kw):
    ((field, value),) = kw.items()
    raw = example_config()
    raw["ae"][field] = value
    if field in TrainConfig.__dataclass_fields__:
        with pytest.raises(ConfigurationError, match=f"^{field} "):
            TrainConfig(**kw).validate()
        message = f"^ae: {field} "
    else:
        message = rf"^ae\.{field}: unknown key$"
    with pytest.raises(ConfigurationError, match=message):
        config_from_dict(raw)


def test_params_structure_guards():
    conv = Layer(np.ones((1, 1, 1, 1)), np.zeros(1))
    dense = Layer(np.zeros((4, 16)), np.zeros(4))
    with pytest.raises(TypeError, match="enc_dense"):
        AutoencoderParams(input_size=4, enc_convs=[conv])
    with pytest.raises(TypeError, match="dec_dense"):
        AutoencoderParams(input_size=4, enc_convs=[conv], enc_dense=dense)
    with pytest.raises(ConfigurationError):
        build_params(ArchitectureConfig(channels=(4,), latent_dim=8), 1, seed=0)


@settings(max_examples=60, deadline=None)
@given(depth=st.integers(1, 3), p=st.integers(2, 40))
def test_odd_kernel_geometry_always_inverts(depth, p):
    # with pad (k - 1) / 2 every conv keeps at least one pixel, and every
    # deconv restores its mirror conv's input size, for any input size
    arch = ArchitectureConfig(channels=(2,) * depth, latent_dim=3)
    params = build_params(arch, p, seed=0)
    latent, recon = forward(params, np.zeros(n_edges(p)))
    assert latent.shape == (3,)
    assert recon.shape == (p, p)

    # hand_built, which other geometries are tested through, lays out the same net
    def layout(net):
        return [(kind, layer.weight.shape) for layer, kind in zip(net._layers(), net._kinds())]

    assert layout(hand_built(p, (2,) * depth, 3)) == layout(params)


def test_residual_edges_are_the_upper_triangle_of_the_symmetrized_difference():
    """For a net whose reconstruction R is known exactly, residual's row is
    bit for bit the strict upper triangle of (D + D.T) / 2, D the input
    connectome minus R: a non-symmetric R enters through both triangles."""
    recon = substream(13, 207).standard_normal((5, 5))
    params = constant_net(recon)
    edges = substream(13, 208).standard_normal((3, n_edges(5)))
    expected = []
    for e in edges:
        d = connectome_of(e) - recon
        expected.append(vectorize_upper((d + d.T) / 2.0))
    np.testing.assert_array_equal(residual(edges, params, 2), np.stack(expected))
    # a reconstruction the input's own connectome leaves no residual
    sym = connectome_of(edges[0])
    np.testing.assert_array_equal(residual([edges[0]], constant_net(sym), 1), np.zeros((1, 10)))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_stacked_edges_equal_the_stacked_connectomes(dtype):
    """The scatter of pearson_fc outputs' edge vectors, both triangles and the
    unit diagonal, is np.stack of the connectomes bit for bit, in float64 and
    in float32."""
    mats = [pearson_fc(x) for x in substream(20, 216).standard_normal((6, 11, 40))]
    edges = np.stack([vectorize_upper(c) for c in mats])
    stacked = _stack_inputs(edges, dtype)
    assert stacked.dtype == dtype and stacked.shape == (11, 11, 6)
    np.testing.assert_array_equal(stacked, np.stack(mats, axis=-1, dtype=dtype))
    np.testing.assert_array_equal(_stack_inputs(list(edges.astype(dtype))), stacked)


def test_residual_rejects_non_finite_reconstruction():
    # dec_dense's inf weights times the zero latent: the reconstruction is NaN
    params = constant_net(np.zeros((5, 5)))
    params.dec_dense.weight[...] = np.inf
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(ValueError, match="non-finite"):
            residual([np.zeros(n_edges(5))], params, 1)
