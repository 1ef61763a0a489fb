"""Autoencoder forward, gradients, and training.

The analytic gradients are checked against a central finite-difference
oracle; reconstruction oracles use hand-built networks (a 1x1 convolution
between identity dense layers) whose output can be written down in closed
form.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from connfp import (
    ArchitectureConfig,
    AutoencoderParams,
    ConfigurationError,
    ConvLayer,
    DeconvLayer,
    DenseLayer,
    DimensionError,
    TrainConfig,
    TrainingDivergenceError,
    build_params,
    forward,
    loss_and_grad,
    pearson_fc,
    residual,
    train,
)
from connfp.config import config_from_dict, example_config
from connfp.container import read_matrix, write_autoencoder
from connfp.convae import _col2im, _im2col
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


def scaling_net(p, activation, scale=1.0):
    """A 1x1 convolution with weight ``scale`` followed by linear identity dense
    layers: latent and reconstruction both equal activation(scale * input)."""
    conv = ConvLayer(np.full((1, 1, 1, 1), scale), np.zeros(1), stride=1, activation=activation)
    eye = np.eye(p * p)
    return AutoencoderParams(
        input_size=p,
        enc_convs=[conv],
        enc_dense=DenseLayer(eye, np.zeros(p * p), "linear"),
        dec_dense=DenseLayer(eye.copy(), np.zeros(p * p), "linear"),
    )


def hand_built(p, channels, latent_dim, k=3, stride=2, seed=0):
    """build_params' layout at any odd kernel size k and any stride: tanh
    everywhere but the linear last layer, weights uniform in +-1 / sqrt(fan_in).
    build_params fixes k = 3 and stride 2; the layers and the conv primitives
    take any geometry, the layers padding by (k - 1) / 2."""
    rng = substream(seed, 209)
    chans, side = (1, *channels), p
    for _ in channels:
        side = (side + 2 * ((k - 1) // 2) - k) // stride + 1

    def uniform(fan_in, shape):
        return rng.uniform(-1.0, 1.0, size=shape) / np.sqrt(fan_in)

    enc = [ConvLayer(uniform(c_in * k * k, (c_out, c_in, k, k)), np.zeros(c_out), stride)
           for c_in, c_out in zip(chans, chans[1:])]
    deconvs = []
    for i in reversed(range(len(channels))):
        c_in, c_out = chans[i + 1], chans[i]
        deconvs.append(DeconvLayer(uniform(c_in * k * k, (c_in, c_out, k, k)), np.zeros(c_out),
                                   stride, "linear" if i == 0 else "tanh"))
    flat = chans[-1] * side * side
    return AutoencoderParams(
        input_size=p,
        enc_convs=enc,
        enc_dense=DenseLayer(uniform(flat, (latent_dim, flat)), np.zeros(latent_dim)),
        dec_dense=DenseLayer(uniform(latent_dim, (flat, latent_dim)), np.zeros(flat)),
        dec_deconvs=deconvs,
    )


def random_batch(seed, n, p):
    return list(substream(seed, 201).standard_normal((n, p, p)))


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


def _act(layer, z):
    return np.tanh(z) if layer.activation == "tanh" else z


def reference_forward(params, x):
    """One (p, p) sample through the network in the per-sample (c, h, w)
    layout, on the reference loops: the latent, the reconstruction and one
    (layer, input, patch columns, output) record per layer. Each layer pads
    by (k - 1) / 2, each transposed conv returns to the size its mirror conv
    took in, and dec_dense's output takes enc_dense's input shape."""
    z, records, sizes = x[None], [], []
    for layer in params._layers():
        w, b, s, cols = layer.weight, layer.bias, getattr(layer, "stride", 1), None
        if isinstance(layer, DenseLayer):
            if layer is params.enc_dense:
                unflat = z.shape
            out = _act(layer, w @ z.reshape(-1) + b)
        elif isinstance(layer, ConvLayer):
            k = w.shape[2]
            pad = (k - 1) // 2
            ho = (z.shape[1] + 2 * pad - k) // s + 1
            sizes.append(z.shape[1])
            cols = reference_im2col(z[None], k, s, pad, ho, ho)[0]
            out = _act(layer, (w.reshape(len(w), -1) @ cols).reshape(-1, ho, ho) + b[:, None, None])
        else:
            c_in, c_out, k, _ = w.shape
            h, ho, pad = z.shape[1], sizes.pop(), (k - 1) // 2
            img = reference_col2im((w.reshape(c_in, -1).T @ z.reshape(c_in, -1))[None],
                                   (1, c_out, ho, ho), k, s, pad, h, h)[0]
            out = _act(layer, img + b[:, None, None])
        records.append((layer, z, cols, out))
        z = out.reshape(unflat) if layer is params.dec_dense else out
    return records[len(params.enc_convs)][3], z[0], records


def reference_loss_and_grad(params, batch):
    """loss_and_grad in float64, one sample at a time in the (c, h, w) layout,
    the gradient of each layer summed over the batch."""
    grads = [np.zeros_like(a) for a in params.arrays()]
    losses = []
    for x in batch:
        _, recon, records = reference_forward(params, x)
        losses.append(np.mean((recon - x) ** 2))
        g = (2.0 / (len(batch) * x.size) * (recon - x))[None]
        for i in reversed(range(len(records))):
            layer, z, cols, out = records[i]
            w, s = layer.weight, getattr(layer, "stride", 1)
            g = g.reshape(out.shape)
            if layer.activation == "tanh":
                g = g * (1.0 - out * out)
            if isinstance(layer, DenseLayer):
                grads[2 * i] += np.outer(g, z.reshape(-1))
                grads[2 * i + 1] += g
                g = w.T @ g
            elif isinstance(layer, ConvLayer):
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
    x = np.stack(dataset).astype(np.float32)
    n, p, _ = x.shape
    params = build_params(arch, p, seed)
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
                a -= cfg.learning_rate * (u / c1) / (np.sqrt(v / c2) + 1e-8)
        history.append(float(losses.mean()))
    return params, np.asarray(history)


# ------------------------------------------------------- forward oracles


def test_identity_conv_reproduces_tanh_of_input():
    x = substream(0, 202).standard_normal((6, 6))
    latent, recon = forward(scaling_net(6, "tanh"), x)
    np.testing.assert_allclose(recon, np.tanh(x), atol=1e-15)
    np.testing.assert_allclose(latent, np.tanh(x).reshape(-1), atol=1e-15)


def test_linear_identity_conv_has_zero_loss_and_zero_grads():
    params = scaling_net(5, "linear")
    batch = random_batch(1, 3, 5)
    loss, grads = loss_and_grad(params, batch)
    assert loss == 0.0
    for g in grads:
        np.testing.assert_array_equal(g, np.zeros_like(g))


def test_zero_weight_network_reconstructs_zero():
    params = scaling_net(4, "tanh", scale=0.0)
    x = substream(2, 203).standard_normal((4, 4))
    _, recon = forward(params, x)
    np.testing.assert_array_equal(recon, np.zeros((4, 4)))
    loss, _ = loss_and_grad(params, [x])
    assert loss == pytest.approx(float(np.sum(x * x)) / 16.0, rel=1e-12)


def test_doubling_inputs_quadruples_loss_of_linear_net():
    params = scaling_net(5, "linear", scale=0.5)
    batch = random_batch(3, 4, 5)
    base = loss_and_grad(params, batch)[0]
    scaled = loss_and_grad(params, [2.0 * x for x in batch])[0]
    assert scaled == pytest.approx(4.0 * base, rel=1e-12)


def test_full_architecture_latent_has_configured_dimension():
    arch = ArchitectureConfig(channels=(4, 8), latent_dim=16)
    params = build_params(arch, 8, seed=0)
    latent, recon = forward(params, np.zeros((8, 8)))
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
        _, recon = forward(params, np.zeros((p, p)))
        assert recon.shape == (p, p)


# -------------------------------------------------------------- gradients


def test_analytic_gradients_match_finite_differences():
    strided = ArchitectureConfig(channels=(4, 8), latent_dim=16)
    nets = [build_params(strided, 8, seed=0), build_params(strided, 8, seed=1),
            # stride 1 keeps the spatial size through the convs and padded deconvs
            hand_built(6, (2,), 6, stride=1, seed=2)]
    worst = 0.0
    for params, seed in zip(nets, (0, 1, 2)):
        p = params.input_size
        batch = random_batch(seed + 10, 2, p)
        _, grads = loss_and_grad(params, batch)
        fd = fd_gradient(params, batch, h=1e-5)
        for g, f in zip(grads, fd):
            denom = np.maximum(np.maximum(np.abs(g), np.abs(f)), 1e-6)
            worst = max(worst, float(np.max(np.abs(g - f) / denom)))
    assert worst < 1e-4


def test_gradients_match_on_conv_only_stack():
    # a hand-built stack: one padded 3x3 stride-1 conv with no deconvs, so
    # the conv's gradient flows straight through the two dense layers
    rng = substream(5, 204)
    layer = ConvLayer(rng.standard_normal((1, 1, 3, 3)) * 0.3, np.zeros(1), stride=1)
    params = AutoencoderParams(
        input_size=6,
        enc_convs=[layer],
        enc_dense=DenseLayer(rng.standard_normal((5, 36)) * 0.2, np.zeros(5), "tanh"),
        dec_dense=DenseLayer(rng.standard_normal((36, 5)) * 0.2, np.zeros(36), "linear"),
    )
    batch = random_batch(6, 3, 6)
    _, grads = loss_and_grad(params, batch)
    fd = fd_gradient(params, batch, h=1e-5)
    for g, f in zip(grads, fd):
        denom = np.maximum(np.maximum(np.abs(g), np.abs(f)), 1e-6)
        assert np.max(np.abs(g - f) / denom) < 1e-4


@pytest.mark.parametrize(
    "arch,p",
    [
        (ArchitectureConfig(), 32),
        (ArchitectureConfig(channels=(4, 8), latent_dim=16), 8),
        # a dict: hand_built's keyword arguments, for a geometry build_params does not make
        (dict(channels=(2, 3), latent_dim=6, stride=1), 6),
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
    recons = []
    for x in batch:
        latent, recon = forward(params, x)
        ref_latent, ref_recon, _ = reference_forward(params, x)
        close(latent, ref_latent)
        close(recon, ref_recon)
        recons.append(ref_recon)
    r = np.stack(batch) - np.stack(recons)
    r = (r + r.transpose(0, 2, 1)) / 2.0
    r[:, np.arange(p), np.arange(p)] = 0.0
    close(residual(batch, params), r)


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
    # _im2col and _col2im work on batch-innermost (c, h, w, n) images and
    # (c*k*k*ho*wo, n) patch entries, _col2im's followed by one zero row
    cols = _im2col(x.transpose(1, 2, 3, 0), k, s, pad, ho, wo)
    cols = cols.reshape(c * k * k, ho * wo, n).transpose(2, 0, 1)
    entries = np.zeros((c * k * k * ho * wo + 1, n), dtype=dtype)
    entries[:-1] = y.transpose(1, 2, 0).reshape(-1, n)
    img = _col2im(entries, (c, h, w, n), k, s, pad, ho, wo).transpose(3, 0, 1, 2)
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
    x = substream(7, 205).standard_normal((8, 8))
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
    mats = [pearson_fc(rng.standard_normal((8, 60))) for _ in range(6)]
    arch = ArchitectureConfig(channels=(4, 8), latent_dim=16)
    cfg = TrainConfig(epochs=400, batch_size=3, learning_rate=3e-3)
    params, history = train(mats, arch, cfg, seed=0)
    assert history.shape == (400,)
    assert history[-1] < 0.1 * history[0]
    # the residual of a training matrix keeps only what the net missed
    off = ~np.eye(8, dtype=bool)
    r = residual(mats[:1], params)[0]
    assert np.linalg.norm(r[off]) < np.linalg.norm(mats[0][off])


def test_residual_of_a_stack_matches_one_matrix_at_a_time():
    params = build_params(ArchitectureConfig(channels=(2, 4), latent_dim=6), 9, seed=3)
    series = substream(14, 208).standard_normal((5, 9, 40))
    mats = [pearson_fc(x) for x in series]
    batched = residual(mats, params)
    assert batched.shape == (5, 9, 9) and batched.dtype == np.float64
    for c, r in zip(mats, batched):
        single = residual([c], params)[0]
        np.testing.assert_allclose(r, single, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(r, r.T)
    np.testing.assert_array_equal(residual(np.stack(mats), params), batched)
    with pytest.raises(DimensionError):
        residual(random_batch(0, 2, 8), params)
    with pytest.raises(DimensionError):
        residual(mats[0], params)  # one p x p matrix is not a stack


def test_zero_learning_rate_freezes_parameters():
    data = random_batch(10, 5, 8)
    arch = ArchitectureConfig(channels=(4,), latent_dim=8)
    cfg = TrainConfig(epochs=4, batch_size=2, learning_rate=0.0)
    params, history = train(data, arch, cfg, seed=6)
    assert np.all(history == history[0])
    init = build_params(arch, 8, seed=6)
    for x, y in zip(params.arrays(), init.arrays()):
        np.testing.assert_array_equal(x, y)


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
    data = random_batch(12, 12, 8)
    arch = ArchitectureConfig(channels=(2, 4), latent_dim=4)
    cfg = TrainConfig(epochs=4, batch_size=8, learning_rate=1e30)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # overflow warnings are the point here
        with pytest.raises(TrainingDivergenceError) as exc:
            train(data, arch, cfg, seed=0)
    assert exc.value.epoch == 0


@pytest.mark.parametrize("n,batch_size", [(5, 1), (7, 3)])
def test_train_equals_per_array_moment_updates(tmp_path, n, batch_size):
    data = random_batch(13, n, 8)
    arch = ArchitectureConfig(channels=(2, 3), latent_dim=5)
    cfg = TrainConfig(epochs=6, batch_size=batch_size, learning_rate=3e-3)
    params, history = train(data, arch, cfg, seed=4)
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
    with pytest.raises(DimensionError):
        forward(params, np.zeros((9, 9)))
    with pytest.raises(ValueError):
        loss_and_grad(params, [])
    with pytest.raises(DimensionError):
        loss_and_grad(params, [np.zeros((8, 7))])
    with pytest.raises(ValueError):
        loss_and_grad(params, [np.full((8, 8), np.nan)])


@pytest.mark.parametrize(
    "kw",
    [
        dict(channels=()),
        dict(channels=(0,)),
        # kernel size, stride and activation are module constants: a config
        # that sets one names an unknown key, whatever the value
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
        dict(learning_rate=-1e-3),
        dict(learning_rate=float("nan")),
        # the moment decay rates, the denominator floor and the init scale are
        # module constants: a config that sets one names an unknown key,
        # whatever the value
        dict(beta1=1.0),
        dict(beta2=-0.1),
        dict(epsilon=0.0),
        dict(init_scale=0.0),
        dict(epsilon=1e-50),
        dict(epsilon=float(np.finfo(np.float32).tiny) / 2),
        dict(epsilon=float("nan")),
        dict(epsilon=1e39),
        dict(learning_rate=1e39),  # float32 cannot hold it
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


def test_train_config_accepts_the_float32_limits():
    TrainConfig(learning_rate=float(np.finfo(np.float32).max)).validate()


def test_params_structure_guards():
    conv = ConvLayer(np.ones((1, 1, 1, 1)), np.zeros(1), 1, "tanh")
    dense = DenseLayer(np.zeros((4, 16)), np.zeros(4), "tanh")
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
    latent, recon = forward(params, np.eye(p))
    assert latent.shape == (3,)
    assert recon.shape == (p, p)

    # hand_built, which other geometries are tested through, lays out the same net
    def layout(net):
        return [(type(layer), layer.weight.shape, layer.activation,
                 getattr(layer, "stride", None))
                for layer in net._layers()]

    assert layout(hand_built(p, (2,) * depth, 3)) == layout(params)


def test_residual_symmetrizes_and_zeroes_diagonal():
    params = scaling_net(5, "linear")
    r = residual([np.eye(5)], params)
    np.testing.assert_array_equal(r, np.zeros((1, 5, 5)))
    raw = substream(13, 207).standard_normal((5, 5))
    # the net reconstructs half of its input, so the residual is raw / 2
    r2 = residual([raw], scaling_net(5, "linear", scale=0.5))[0]
    expected = (0.5 * raw + 0.5 * raw.T) / 2.0
    np.fill_diagonal(expected, 0.0)
    np.testing.assert_array_equal(r2, expected)
    np.testing.assert_array_equal(r2, r2.T)
    assert np.all(np.diag(r2) == 0.0)


def test_residual_rejects_non_finite_reconstruction():
    # inf * 0 off the diagonal: the reconstruction is NaN there
    params = scaling_net(5, "linear", scale=np.inf)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(ValueError, match="non-finite"):
            residual([np.eye(5)], params)
