"""Convolutional autoencoder over connectome matrices, in plain numpy.

The encoder stacks strided 2-d convolutions (each halving the spatial size
with ceiling) followed by an affine map to a latent vector; the decoder
mirrors it. No layer stores its geometry beyond its stride, and three rules
derive the rest, so the shapes invert exactly for any input size:

- every conv and transposed conv pads by (k - 1) / 2, k read from its weight;
- each transposed conv restores the input size of its mirror conv (the
  transposed convs undo the convs in reverse order);
- dec_dense's output is reshaped to the last conv's output shape, or to the
  input's when there is no conv.

Two primitives carry both layer kinds: _conv computes A x for a strided
convolution A and _conv_adjoint computes A^T g. A convolution runs _conv
forward and _conv_adjoint backward; a transposed convolution runs
_conv_adjoint forward and _conv backward. All gradients are analytic gradients
of the mean squared reconstruction error and are checked against central
finite differences in the test suite.

The forward pass records a tape with one (layer, cache, output) entry per
layer, in params._layers() order, and the backward pass walks it in reverse.
Both carry every activation and gradient batch-innermost, as (c, h, w, n) (a
dense layer's as (d, n)): the (n, p, p) input is transposed once on entry and
the reconstruction once on exit. With the batch innermost, each pixel of a
channel is one contiguous run of n values, so the gathers below copy n-value
chunks instead of single values, and a convolution over the whole batch is one
2-d matrix product of the (c_out, c_in*k*k) weight with (c_in*k*k, ho*wo*n)
patch columns, not n small ones; a weight gradient is one product too.

_conv runs on im2col and _conv_adjoint on col2im. One cached index per
single-image geometry gives the flat pixel position of every patch entry, with
the zero padding mapped to a sentinel slot past the last pixel: im2col is a
gather through it. col2im, its exact adjoint, is a gather through the
transposed index, which lists for each pixel the patch entries that read it in
kernel-tap order, padded with a sentinel that points at a zero row; a pixel
is the sum of its entries in that order, as a scatter-add per kernel tap would
give. Every layer computes in the dtype of its input.

Training runs in float32 (weights, moments, gradients and activations): it
packs every weight and bias into one float32 vector whose slices the layers
hold as views, so the adaptive-moment update runs as a few in-place vector
operations on preallocated buffers. On return the vector is widened, exactly,
to float64, and the returned params are views of that float64 vector. The
initial weights are float32-representable, so the float32 loop starts exactly
at them. Everything else (forward, residual, loss_and_grad on float64 input)
runs in float64.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DimensionError, TrainingDivergenceError
from .rng import substream

# substream tags relative to the training seed
_INIT_STREAM = 0
_SHUFFLE_STREAM = 1

# the adaptive-moment update's step size, decay rates and denominator floor
_LEARNING_RATE, _BETA1, _BETA2, _EPSILON = 1e-3, 0.9, 0.999, 1e-8
# weights start uniform in +-_INIT_SCALE / sqrt(fan_in)
_INIT_SCALE = 1.0
# every conv and transposed conv built by build_params: a 3x3 kernel, stride 2,
# and tanh after every layer but the last transposed conv, which is linear
_KERNEL, _STRIDE, _ACTIVATION = 3, 2, "tanh"


def _apply_act(name: str, z: np.ndarray) -> np.ndarray:
    # in place: every caller passes a fresh pre-activation array
    if name == "tanh":
        return np.tanh(z, out=z)
    if name == "linear":
        return z
    raise ConfigurationError(f"unknown activation {name!r}")


def _act_backward(name: str, out: np.ndarray, g: np.ndarray) -> np.ndarray:
    # derivative expressed through the cached layer output: g * (1 - out * out)
    if name == "tanh":
        d = np.multiply(out, out)
        np.subtract(1.0, d, out=d)
        d *= g
        return d
    return g


@dataclass
class ConvLayer:
    weight: np.ndarray  # (c_out, c_in, k, k)
    bias: np.ndarray  # (c_out,)
    stride: int = 2
    activation: str = "tanh"


@dataclass
class DeconvLayer:
    weight: np.ndarray  # (c_in, c_out, k, k), adjoint-convolution convention
    bias: np.ndarray  # (c_out,)
    stride: int = 2
    activation: str = "tanh"


@dataclass
class DenseLayer:
    weight: np.ndarray  # (d_out, d_in)
    bias: np.ndarray  # (d_out,)
    activation: str = "tanh"


@dataclass
class ArchitectureConfig:
    """Shape of the autoencoder, independent of the input size: the channels
    of each conv and the latent size. Kernel, stride and activation are the
    constants _KERNEL, _STRIDE and _ACTIVATION."""

    channels: tuple[int, ...] = (8, 16)
    latent_dim: int = 64

    def validate(self) -> None:
        if not self.channels or any(int(c) < 1 for c in self.channels):
            raise ConfigurationError(f"channels must be positive integers, got {self.channels!r}")
        if int(self.latent_dim) < 1:
            raise ConfigurationError(f"latent_dim must be >= 1, got {self.latent_dim}")


@dataclass
class TrainConfig:
    epochs: int = 200
    batch_size: int = 16

    def validate(self) -> None:
        if int(self.epochs) < 1:
            raise ConfigurationError(f"epochs must be >= 1, got {self.epochs}")
        if int(self.batch_size) < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass(kw_only=True)
class AutoencoderParams:
    """All weights plus the input size they were built for: the convs, a
    dense map to the latent vector, a dense map back (unflattened to the last
    conv's output shape), then transposed convs back to the input size, each
    mirroring a conv. The latent size is enc_dense's output size. The weight
    shapes and strides fix the rest of the geometry; nothing re-checks it.
    """

    input_size: int
    enc_convs: list[ConvLayer] = field(default_factory=list)
    enc_dense: DenseLayer
    dec_dense: DenseLayer
    dec_deconvs: list[DeconvLayer] = field(default_factory=list)

    def _layers(self):
        return [*self.enc_convs, self.enc_dense, self.dec_dense, *self.dec_deconvs]

    def arrays(self) -> list[np.ndarray]:
        """Parameter tensors in canonical (forward) order: weight then bias per layer."""
        out = []
        for layer in self._layers():
            out.extend([layer.weight, layer.bias])
        return out

    def n_parameters(self) -> int:
        return sum(a.size for a in self.arrays())


def _conv_out_size(n: int, k: int, s: int, p: int) -> int:
    return (n + 2 * p - k) // s + 1


def _pad(weight: np.ndarray) -> int:
    # every network layer pads by (k - 1) / 2 for its k x k kernel
    return (weight.shape[2] - 1) // 2


def build_params(arch: ArchitectureConfig, input_size: int, seed: int) -> AutoencoderParams:
    """Seeded fan-in-scaled uniform init: weights ~ U(-a, a), a = _INIT_SCALE / sqrt(fan_in).

    Weights are float64 arrays holding float32-representable values, so that
    training in float32 starts exactly at them.
    """
    arch.validate()
    p = int(input_size)
    if p < 2:
        raise ConfigurationError(f"input_size must be >= 2, got {input_size}")
    k, stride = _KERNEL, _STRIDE
    channels = (1, *[int(c) for c in arch.channels])

    # an odd kernel with pad (k-1)/2 maps n to (n-1)//s + 1 >= 1
    side = p
    for _ in arch.channels:
        side = _conv_out_size(side, k, stride, (k - 1) // 2)

    def uniform(rng, fan_in, shape):
        a = _INIT_SCALE / math.sqrt(fan_in)
        return rng.uniform(-a, a, size=shape).astype(np.float32).astype(np.float64)

    enc = []
    for i in range(len(arch.channels)):
        c_in, c_out = channels[i], channels[i + 1]
        w = uniform(substream(seed, _INIT_STREAM, 0, i), c_in * k * k, (c_out, c_in, k, k))
        enc.append(ConvLayer(w, np.zeros(c_out), stride, _ACTIVATION))

    flat = channels[-1] * side * side
    latent = int(arch.latent_dim)
    enc_dense = DenseLayer(
        uniform(substream(seed, _INIT_STREAM, 1), flat, (latent, flat)),
        np.zeros(latent),
        _ACTIVATION,
    )
    dec_dense = DenseLayer(
        uniform(substream(seed, _INIT_STREAM, 2), latent, (flat, latent)),
        np.zeros(flat),
        _ACTIVATION,
    )

    deconvs = []
    for i in reversed(range(len(arch.channels))):
        c_in, c_out = channels[i + 1], channels[i]
        w = uniform(substream(seed, _INIT_STREAM, 3, i), c_in * k * k, (c_in, c_out, k, k))
        act = "linear" if i == 0 else _ACTIVATION
        deconvs.append(DeconvLayer(w, np.zeros(c_out), stride, act))

    return AutoencoderParams(
        input_size=p,
        enc_convs=enc,
        enc_dense=enc_dense,
        dec_dense=dec_dense,
        dec_deconvs=deconvs,
    )


# ---------------------------------------------------------------------------
# conv primitives (im2col / col2im)


@functools.lru_cache(maxsize=64)
def _patch_index(h: int, w: int, k: int, s: int, p: int, ho: int, wo: int) -> np.ndarray:
    """Flat pixel position of every (a, b, i, j) patch entry of one h x w image.

    Entry (a, b, i, j) reads pixel (s*i + a - p, s*j + b - p); positions in the
    zero padding map to the sentinel slot h*w, one past the last pixel.
    """
    rows = (np.arange(k)[:, None] + s * np.arange(ho) - p)[:, None, :, None]
    cols = (np.arange(k)[:, None] + s * np.arange(wo) - p)[None, :, None, :]
    inside = (rows >= 0) & (rows < h) & (cols >= 0) & (cols < w)
    idx = np.where(inside, rows * w + cols, h * w).reshape(-1)
    idx.flags.writeable = False
    return idx


@functools.lru_cache(maxsize=64)
def _pixel_index(c: int, h: int, w: int, k: int, s: int, p: int, ho: int, wo: int) -> np.ndarray:
    """The transpose of _patch_index for c channels: an (m, c*h*w) table whose
    column (ch, y, x) lists, in (a, b) order, the flat positions among the
    c*k*k*ho*wo patch entries of every entry that reads pixel (y, x) of channel
    ch. m is the most entries any pixel has, at most ceil(k/s)**2; the slots a
    pixel does not use hold the sentinel c*k*k*ho*wo, one past the last entry.
    """
    idx = _patch_index(h, w, k, s, p, ho, wo)
    # the entries that read a pixel, sorted by pixel: the stable sort keeps
    # them in (a, b, i, j) order, and the padding's sentinel sorts them last
    entries = np.argsort(idx, kind="stable")[: np.count_nonzero(idx < h * w)]
    pix = idx[entries]
    counts = np.bincount(pix, minlength=h * w)
    slot = np.arange(pix.size) - (np.cumsum(counts) - counts)[pix]
    size = k * k * ho * wo
    table = np.full((counts.max(), c * h * w), c * size)
    table.reshape(len(table), c, h * w)[slot, :, pix] = entries[:, None] + size * np.arange(c)
    table.flags.writeable = False
    return table


def _im2col(x: np.ndarray, k: int, s: int, p: int, ho: int, wo: int) -> np.ndarray:
    """(c, h, w, n) -> (c*k*k, ho*wo*n) patch columns, gathered through the
    cached patch index from each channel's pixels followed by one zero pixel
    (the padding), n values at a time."""
    c, h, w, n = x.shape
    flat = np.zeros((c, h * w + 1, n), dtype=x.dtype)
    flat[:, : h * w] = x.reshape(c, h * w, n)
    return np.take(flat, _patch_index(h, w, k, s, p, ho, wo), axis=1).reshape(c * k * k, -1)


def _col2im(cols: np.ndarray, x_shape, k: int, s: int, p: int, ho: int, wo: int) -> np.ndarray:
    """Adjoint of _im2col: cols holds the c*k*k*ho*wo patch entries, n values
    each, followed by one zero row; returns the (c, h, w, n) = x_shape image.

    Each pixel gathers its entries through the cached pixel index and adds
    them slot by slot in (a, b) order, so it sums exactly as one strided add
    per kernel tap into a zeroed image would, holding about two images at once.
    """
    c, h, w, _ = x_shape
    index = _pixel_index(c, h, w, k, s, p, ho, wo)
    img = np.take(cols, index[0], axis=0)
    for slot in index[1:]:
        img += np.take(cols, slot, axis=0)
    return img.reshape(x_shape)


def _conv(x: np.ndarray, weight: np.ndarray, s: int, p: int, ho: int, wo: int):
    """A x for the strided convolution A with weight (c_out, c_in, k, k):
    (c_in, h, w, n) -> the (c_out, ho*wo*n) output and x's patch columns."""
    cols = _im2col(x, weight.shape[2], s, p, ho, wo)
    return weight.reshape(weight.shape[0], -1) @ cols, cols


def _conv_adjoint(g: np.ndarray, weight: np.ndarray, s: int, p: int, x_shape, ho: int, wo: int):
    """A^T g for the A of _conv: (c_out, ho*wo*n) -> (c_in, h, w, n) = x_shape."""
    wm = weight.reshape(weight.shape[0], -1)
    # the patch columns plus the zero row _col2im's sentinel points at
    cols = np.empty((wm.shape[1] * ho * wo + 1, x_shape[3]), dtype=np.result_type(wm, g))
    cols[-1] = 0
    np.matmul(wm.T, g, out=cols[:-1].reshape(wm.shape[1], -1))
    return _col2im(cols, x_shape, weight.shape[2], s, p, ho, wo)


# ---------------------------------------------------------------------------
# network forward/backward over a recorded tape


def _forward_tape(params: AutoencoderParams, x: np.ndarray):
    """x: (n, p, p). Returns (latent (n, d), recon (n, p, p), tape), where the
    tape holds one (layer, cache, output) entry per layer of params._layers().
    Inside, every activation is (c, h, w, n) or, for a dense layer, (d, n)."""
    n = x.shape[0]
    tape: list[tuple] = []
    z = np.ascontiguousarray(x.transpose(1, 2, 0))[None]
    # the (h, w) each conv took in, popped by the transposed conv mirroring it
    sizes = []
    for layer in params._layers():
        if isinstance(layer, DenseLayer):
            if layer is params.enc_dense:
                unflat = z.shape
            z = z.reshape(-1, n)
            pre = layer.weight @ z
            pre += layer.bias[:, None]
            cache = z
        elif isinstance(layer, ConvLayer):
            k, pad = layer.weight.shape[2], _pad(layer.weight)
            sizes.append(z.shape[1:3])
            ho = _conv_out_size(z.shape[1], k, layer.stride, pad)
            wo = _conv_out_size(z.shape[2], k, layer.stride, pad)
            pre, cols = _conv(z, layer.weight, layer.stride, pad, ho, wo)
            pre += layer.bias[:, None]
            pre = pre.reshape(-1, ho, wo, n)
            cache = (z.shape, cols)
        else:
            c_in, c_out = layer.weight.shape[:2]
            h, w = z.shape[1:3]
            ho, wo = sizes.pop()
            pre = _conv_adjoint(z.reshape(c_in, -1), layer.weight, layer.stride,
                                _pad(layer.weight), (c_out, ho, wo, n), h, w)
            pre += layer.bias[:, None, None, None]
            cache = z
        z = _apply_act(layer.activation, pre)
        tape.append((layer, cache, z))
        if layer is params.dec_dense:
            z = z.reshape(unflat)
    latent = tape[len(params.enc_convs)][2].T
    # mirrored layers return the decoder to the input's (1, p, p, n)
    return latent, z[0].transpose(2, 0, 1), tape


def _param_views(flat: np.ndarray, params: AutoencoderParams) -> list[np.ndarray]:
    """Consecutive slices of flat shaped like params.arrays(), in that order."""
    views, offset = [], 0
    for a in params.arrays():
        views.append(flat[offset : offset + a.size].reshape(a.shape))
        offset += a.size
    return views


def _backward_tape(params: AutoencoderParams, tape, g_recon: np.ndarray, out: np.ndarray):
    """Write every parameter gradient into out, a vector of params.n_parameters()
    values in params.arrays() order; return views of it aligned with that list.
    g_recon is (n, p, p); inside, gradients take the layout of the activations."""
    grads = _param_views(out, params)
    g = np.ascontiguousarray(g_recon.transpose(1, 2, 0))
    for i in reversed(range(len(tape))):
        layer, cache, act_out = tape[i]
        dw, db = grads[2 * i : 2 * i + 2]
        g = _act_backward(layer.activation, act_out, g.reshape(act_out.shape))
        if isinstance(layer, DenseLayer):
            np.matmul(g, cache.T, out=dw)
            g.sum(axis=1, out=db)
            g = layer.weight.T @ g
        elif isinstance(layer, ConvLayer):
            x_shape, cols = cache
            c_out, ho, wo, _ = g.shape
            gm = g.reshape(c_out, -1)
            # dw = gm @ cols.T, computed as (cols @ gm.T).T: for a short gm
            # and long rows, the faster orientation
            dw.reshape(c_out, -1)[...] = (cols @ gm.T).T
            gm.sum(axis=1, out=db)
            # nothing reads the gradient with respect to the network input
            if i > 0:
                g = _conv_adjoint(gm, layer.weight, layer.stride, _pad(layer.weight),
                                  x_shape, ho, wo)
        else:
            c_in, h, w, _ = cache.shape
            g_in, cols = _conv(g, layer.weight, layer.stride, _pad(layer.weight), h, w)
            dw.reshape(c_in, -1)[...] = (cols @ cache.reshape(c_in, -1).T).T
            g.reshape(g.shape[0], -1).sum(axis=1, out=db)
            g = g_in
    return grads


def _stack_inputs(dataset) -> np.ndarray:
    """The (n, p, p) stack of dataset: float32 if every matrix is float32,
    float64 otherwise."""
    mats = [np.asarray(m) for m in dataset]
    if not mats:
        raise ValueError("dataset must contain at least one matrix")
    x = np.stack(mats)
    x = x.astype(np.float32 if x.dtype == np.float32 else np.float64, copy=False)
    if x.ndim != 3 or x.shape[1] != x.shape[2]:
        raise DimensionError(f"dataset must stack to an (n, p, p) array, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("dataset contains non-finite values")
    return x


def _network_inputs(params: AutoencoderParams, dataset) -> np.ndarray:
    """The (n, p, p) stack of dataset, checked against the size params expect."""
    x = _stack_inputs(dataset)
    if x.shape[1] != params.input_size:
        raise DimensionError(
            f"input is {x.shape[1]}x{x.shape[2]} but params were built for "
            f"{params.input_size}x{params.input_size}"
        )
    return x


def forward(params: AutoencoderParams, matrix) -> tuple[np.ndarray, np.ndarray]:
    """Encode and reconstruct a single p x p matrix.

    Returns (latent vector, reconstruction). Deterministic: no dropout or
    other stochastic pieces exist anywhere in the network.
    """
    latent, recon, _ = _forward_tape(params, _network_inputs(params, [matrix]))
    return latent[0].copy(), recon[0].copy()


def _loss_terms(params: AutoencoderParams, x: np.ndarray):
    latent, recon, tape = _forward_tape(params, x)
    diff = recon - x
    per_sample = np.einsum("nij,nij->n", diff, diff) / (x.shape[1] * x.shape[2])
    return diff, per_sample, tape


def loss_and_grad(params: AutoencoderParams, batch) -> tuple[float, list[np.ndarray]]:
    """Mean over the batch of ||input - reconstruction||_F^2 / p^2, plus exact grads.

    Gradients come back as a list of arrays aligned with ``params.arrays()``,
    computed in the dtype of the forward pass (float32 only when the params
    and the batch are all float32); the loss is averaged in float64.
    """
    diff, per_sample, tape = _loss_terms(params, _network_inputs(params, batch))
    loss = float(per_sample.mean(dtype=np.float64))
    g_recon = (2.0 / diff.size) * diff
    grads = _backward_tape(params, tape, g_recon, np.empty(params.n_parameters(), diff.dtype))
    return loss, grads


def train(dataset, arch: ArchitectureConfig, cfg: TrainConfig, seed: int = 0):
    """Minibatch adaptive gradient descent on the reconstruction error, from
    build_params(arch, p, seed) and with the minibatch shuffle drawn from seed.

    Uses moment-tracking updates (step size _LEARNING_RATE, decay rates
    _BETA1/_BETA2 with bias correction). The per-epoch loss is the mean
    per-sample loss observed during the epoch, accumulated in dataset order
    so it does not depend on the shuffle. Returns (params, loss_history); the
    arrays of the returned params are float64 views of one contiguous
    parameter vector.

    The loop runs in float32: inputs, parameters, moments, gradients and
    every activation. Each update constant is a Python float, which takes the
    dtype of the array it meets, so no pass widens to float64. The per-sample
    losses are averaged in float64.
    """
    cfg.validate()
    x = _stack_inputs(dataset).astype(np.float32)
    n, p, _ = x.shape
    params = build_params(arch, p, seed)
    theta = _flatten_params(params, np.float32)
    # the moments, the gradient (written in place by the backward pass) and
    # one scratch vector, reused every step
    m1 = np.zeros_like(theta)
    m2 = np.zeros_like(theta)
    tmp = np.empty_like(theta)
    g = np.empty_like(theta)
    shuffle = substream(seed, _SHUFFLE_STREAM)
    history = []
    step = 0
    for epoch in range(cfg.epochs):
        order = shuffle.permutation(n)
        sample_losses = np.empty(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            diff, per_sample, tape = _loss_terms(params, x[idx])
            batch_loss = float(per_sample.mean())
            if not np.isfinite(batch_loss):
                raise TrainingDivergenceError(epoch)
            sample_losses[idx] = per_sample
            _backward_tape(params, tape, (2.0 / diff.size) * diff, g)
            step += 1
            _adam_update(theta, g, m1, m2, tmp, step)
        history.append(float(sample_losses.mean()))
    # widening float32 to float64 is exact
    _flatten_params(params, np.float64)
    return params, np.asarray(history)


def _adam_update(theta, g, m1, m2, tmp, step: int) -> None:
    """The step-th adaptive-moment update, in place on the vectors theta
    (parameters), m1 and m2 (moments); g (the gradient) and tmp are scratch.

    theta -= _LEARNING_RATE * (m1 / c1) / (sqrt(m2 / c2) + _EPSILON), the
    textbook per-array formula evaluated in the same order. Each constant is a
    Python float, which takes the dtype of the array it meets.
    """
    c1, c2 = 1.0 - _BETA1**step, 1.0 - _BETA2**step
    m1 *= _BETA1
    np.multiply(g, 1.0 - _BETA1, out=tmp)
    m1 += tmp
    m2 *= _BETA2
    np.multiply(g, 1.0 - _BETA2, out=tmp)
    tmp *= g
    m2 += tmp
    np.divide(m1, c1, out=g)
    g *= _LEARNING_RATE
    np.divide(m2, c2, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += _EPSILON
    g /= tmp
    theta -= g


def _flatten_params(params: AutoencoderParams, dtype) -> np.ndarray:
    """Copy every weight and bias, in params.arrays() order, into one vector
    of dtype and rebind each layer's arrays to views of it."""
    theta = np.concatenate([a.reshape(-1) for a in params.arrays()], dtype=dtype)
    views = _param_views(theta, params)
    for i, layer in enumerate(params._layers()):
        layer.weight, layer.bias = views[2 * i : 2 * i + 2]
    return theta


def residual(connectomes, params: AutoencoderParams) -> np.ndarray:
    """What the autoencoder could not reconstruct: for a sequence or (n, p, p)
    stack of connectomes, the (n, p, p) float64 stack of input minus
    reconstruction, from one batched forward pass, each symmetrized as
    (R + R.T) / 2 with zero diagonal.
    """
    x = _network_inputs(params, connectomes)
    _, recon, _ = _forward_tape(params, x)
    r = (x - recon).astype(np.float64, copy=False)
    if not np.all(np.isfinite(r)):
        raise ValueError("residual contains non-finite entries")
    r = (r + r.transpose(0, 2, 1)) / 2.0
    diag = np.arange(r.shape[1])
    r[:, diag, diag] = 0.0
    return r
