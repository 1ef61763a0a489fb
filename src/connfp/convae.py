"""Convolutional autoencoder over connectome matrices, in plain numpy.

Every entry point takes connectomes as their edge vectors
(connectome.vectorize_upper), an (n, m) array or a sequence of n length-m
vectors, and reads p off m. The network sees each as the p x p matrix with
the edges in both triangles and a unit diagonal, which for a pearson_fc
output is the connectome bit for bit.

The encoder stacks strided 2-d convolutions (each halving the spatial size
with ceiling) followed by an affine map to a latent vector; the decoder
mirrors it. A layer holds only its weight and bias: its slot in
AutoencoderParams, not its type, makes it a conv, a dense layer or a
transposed conv, and every pass reads the kinds from AutoencoderParams._kinds.
Every conv and transposed conv has stride 2 (_STRIDE), every layer but the
network's last applies tanh, and the last is linear. Three rules derive the
rest of the geometry, so the shapes invert exactly for any input size:

- every conv and transposed conv pads by (k - 1) / 2, k read from its weight;
- each transposed conv restores the input size of its mirror conv (the
  transposed convs undo the convs in reverse order);
- dec_dense's output is reshaped to the last conv's output shape, or to the
  input's when there is no conv.

A conv computes A x for a strided convolution A, and its backward pass
A^T g; a transposed conv computes A^T x, and its backward pass A g. All
gradients are analytic gradients of the mean squared reconstruction error and
are checked against central finite differences in the test suite.

Every activation and gradient is carried batch-innermost, as (c*h*w, n) (a
dense layer's as (d, n)), so each pixel of a channel is one contiguous run of
n values: the gathers below copy n-value chunks, and a convolution over the
whole batch is one 2-d matrix product of the (c_out, c_in*k*k) weight with
(c_in*k*k, ho*wo*n) patch columns; a weight gradient is one product too.

A x runs on im2col, a gather of the patch entries through one cached index
per geometry; A^T g runs on col2im, its exact adjoint, a gather through the
transposed index, which lists for each pixel the patch entries that read it
in kernel-tap order, so that a pixel sums them as a scatter-add per tap would.
Both gather from guarded blocks, whose row 0 is zero: the zero padding and
the unused slots of the transposed index point at it.

A pass writes every array into a _Workspace allocated before it: training
and residual allocate one for their batch size and reuse it for every batch,
and forward and loss_and_grad each allocate one of their own. Each layer
computes in the dtype the input and the weights promote to.

Training runs in float32 (weights, moments, gradients and activations): it
packs every weight and bias into one float32 vector whose slices the layers
hold as views, so the adaptive-moment update runs as a few in-place vector
operations on preallocated buffers. On return the vector is widened, exactly,
to float64, and the returned params are views of that float64 vector. The
initial weights are float32-representable, so the float32 loop starts exactly
at them. residual runs in float64, and so do forward and loss_and_grad on
float64 input.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .connectome import n_edges, n_rois, upper_pairs
from .errors import ConfigurationError, DimensionError, TrainingDivergenceError
from .rng import substream

# substream tags relative to the training seed
_INIT_STREAM = 0
_SHUFFLE_STREAM = 1

# the adaptive-moment update's step size, decay rates and denominator floor
_LEARNING_RATE, _BETA1, _BETA2, _EPSILON = 1e-3, 0.9, 0.999, 1e-8
# weights start uniform in +-_INIT_SCALE / sqrt(fan_in)
_INIT_SCALE = 1.0
# build_params' kernel size, and the stride of every conv and transposed conv
_KERNEL, _STRIDE = 3, 2
# the length of the parameter slices the adaptive-moment update runs on
_ADAM_BLOCK = 1 << 16


@dataclass
class Layer:
    """One layer's parameters; its slot in AutoencoderParams fixes its kind."""

    weight: np.ndarray
    bias: np.ndarray


@dataclass
class ArchitectureConfig:
    """Shape of the autoencoder, independent of the input size: the channels
    of each conv and the latent size. The kernel size is the constant
    _KERNEL; stride and activations are the network's structure."""

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
    mirroring a conv. The latent size is enc_dense's output size.

    Each slot fixes its layers' kind and weight convention: a conv in
    enc_convs holds a (c_out, c_in, k, k) weight, enc_dense and dec_dense a
    (d_out, d_in) one, and a transposed conv in dec_deconvs a (c_in, c_out,
    k, k) one, the convention of the conv it is the adjoint of; every bias
    has one entry per output channel or unit. Every conv and transposed conv
    has stride _STRIDE, and every layer but the last applies tanh, while the
    last is linear; with that, the weight shapes fix the rest of the
    geometry, and nothing re-checks it.
    """

    input_size: int
    enc_convs: list[Layer] = field(default_factory=list)
    enc_dense: Layer
    dec_dense: Layer
    dec_deconvs: list[Layer] = field(default_factory=list)

    def _layers(self):
        return [*self.enc_convs, self.enc_dense, self.dec_dense, *self.dec_deconvs]

    def _kinds(self):
        """The kind of each layer of _layers(), which its slot fixes."""
        return ["conv"] * len(self.enc_convs) + ["dense"] * 2 + ["deconv"] * len(self.dec_deconvs)

    def arrays(self) -> list[np.ndarray]:
        """Parameter tensors in canonical (forward) order: weight then bias per layer."""
        out = []
        for layer in self._layers():
            out.extend([layer.weight, layer.bias])
        return out

    def n_parameters(self) -> int:
        return sum(a.size for a in self.arrays())


def layer_specs(params: AutoencoderParams) -> list[dict]:
    """Each layer of params._layers() in plain values: its kind, weight shape,
    activation ("tanh", "linear" for the last layer) and, but for a dense
    layer, stride."""
    layers = params._layers()
    return [{"kind": kind, "weight_shape": list(layer.weight.shape),
             "activation": "linear" if layer is layers[-1] else "tanh",
             **({} if kind == "dense" else {"stride": _STRIDE})}
            for layer, kind in zip(layers, params._kinds())]


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
    k = _KERNEL
    channels = (1, *[int(c) for c in arch.channels])

    # an odd kernel with pad (k-1)/2 maps n to (n-1)//s + 1 >= 1
    side = p
    for _ in arch.channels:
        side = _conv_out_size(side, k, _STRIDE, (k - 1) // 2)

    def uniform(rng, fan_in, shape):
        a = _INIT_SCALE / math.sqrt(fan_in)
        return rng.uniform(-a, a, size=shape).astype(np.float32).astype(np.float64)

    enc = []
    for i in range(len(arch.channels)):
        c_in, c_out = channels[i], channels[i + 1]
        w = uniform(substream(seed, _INIT_STREAM, 0, i), c_in * k * k, (c_out, c_in, k, k))
        enc.append(Layer(w, np.zeros(c_out)))

    flat = channels[-1] * side * side
    latent = int(arch.latent_dim)
    enc_dense = Layer(uniform(substream(seed, _INIT_STREAM, 1), flat, (latent, flat)),
                      np.zeros(latent))
    dec_dense = Layer(uniform(substream(seed, _INIT_STREAM, 2), latent, (flat, latent)),
                      np.zeros(flat))

    deconvs = []
    for i in reversed(range(len(arch.channels))):
        c_in, c_out = channels[i + 1], channels[i]
        w = uniform(substream(seed, _INIT_STREAM, 3, i), c_in * k * k, (c_in, c_out, k, k))
        deconvs.append(Layer(w, np.zeros(c_out)))

    return AutoencoderParams(
        input_size=p,
        enc_convs=enc,
        enc_dense=enc_dense,
        dec_dense=dec_dense,
        dec_deconvs=deconvs,
    )


# ---------------------------------------------------------------------------
# conv primitives (im2col / col2im) on guarded blocks


@functools.lru_cache(maxsize=64)
def _patch_index(c: int, h: int, w: int, k: int, s: int, p: int, ho: int, wo: int) -> np.ndarray:
    """Row of every (ch, a, b, i, j) patch entry in a guarded c x h x w image.

    A guarded block is a zero row followed by its rows, here one per pixel in
    (ch, y, x) order. Entry (ch, a, b, i, j) reads pixel (s*i + a - p,
    s*j + b - p) of channel ch; positions in the zero padding map to row 0.
    """
    rows = (np.arange(k)[:, None] + s * np.arange(ho) - p)[:, None, :, None]
    cols = (np.arange(k)[:, None] + s * np.arange(wo) - p)[None, :, None, :]
    inside = (rows >= 0) & (rows < h) & (cols >= 0) & (cols < w)
    first = 1 + h * w * np.arange(c)[:, None, None, None, None]
    # left writeable, as every cached index is: np.take copies a read-only
    # index on every call; the cache hands the same array to every caller
    return np.where(inside, first + rows * w + cols, 0).reshape(-1)


@functools.lru_cache(maxsize=64)
def _pixel_index(c: int, h: int, w: int, k: int, s: int, p: int, ho: int, wo: int) -> np.ndarray:
    """The transpose of _patch_index: an (m, c*h*w) table whose column (ch, y, x)
    lists, in (a, b) order, the row in the guarded block of c*k*k*ho*wo patch
    entries of every entry that reads pixel (y, x) of channel ch. m is the
    most entries any pixel has, at most ceil(k/s)**2; the slots a pixel does
    not use hold 0, the zero row.
    """
    idx = _patch_index(c, h, w, k, s, p, ho, wo)
    # the entries that read a pixel, sorted by pixel: the stable sort puts the
    # padding's zero rows first and keeps each pixel's entries in (a, b) order
    entries = np.argsort(idx, kind="stable")[np.count_nonzero(idx == 0) :]
    pix = idx[entries] - 1
    counts = np.bincount(pix, minlength=c * h * w)
    slot = np.arange(pix.size) - (np.cumsum(counts) - counts)[pix]
    table = np.zeros((counts.max(), c * h * w), dtype=np.intp)
    table[slot, pix] = entries + 1
    return table


def _im2col(image: np.ndarray, geom, out: np.ndarray) -> np.ndarray:
    """Patch columns of the strided convolution geom = (c, h, w, k, s, p, ho,
    wo): gathers the (1 + c*h*w, n) guarded image into out, its
    (c*k*k*ho*wo, n) patch entries, n values at a time. As (c*k*k, ho*wo*n),
    out holds the columns the (c_out, c*k*k) weight multiplies."""
    # mode="clip" lets take write straight into out, where the default mode
    # buffers it; every index is in range, so nothing is clipped
    return np.take(image, _patch_index(*geom), axis=0, out=out, mode="clip")


def _col2im(entries: np.ndarray, geom, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Adjoint of _im2col: sums the (1 + c*k*k*ho*wo, n) guarded patch
    entries into out, the (c*h*w, n) image; tmp is scratch of out's shape.
    Each pixel gathers its entries through the cached pixel index and adds
    them slot by slot in (a, b) order, so it sums exactly as one strided add
    per kernel tap into a zeroed image would."""
    index = _pixel_index(*geom)
    np.take(entries, index[0], axis=0, out=out, mode="clip")
    for slot in index[1:]:
        out += np.take(entries, slot, axis=0, out=tmp, mode="clip")
    return out


# ---------------------------------------------------------------------------
# network forward/backward in one preallocated workspace


def _layer_geometry(params: AutoencoderParams) -> list[tuple]:
    """Per layer of params._layers(), (rows in, rows out, conv): the values
    one sample feeds the layer and gets back, and conv, the geometry (c, h, w,
    k, s, p, ho, wo) of the strided convolution A that a conv applies and a
    transposed conv applies the adjoint of (A maps a c x h x w image to
    ho x wo patches); None for a dense layer."""
    shape, sizes, geometry = (1, params.input_size, params.input_size), [], []
    for layer, kind in zip(params._layers(), params._kinds()):
        conv = None
        if kind == "dense":
            if layer is params.enc_dense:
                unflat = shape
            nxt = (layer.weight.shape[0],)
        elif kind == "conv":
            k, pad = layer.weight.shape[2], _pad(layer.weight)
            sizes.append(shape[1:])
            ho, wo = (_conv_out_size(d, k, _STRIDE, pad) for d in shape[1:])
            nxt = (layer.weight.shape[0], ho, wo)
            conv = (*shape, k, _STRIDE, pad, ho, wo)
        else:
            # the (h, w) its mirror conv took in
            nxt = (layer.weight.shape[1], *sizes.pop())
            conv = (*nxt, layer.weight.shape[2], _STRIDE, _pad(layer.weight), *shape[1:])
        geometry.append((math.prod(shape), math.prod(nxt), conv))
        shape = unflat if layer is params.dec_dense else nxt
    return geometry


def _entries(conv) -> int:
    c, _, _, k, _, _, ho, wo = conv
    return c * k * k * ho * wo


class _Workspace:
    """Every array a forward pass writes, and with grads a backward pass too,
    allocated once for batches of up to `batch` samples of params' network in
    dtype. Nothing in it holds a weight.

    Each buffer is one flat vector: `batch` zeros, the guard, then room for
    `batch` samples of r rows each. An n-sample batch sees it as the guarded
    block buf[batch - n : batch + r * n], (1 + r, n): the last n guard zeros,
    then the rows. Nothing writes the guard, so row 0 is zero for every n, and
    the short last batch of an epoch uses a prefix of the full batches' memory.
    The buffers: x, the input; per layer, out, its output, which a backward
    pass overwrites with the gradient at the pre-activation; adj, the patch
    entries of one conv or transposed conv at a time, which _im2col gathers
    and _col2im sums from (a backward pass gathers a layer's again), and tmp,
    _col2im's scratch; with grads, g, the gradient at a layer's output or
    input, diff, the reconstruction error in the (n, p, p) layout the loss
    sums in, dw and loss.
    """

    def __init__(self, params: AutoencoderParams, batch: int, dtype, grads: bool):
        self.batch, self.grads = batch, grads
        self.geometry = _layer_geometry(params)
        self._views: dict[int, SimpleNamespace] = {}
        convs = [conv for _, _, conv in self.geometry if conv is not None]

        def buffer(rows: int) -> np.ndarray:
            return np.zeros(batch * (1 + rows), dtype)

        self.x = buffer(self.geometry[0][0])
        self.out = [buffer(rows) for _, rows, _ in self.geometry]
        self.adj = buffer(max(map(_entries, convs), default=0))
        self.tmp = buffer(max((c * h * w for c, h, w, *_ in convs), default=0))
        if grads:
            self.g = buffer(max([r for r, _, _ in self.geometry[1:]] + [self.geometry[-1][1]]))
            kernels = [layer for layer, kind in zip(params._layers(), params._kinds())
                       if kind != "dense"]
            self.dw = np.empty(max((layer.weight.size for layer in kernels), default=0), dtype)
            self.loss = np.empty(batch, dtype)
            self.diff = np.empty(batch * self.geometry[0][0], dtype)

    def views(self, n: int) -> SimpleNamespace:
        """The arrays of an n-sample batch, built on the first call for n: x,
        recon, per layer its input src, out and scratch, and diff, g, loss, dw."""
        if n not in self._views:
            self._views[n] = self._bind(n)
        return self._views[n]

    def _bind(self, n: int) -> SimpleNamespace:
        def block(buf: np.ndarray, rows: int) -> np.ndarray:
            return buf[self.batch - n : self.batch + rows * n].reshape(1 + rows, n)

        layers = []
        src = block(self.x, self.geometry[0][0])
        for i, (rows_in, rows_out, conv) in enumerate(self.geometry):
            lv = SimpleNamespace(src=src, out=block(self.out[i], rows_out), conv=conv)
            if conv is not None:
                lv.adj = block(self.adj, _entries(conv))
                lv.tmp = block(self.tmp, conv[0] * conv[1] * conv[2])[1:]
            if self.grads:
                lv.g_out = block(self.g, rows_out)[1:]
                lv.g_in = block(self.g, rows_in)[1:]
            layers.append(lv)
            src = lv.out
        p = math.isqrt(self.geometry[0][0])
        v = SimpleNamespace(x=layers[0].src, layers=layers,
                            recon=layers[-1].out[1:].reshape(-1, p, p, n)[0])
        if self.grads:
            v.diff = self.diff[: n * p * p].reshape(n, p, p)
            v.g = block(self.g, p * p)[1:].reshape(p, p, n)
            v.loss, v.dw = self.loss[:n], self.dw
        return v


def _forward(params: AutoencoderParams, v: SimpleNamespace) -> None:
    """Run the network on the batch in v.x, a workspace's views of one batch,
    writing each layer's output into its out: tanh of the pre-activation but
    for the last layer, which is linear."""
    for layer, kind, lv in zip(params._layers(), params._kinds(), v.layers):
        out = lv.out[1:]
        wm = layer.weight.reshape(len(layer.weight), -1)
        if kind == "dense":
            np.matmul(wm, lv.src[1:], out=out)
        elif kind == "conv":
            cols = _im2col(lv.src, lv.conv, lv.adj[1:])
            np.matmul(wm, cols.reshape(wm.shape[1], -1), out=out.reshape(len(wm), -1))
        else:
            np.matmul(wm.T, lv.src[1:].reshape(len(wm), -1),
                      out=lv.adj[1:].reshape(wm.shape[1], -1))
            _col2im(lv.adj, lv.conv, out, lv.tmp)
        pre = out.reshape(len(layer.bias), -1)
        pre += layer.bias[:, None]
        if lv is not v.layers[-1]:
            np.tanh(out, out=out)


def _loss(v: SimpleNamespace) -> np.ndarray:
    """Write each sample's mean squared reconstruction error into v.loss and
    return it; leave the gradient of their mean with respect to the
    reconstruction in v.g."""
    np.subtract(v.recon, v.x[1:].reshape(v.recon.shape), out=v.g)
    d = v.diff
    d[...] = v.g.transpose(2, 0, 1)
    np.einsum("nij,nij->n", d, d, out=v.loss)
    v.loss /= d.shape[1] * d.shape[2]
    v.g *= 2.0 / d.size
    return v.loss


def _param_views(flat: np.ndarray, params: AutoencoderParams) -> list[np.ndarray]:
    """Consecutive slices of flat shaped like params.arrays(), in that order."""
    views, offset = [], 0
    for a in params.arrays():
        views.append(flat[offset : offset + a.size].reshape(a.shape))
        offset += a.size
    return views


def _backward(params: AutoencoderParams, v: SimpleNamespace, grads: list[np.ndarray]) -> None:
    """Write every parameter gradient into grads, arrays aligned with
    params.arrays(), from the gradient _loss left in v."""
    layers, kinds = params._layers(), params._kinds()
    for i in reversed(range(len(layers))):
        layer, kind, lv = layers[i], kinds[i], v.layers[i]
        dw, db = grads[2 * i : 2 * i + 2]
        # the gradient at the pre-activation, over the layer's output
        g = lv.out[1:]
        if i < len(layers) - 1:
            # g_out * (1 - out * out), tanh's derivative through its output
            np.multiply(g, g, out=g)
            np.subtract(1.0, g, out=g)
            g *= lv.g_out
        else:
            np.copyto(g, lv.g_out)
        wm = layer.weight.reshape(len(layer.weight), -1)
        # below, nothing reads the gradient with respect to the network input
        if kind == "dense":
            np.matmul(g, lv.src[1:].T, out=dw)
            g.sum(axis=1, out=db)
            if i > 0:
                np.matmul(wm.T, g, out=lv.g_in)
            continue
        gm = g.reshape(len(layer.bias), -1)
        gm.sum(axis=1, out=db)
        # the patch columns of a conv's input, which is still intact, or of a
        # transposed conv's gradient
        cols = _im2col(lv.src if kind == "conv" else lv.out, lv.conv, lv.adj[1:])
        cols = cols.reshape(wm.shape[1], -1)
        # dw.T, computed as cols @ gm.T: for a short gm and long rows, the
        # faster orientation
        dw_t = v.dw[: dw.size].reshape(-1, len(wm))
        if kind == "conv":
            np.matmul(cols, gm.T, out=dw_t)
            if i > 0:
                # the gradient's patch entries overwrite the columns in adj
                np.matmul(wm.T, gm, out=cols)
                _col2im(lv.adj, lv.conv, lv.g_in, lv.tmp)
        else:
            np.matmul(cols, lv.src[1:].reshape(len(wm), -1).T, out=dw_t)
            if i > 0:
                np.matmul(wm, cols, out=lv.g_in.reshape(len(wm), -1))
        dw.reshape(len(wm), -1)[...] = dw_t.T


def _stack_inputs(dataset, dtype=None, params: AutoencoderParams | None = None) -> np.ndarray:
    """The (p, p, n) batch-innermost stack of the connectomes whose n edge
    vectors dataset holds: each edge in both triangles, 1.0 on the diagonal,
    cast to dtype as it is assigned; by default float32 if the edges are
    float32, float64 otherwise. Given params, p must be the input size they
    were built for."""
    edges = np.asarray(dataset)
    if edges.ndim != 2 or not len(edges):
        raise DimensionError(f"dataset must stack to an (n, m) array of n >= 1 edge "
                             f"vectors, got shape {edges.shape}")
    # checked before any narrowing
    if not np.all(np.isfinite(edges)):
        raise ValueError("dataset contains non-finite values")
    p = n_rois(edges.shape[1])
    if params is not None and p != params.input_size:
        raise DimensionError(f"input is {p}x{p} but params were built for "
                             f"{params.input_size}x{params.input_size}")
    if dtype is None:
        dtype = np.float32 if edges.dtype == np.float32 else np.float64
    x = np.empty((p, p, len(edges)), dtype)
    rows, cols = upper_pairs(p)
    x[rows, cols] = x[cols, rows] = edges.T
    x[np.arange(p), np.arange(p)] = 1.0
    return x


def _forward_pass(params: AutoencoderParams, dataset, grads: bool = False):
    """The views of a workspace of its own for the (p, p, n) stack of dataset,
    in the dtype the stack and params promote to, after a forward pass."""
    x = _stack_inputs(dataset, params=params)
    n = x.shape[2]
    v = _Workspace(params, n, np.result_type(x, *params.arrays()), grads).views(n)
    np.copyto(v.x[1:], x.reshape(-1, n))
    _forward(params, v)
    return v


def forward(params: AutoencoderParams, edges) -> tuple[np.ndarray, np.ndarray]:
    """Encode and reconstruct the p x p connectome of one edge vector.

    Returns (latent vector, reconstruction). Deterministic: no dropout or
    other stochastic pieces exist anywhere in the network.
    """
    v = _forward_pass(params, [edges])
    return v.layers[len(params.enc_convs)].out[1:, 0].copy(), v.recon[:, :, 0].copy()


def loss_and_grad(params: AutoencoderParams, batch) -> tuple[float, list[np.ndarray]]:
    """Mean over the batch of edge vectors of ||input - reconstruction||_F^2 / p^2,
    the input being each vector's p x p connectome, plus exact grads.

    Gradients come back as a list of arrays aligned with ``params.arrays()``,
    computed in the dtype of the forward pass (float32 only when the params
    and the batch are all float32); the loss is averaged in float64.
    """
    v = _forward_pass(params, batch, grads=True)
    loss = float(_loss(v).mean(dtype=np.float64))
    grads = _param_views(np.empty(params.n_parameters(), v.diff.dtype), params)
    _backward(params, v, grads)
    return loss, grads


def train(dataset, arch: ArchitectureConfig, cfg: TrainConfig, seed: int = 0):
    """Minibatch adaptive gradient descent on the reconstruction error of the
    connectomes of dataset's n edge vectors, from build_params(arch, p, seed)
    and with the minibatch shuffle drawn from seed.

    Uses moment-tracking updates (step size _LEARNING_RATE, decay rates
    _BETA1/_BETA2 with bias correction). The per-epoch loss is the mean
    per-sample loss observed during the epoch, accumulated in dataset order
    so it does not depend on the shuffle. Returns (params, loss_history); the
    arrays of the returned params are float64 views of one contiguous
    parameter vector.

    The loop runs in float32: inputs, parameters, moments, gradients and
    every activation. Each update constant is a Python float, which takes the
    dtype of the array it meets, so no pass widens to float64. The per-sample
    losses are averaged in float64. Every step writes into the same
    workspace and vectors, allocated before the first.
    """
    cfg.validate()
    x = _stack_inputs(dataset, np.float32)
    p, _, n = x.shape
    x = x.reshape(p * p, n)
    params = build_params(arch, p, seed)
    theta = _flatten_params(params, np.float32)
    # the moments, the gradient (written in place by the backward pass) and
    # the update's scratch, one slice long
    m1 = np.zeros_like(theta)
    m2 = np.zeros_like(theta)
    tmp = np.empty(_ADAM_BLOCK, np.float32)
    g = np.empty_like(theta)
    grads = _param_views(g, params)
    ws = _Workspace(params, min(cfg.batch_size, n), np.float32, grads=True)
    shuffle = substream(seed, _SHUFFLE_STREAM)
    history = []
    step = 0
    for epoch in range(cfg.epochs):
        order = shuffle.permutation(n)
        sample_losses = np.empty(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            v = ws.views(len(idx))
            np.take(x, idx, axis=1, out=v.x[1:], mode="clip")
            _forward(params, v)
            per_sample = _loss(v)
            batch_loss = float(per_sample.mean())
            if not np.isfinite(batch_loss):
                raise TrainingDivergenceError(epoch)
            sample_losses[idx] = per_sample
            _backward(params, v, grads)
            step += 1
            _adam_update(theta, g, m1, m2, tmp, step)
        history.append(float(sample_losses.mean()))
    # freed before the float64 copy of theta is made, which would otherwise
    # add to them at the peak
    del x, m1, m2, tmp, g, grads, ws, v, per_sample
    # widening float32 to float64 is exact
    _flatten_params(params, np.float64)
    return params, np.asarray(history)


def _adam_update(theta, g, m1, m2, tmp, step: int) -> None:
    """The step-th adaptive-moment update, in place on the vectors theta
    (parameters), m1 and m2 (moments); g (the gradient) and tmp, at least
    _ADAM_BLOCK long, are scratch.

    theta -= _LEARNING_RATE * (m1 / c1) / (sqrt(m2 / c2) + _EPSILON), the
    textbook per-array formula evaluated in the same order. Each constant is a
    Python float, which takes the dtype of the array it meets. Every operation
    is elementwise, so running them on one _ADAM_BLOCK-element slice at a
    time, while its operands stay in cache, changes no bit.
    """
    c1, c2 = 1.0 - _BETA1**step, 1.0 - _BETA2**step
    for start in range(0, theta.size, _ADAM_BLOCK):
        part = slice(start, start + _ADAM_BLOCK)
        th, gp, u, v = theta[part], g[part], m1[part], m2[part]
        t = tmp[: th.size]
        u *= _BETA1
        np.multiply(gp, 1.0 - _BETA1, out=t)
        u += t
        v *= _BETA2
        np.multiply(gp, 1.0 - _BETA2, out=t)
        t *= gp
        v += t
        np.divide(u, c1, out=gp)
        gp *= _LEARNING_RATE
        np.divide(v, c2, out=t)
        np.sqrt(t, out=t)
        t += _EPSILON
        gp /= t
        th -= gp


def _flatten_params(params: AutoencoderParams, dtype) -> np.ndarray:
    """Copy every weight and bias, in params.arrays() order, into one vector
    of dtype and rebind each layer's arrays to views of it."""
    theta = np.concatenate([a.reshape(-1) for a in params.arrays()], dtype=dtype)
    views = _param_views(theta, params)
    for i, layer in enumerate(params._layers()):
        layer.weight, layer.bias = views[2 * i : 2 * i + 2]
    return theta


def residual(edges, params: AutoencoderParams, batch_size: int) -> np.ndarray:
    """What the autoencoder could not reconstruct of n connectomes, given as
    edge vectors: the C-contiguous n x m float64 matrix whose row i holds, at
    edge (j, k), j < k, (d_jk + d_kj) / 2 for d connectome i minus its
    reconstruction; the layout session_connectomes builds.

    The forward pass runs over consecutive chunks of batch_size vectors in
    one float64 workspace of min(batch_size, n) samples, and each chunk's
    residual is written into its rows of the output; so besides the
    output, one chunk of activations is alive at a time.
    """
    if int(batch_size) < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    n = len(edges)
    if not n:
        raise ValueError("dataset must contain at least one edge vector")
    p = params.input_size
    ws = _Workspace(params, min(batch_size, n), np.float64, grads=False)
    r = np.empty((n, n_edges(p)))
    upper = upper_pairs(p)
    for start in range(0, n, batch_size):
        x = _stack_inputs(edges[start : start + batch_size], np.float64, params)
        v = ws.views(x.shape[2])
        np.copyto(v.x[1:], x.reshape(p * p, -1))
        _forward(params, v)
        d = np.subtract(x, v.recon, out=x)
        if not np.all(np.isfinite(d)):
            raise ValueError("residual contains non-finite entries")
        r[start : start + x.shape[2]] = ((d[upper] + d[upper[::-1]]) / 2.0).T
    return r
