"""Differentiable layer primitives for the denoising network.

All image primitives work on single images laid out channel-first (C, H, W).
Batching is the caller's job: ``trainer.train_step`` builds one item's graph,
backpropagates its share of the batch-mean loss and only then builds the
next, so one item's graph is on the tape at a time.

Every primitive here is exercised by a central finite-difference gradient
check in the test suite (float64 mode).

``conv2d`` builds no im2col matrix. It writes the padded input once into
stride² phase images; each kernel tap then reads one contiguous flat slice of
one phase image, so the forward pass and both adjoints are k² GEMMs against
views of that single buffer.

``self_attention`` is one primitive, not a chain of tape ops. The forward pass
keeps the token view, q, k, v, the softmax probabilities p and the attended
values; the adjoint reuses them and writes out the softmax Jacobian-vector
product, ``ds = p * (dp - rowsum(dp * p)) / sqrt(C)``. A call records one
tape node.

Two layer pairs of the network are one primitive each, so neither keeps an
intermediate map alive on the tape: ``conv2d(..., bias=b)`` adds the
per-channel bias while it writes its output, and
``group_norm(..., silu=True)`` applies y * sigmoid(y) to the normalized map
in place. Both are bitwise equal, output and gradients, to the two-op chains
``add_channel_bias(conv2d(...), b)`` and ``silu(group_norm(...))``: the
sigmoid of both SiLUs is the one ``_sigmoid``.

What each adjoint's closure keeps alive until backward reaches it, beyond
its parent tensors (whose buffers the tape holds anyway):

- ``conv2d``: nothing; the adjoint rebuilds the phase images from ``x``.
- ``group_norm``: the per-group mean and 1/std; the adjoint rebuilds the
  standardized input from ``x``. With ``silu=True`` also the sigmoid of the
  normalized map y, one array of the input's size; the adjoint rebuilds y
  itself with the forward's arithmetic.
- ``silu``: the sigmoid of the input, one array of the input's size;
  rebuilding it would cost a tanh pass in every adjoint.
- ``self_attention``: the token view, q, k, v, p and the attended values.
- ``bicubic_upsample``: its two interpolation matrices, (h*S, h) and (w*S, w).
- ``upsample_nearest``, ``dense``, ``add_channel_bias`` and
  ``concat_channels``: nothing.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, as_tensor, from_op

GROUP_NORM_EPS = 1e-5


def _require_chw(x: Tensor, op: str) -> None:
    if x.data.ndim != 3:
        raise ValueError(f"{op} expects a (C, H, W) tensor, got shape {x.shape}")


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------


def conv2d(x, kernel, stride: int = 1, padding: int = 0, bias=None) -> Tensor:
    """Cross-correlate (C_in, H, W) with (C_out, C_in, k, k), plus a per-channel
    ``bias`` (C_out,) when one is given.

    Output spatial size is (H + 2*padding - k) // stride + 1. The kernel side
    must be odd. The bias is added while the cropped output is written, so a
    biased conv is one pass and one tape node.

    With s = stride, the padded input is split into s² phase images
    ``xp[:, a::s, b::s]`` of size (ceil(Hp/s) + 1, wq) with wq = ceil(Wp/s);
    the extra zero row keeps every slice in bounds. Tap (i, j) reads phase
    (i % s, j % s) as the flat slice of h_out * wq values starting at
    (i // s) * wq + j // s, so the output is the sum of k² GEMMs
    (C_out, C_in) @ (C_in, h_out * wq), cropped to w_out of every wq columns.
    The kernel gradient multiplies the zero-widened output gradient by the
    same slices, which the adjoint rebuilds from ``x`` rather than keeping;
    the input gradient scatter-adds K_ijᵀ @ g into them and interleaves the
    phases back.
    """
    x, kernel = as_tensor(x), as_tensor(kernel)
    _require_chw(x, "conv2d")
    if kernel.data.ndim != 4 or kernel.shape[2] != kernel.shape[3]:
        raise ValueError(f"conv2d kernel must be (C_out, C_in, k, k), got {kernel.shape}")
    c_in, h, w = x.shape
    _, kc_in, k, _ = kernel.shape
    if kc_in != c_in:
        raise ValueError(f"conv2d: input has {c_in} channels, kernel expects {kc_in}")
    if k % 2 == 0:
        raise ValueError(f"conv2d kernel side must be odd, got {k}")
    if stride < 1 or padding < 0:
        raise ValueError("conv2d: stride must be >= 1 and padding >= 0")
    if h + 2 * padding < k or w + 2 * padding < k:
        raise ValueError(f"conv2d: input {h}x{w} too small for k={k}, padding={padding}")
    s, c_out = stride, kernel.shape[0]
    if bias is not None:
        bias = as_tensor(bias)
        if bias.shape != (c_out,):
            raise ValueError(f"conv2d: bias {bias.shape} vs {c_out} output channels")

    h_out = (h + 2 * padding - k) // s + 1
    w_out = (w + 2 * padding - k) // s + 1
    hq = -(-(h + 2 * padding) // s) + 1
    wq = -(-(w + 2 * padding) // s)
    phases = _phase_images(x.data, s, padding, hq, wq)
    n = h_out * wq
    taps = [(i, j, i % s, j % s, (i // s) * wq + j // s)
            for i in range(k) for j in range(k)]

    # tap (0, 0) is phase (0, 0) at offset 0; the other products reuse tmp
    out = kernel.data[:, :, 0, 0] @ phases[0, 0, :, :n]
    tmp = np.empty_like(out)
    for i, j, a, b, off in taps[1:]:
        out += np.matmul(kernel.data[:, :, i, j], phases[a, b, :, off:off + n], out=tmp)

    def bwd(g):
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(g.sum(axis=(1, 2)))
        gf = np.zeros((c_out, h_out, wq), dtype=g.dtype)
        gf[:, :, :w_out] = g
        gf = gf.reshape(c_out, n)  # wrapped columns carry zero adjoint
        phases = _phase_images(x.data, s, padding, hq, wq)
        if kernel.requires_grad:
            gk = np.empty_like(kernel.data)
            for i, j, a, b, off in taps:
                gk[:, :, i, j] = gf @ phases[a, b, :, off:off + n].T
            kernel.accumulate_grad(gk)
        if x.requires_grad:
            gph = np.zeros_like(phases)
            tmp = np.empty((c_in, n), dtype=gph.dtype)
            for i, j, a, b, off in taps:
                gph[a, b, :, off:off + n] += np.matmul(kernel.data[:, :, i, j].T, gf, out=tmp)
            gxp = gph.reshape(s, s, c_in, hq, wq).transpose(2, 3, 0, 4, 1)
            gxp = gxp.reshape(c_in, hq * s, wq * s)
            x.accumulate_grad(gxp[:, padding:padding + h, padding:padding + w])

    del phases, tmp  # freed before the cropped output exists
    view = out.reshape(c_out, h_out, wq)[:, :, :w_out]
    if bias is None:
        return from_op(np.ascontiguousarray(view), (x, kernel), bwd)
    res = np.empty(view.shape, dtype=np.result_type(view, bias.data))
    np.add(view, bias.data[:, None, None], out=res)
    return from_op(res, (x, kernel, bias), bwd)


def _phase_images(x: np.ndarray, s: int, padding: int, hq: int, wq: int) -> np.ndarray:
    # (s, s, C, hq * wq): phase (a, b) is the zero-padded input's [:, a::s, b::s]
    c, h, w = x.shape
    xp = np.zeros((c, hq * s, wq * s), dtype=x.dtype)  # zero pad and tail
    xp[:, padding:padding + h, padding:padding + w] = x
    return np.ascontiguousarray(
        xp.reshape(c, hq, s, wq, s).transpose(2, 4, 0, 1, 3)
    ).reshape(s, s, c, hq * wq)


# ---------------------------------------------------------------------------
# Resampling
# ---------------------------------------------------------------------------


def _catmull_rom(u: np.ndarray) -> np.ndarray:
    # Cubic convolution kernel with a = -0.5, support |u| < 2.
    a = -0.5
    u = np.abs(u)
    near = (a + 2) * u**3 - (a + 3) * u**2 + 1
    far = a * (u**3 - 5 * u**2 + 8 * u - 4)
    return np.where(u <= 1, near, np.where(u < 2, far, 0.0))


def bicubic_weight_matrix(n: int, scale: int, dtype=np.float64) -> np.ndarray:
    """(n*scale, n) interpolation matrix: separable Catmull-Rom, replicate edges.

    Output sample i reads input coordinate (i + 0.5) / scale - 0.5, so scale 1
    is the exact identity.
    """
    rows = n * scale
    src = (np.arange(rows) + 0.5) / scale - 0.5
    i0 = np.floor(src)
    t = (src - i0)[:, None]
    idx = np.clip(i0.astype(np.int64)[:, None] + np.arange(-1, 3), 0, n - 1)
    wts = _catmull_rom(np.concatenate([1 + t, t, 1 - t, 2 - t], axis=1))
    m = np.zeros((rows, n), dtype=np.float64)
    # taps clipped onto the same edge pixel add up, in tap order
    np.add.at(m, (np.arange(rows)[:, None], idx), wts)
    return m.astype(dtype)


def bicubic_upsample(x, scale: int) -> Tensor:
    """Upscale (C, h, w) to (C, h*scale, w*scale) with separable bicubic."""
    x = as_tensor(x)
    _require_chw(x, "bicubic_upsample")
    if int(scale) != scale or scale < 1:
        raise ValueError(f"bicubic_upsample: scale must be an integer >= 1, got {scale}")
    scale = int(scale)
    _, h, w = x.shape
    mh = bicubic_weight_matrix(h, scale, dtype=x.dtype)
    mw = bicubic_weight_matrix(w, scale, dtype=x.dtype)
    out = np.einsum("oh,chw,pw->cop", mh, x.data, mw, optimize=True)

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(np.einsum("oh,cop,pw->chw", mh, g, mw, optimize=True))

    return from_op(np.ascontiguousarray(out), (x,), bwd)


def upsample_nearest(x, scale: int = 2) -> Tensor:
    """Repeat each pixel ``scale`` times along both spatial axes."""
    x = as_tensor(x)
    _require_chw(x, "upsample_nearest")
    c, h, w = x.shape

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(g.reshape(c, h, scale, w, scale).sum(axis=(2, 4)))

    out = np.repeat(np.repeat(x.data, scale, axis=1), scale, axis=2)
    return from_op(out, (x,), bwd)


# ---------------------------------------------------------------------------
# Normalization and activations
# ---------------------------------------------------------------------------


def group_norm(x, groups: int, gamma, beta, silu: bool = False) -> Tensor:
    """Per-group standardization over (channels/groups, H, W), then affine;
    with ``silu=True`` the result y goes on through y * sigmoid(y) in the
    same primitive, bitwise equal to ``silu(group_norm(...))``.

    The variance is taken from the centred values (two passes), so a large
    common offset costs no float32 precision.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    _require_chw(x, "group_norm")
    c, h, w = x.shape
    if c % groups != 0:
        raise ValueError(f"group_norm: {c} channels not divisible by {groups} groups")
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ValueError("group_norm: gamma/beta must be shaped (C,)")

    xg = x.data.reshape(groups, -1)
    mu = xg.mean(axis=1, keepdims=True)
    d = xg - mu
    inv_std = 1.0 / np.sqrt((d * d).mean(axis=1, keepdims=True) + GROUP_NORM_EPS)

    def channel_scale():
        return (gamma.data.reshape(groups, -1) * inv_std).reshape(c, 1, 1)

    # d becomes the output in place: one (C, H, W) buffer, scaled per channel
    out = d.reshape(c, h, w)
    out *= channel_scale()
    out += beta.data[:, None, None]
    sig = None
    if silu:
        sig = _sigmoid(out)
        out *= sig

    def bwd(g):
        xh = x.data.reshape(groups, -1) - mu  # standardized below; rebuilt, not kept
        if sig is not None:
            # y rebuilt with the forward's arithmetic, then silu's adjoint
            # g * sig * (1 + y * (1 - sig))
            y = xh.reshape(c, h, w) * channel_scale()
            y += beta.data[:, None, None]
            gy = 1.0 - sig
            y *= gy
            y += 1.0
            np.multiply(g, sig, out=gy)
            gy *= y
            g = gy
            del y
        xh *= inv_std
        if beta.requires_grad:
            beta.accumulate_grad(g.sum(axis=(1, 2)))
        if gamma.requires_grad:
            gamma.accumulate_grad((g * xh.reshape(c, h, w)).sum(axis=(1, 2)))
        if x.requires_grad:
            m = xh.shape[1]
            dxhat = (g * gamma.data[:, None, None]).reshape(groups, -1)
            s1 = dxhat.sum(axis=1, keepdims=True)
            s2 = (dxhat * xh).sum(axis=1, keepdims=True)
            gx = inv_std / m * (m * dxhat - s1 - xh * s2)
            x.accumulate_grad(gx.reshape(c, h, w))

    return from_op(out, (x, gamma, beta), bwd)


def _sigmoid(v: np.ndarray) -> np.ndarray:
    # 0.5 + 0.5 * tanh(0.5 * v) in one buffer; tanh is bounded, so no input overflows
    sig = np.multiply(v, 0.5)
    np.tanh(sig, out=sig)
    sig *= 0.5
    sig += 0.5
    return sig


def silu(x) -> Tensor:
    """x * sigmoid(x)."""
    x = as_tensor(x)
    sig = _sigmoid(x.data)

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(g * sig * (1.0 + x.data * (1.0 - sig)))

    return from_op(x.data * sig, (x,), bwd)


# ---------------------------------------------------------------------------
# Dense layer and channel plumbing
# ---------------------------------------------------------------------------


def dense(x, weight, bias) -> Tensor:
    """Affine map of a vector: weight (m, n) @ x (n,) + bias (m,)."""
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    if x.data.ndim != 1 or weight.data.ndim != 2 or weight.shape[1] != x.shape[0]:
        raise ValueError(f"dense: incompatible shapes {weight.shape} @ {x.shape}")
    if bias.shape != (weight.shape[0],):
        raise ValueError(f"dense: bias shape {bias.shape} != ({weight.shape[0]},)")

    def bwd(g):
        if weight.requires_grad:
            weight.accumulate_grad(np.outer(g, x.data))
        if x.requires_grad:
            x.accumulate_grad(weight.data.T @ g)
        if bias.requires_grad:
            bias.accumulate_grad(g)

    return from_op(weight.data @ x.data + bias.data, (x, weight, bias), bwd)


def add_channel_bias(x, bias) -> Tensor:
    """Add a per-channel bias vector (C,) to a (C, H, W) map."""
    x, bias = as_tensor(x), as_tensor(bias)
    _require_chw(x, "add_channel_bias")
    if bias.shape != (x.shape[0],):
        raise ValueError(f"add_channel_bias: bias {bias.shape} vs {x.shape[0]} channels")

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(g)
        if bias.requires_grad:
            bias.accumulate_grad(g.sum(axis=(1, 2)))

    return from_op(x.data + bias.data[:, None, None], (x, bias), bwd)


def concat_channels(tensors) -> Tensor:
    """Stack (C_i, H, W) tensors along the channel axis."""
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ValueError("concat_channels: need at least one tensor")
    hw = tensors[0].shape[1:]
    for t in tensors:
        _require_chw(t, "concat_channels")
        if t.shape[1:] != hw:
            raise ValueError(f"concat_channels: spatial mismatch {t.shape[1:]} vs {hw}")
    sizes = [t.shape[0] for t in tensors]
    offsets = np.concatenate([[0], np.cumsum(sizes)])

    def bwd(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                t.accumulate_grad(g[lo:hi])

    return from_op(np.concatenate([t.data for t in tensors], axis=0), tuple(tensors), bwd)


# ---------------------------------------------------------------------------
# Attention
# ---------------------------------------------------------------------------


def self_attention(x, wq, wk, wv, wo) -> Tensor:
    """Single-head scaled dot-product attention over spatial positions.

    The (C, H, W) map becomes H*W tokens of width C; queries/keys/values and
    the output projection are learned (C, C) matrices. The attended result is
    added residually, so zero projections give an exact passthrough.
    """
    x, wq, wk, wv, wo = (as_tensor(t) for t in (x, wq, wk, wv, wo))
    _require_chw(x, "self_attention")
    c, h, w = x.shape
    scale = x.dtype.type(c ** -0.5)
    tokens = np.ascontiguousarray(x.data.reshape(c, h * w).T)  # (HW, C)
    q, k, v = tokens @ wq.data, tokens @ wk.data, tokens @ wv.data
    p = q @ k.T  # logits, then probabilities in place
    p *= scale
    p -= p.max(axis=1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=1, keepdims=True)
    ctx = p @ v

    def bwd(g):
        g_out = g.reshape(c, h * w).T  # (HW, C)
        g_ctx = g_out @ wo.data.T
        g_p = g_ctx @ v.T
        g_s = p * (g_p - (g_p * p).sum(axis=1, keepdims=True)) * scale  # of the logits
        g_q, g_k, g_v = g_s @ k, g_s.T @ q, p.T @ g_ctx
        for m, left, right in ((wq, tokens, g_q), (wk, tokens, g_k), (wv, tokens, g_v),
                               (wo, ctx, g_out)):
            if m.requires_grad:
                m.accumulate_grad(left.T @ right)
        if x.requires_grad:
            g_tokens = g_q @ wq.data.T + g_k @ wk.data.T + g_v @ wv.data.T
            x.accumulate_grad(g + g_tokens.T.reshape(c, h, w))

    out = x.data + (ctx @ wo.data).T.reshape(c, h, w)
    return from_op(out, (x, wq, wk, wv, wo), bwd)
