"""Differentiable layer primitives for the denoising network.

All image primitives work on single images laid out channel-first (C, H, W).
Batching is the caller's job: ``trainer.train_step`` builds one item's graph,
backpropagates its share of the batch-mean loss and only then builds the
next, so one item's graph is on the tape at a time.

Every primitive here is exercised by a central finite-difference gradient
check in the test suite, on float64 tensors.

``conv2d`` writes the padded input once into stride² phase images; each
kernel tap then reads one contiguous flat slice of one phase image, so the
forward pass is k² GEMMs against views of that single buffer and builds no
im2col matrix. The adjoint stacks the taps instead: the kernel gradient is
one GEMM against an im2col buffer of the k² slices, and the input gradient
one GEMM of the whole kernel against the output gradient, whose k² slices
are scatter-added back in tap order. Each stacked buffer holds
C_in * k² * h_out * wq values and is freed before the next is made;
training's maps are small enough for that to cost less than k² small GEMMs.

``self_attention`` is one primitive, not a chain of tape ops. The forward pass
keeps the token view, q, k, v, the softmax probabilities p and the attended
values; the adjoint reuses them and writes out the softmax Jacobian-vector
product, ``ds = p * (dp - rowsum(dp * p)) / sqrt(C)``. A call records one
tape node.

Each conv layer of the network is one primitive, together with the layer in
front of it and its bias, so no intermediate map is written on its own or
kept alive on the tape. ``conv2d(..., bias=b)`` adds the per-channel bias
while it writes its output. ``conv2d(..., norm=(groups, gamma, beta))`` runs
GroupNorm then SiLU on its input and ``conv2d(..., upsample=2)`` a nearest
upsample, and either writes the result straight into the padded buffer the
phase images are cut from. Each is bitwise equal, output and gradients, to
its chain: ``add_channel_bias(conv2d(...), b)``,
``conv2d(silu(group_norm(...)), ...)`` and
``conv2d(upsample_nearest(...), ...)``. The standalone ``group_norm``,
``silu`` and ``upsample_nearest`` share their arithmetic with the conv
through private helpers (``_normalize_into``, ``_sigmoid``,
``_silu_adjoint``, ``_norm_adjoint``, ``_upsample_into``,
``_upsample_adjoint``), so each rule is written once.

What each adjoint's closure keeps alive until backward reaches it, beyond
its parent tensors (whose buffers the tape holds anyway):

- ``conv2d``: nothing; the adjoint rebuilds the phase images from ``x``,
  upsampling it again when ``upsample`` is set. With ``norm`` the per-group
  mean and 1/std and the sigmoid of the normalized map y, one array of the
  input's size; the adjoint rebuilds y with the forward's arithmetic, and
  no normalized or upsampled map is kept.
- ``group_norm``: the per-group mean and 1/std; the adjoint rebuilds the
  standardized input from ``x``.
- ``silu``: the sigmoid of the input, one array of the input's size;
  rebuilding it would cost a tanh pass in every adjoint.
- ``self_attention``: the token view, q, k, v, p and the attended values.
- ``bicubic_upsample``: the output window's rows of its two interpolation
  matrices, at most (h*S, h) and (w*S, w).
- ``upsample_nearest``, ``dense``, ``add_channel_bias`` and
  ``concat_channels``: nothing.
"""

from __future__ import annotations

import functools

import numpy as np

from .autodiff import Tensor, as_tensor, from_op

GROUP_NORM_EPS = 1e-5


def _require_chw(x: Tensor, op: str) -> None:
    if x.data.ndim != 3:
        raise ValueError(f"{op} expects a (C, H, W) tensor, got shape {x.shape}")


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------


def conv2d(x, kernel, stride: int = 1, padding: int = 0, bias=None, norm=None,
           upsample: int = 1) -> Tensor:
    """Cross-correlate (C_in, H, W) with (C_out, C_in, k, k), plus a per-channel
    ``bias`` (C_out,) when one is given.

    The layer in front of the conv can be part of it, so one call is one
    tape node and its output map is never written on its own:
    ``norm=(groups, gamma, beta)`` equals ``conv2d(silu(group_norm(x,
    groups, gamma, beta)), ...)`` and ``upsample=r`` equals
    ``conv2d(upsample_nearest(x, r), ...)``, to the bit, output and
    gradients. Either writes its values straight into the padded buffer
    below. A conv takes one of the two at most.

    Output spatial size is (H' + 2*padding - k) // stride + 1, where H' is H
    times ``upsample``. The kernel side must be odd. The bias is added while
    the cropped output is written.

    With s = stride, the padded input is split into s² phase images
    ``xp[:, a::s, b::s]`` of size (ceil(Hp/s) + 1, wq) with wq = ceil(Wp/s);
    the extra zero row keeps every slice in bounds. Tap (i, j) reads phase
    (i % s, j % s) as the flat slice of h_out * wq values starting at
    (i // s) * wq + j // s, so the output is the sum of k² GEMMs
    (C_out, C_in) @ (C_in, h_out * wq), cropped to w_out of every wq columns.
    The adjoint zero-widens the output gradient g to the same h_out * wq
    columns. The kernel gradient is one GEMM, g @ colsᵀ, where cols stacks
    the k² slices channel first and then tap, (C_in * k², h_out * wq), so
    the product already has the kernel's layout; the slices come from phase
    images the adjoint rebuilds from ``x`` rather than keeping, normalizing
    or upsampling it again. The input gradient is one GEMM too,
    Kᵀ @ g with K the kernel as (C_out, C_in * k²); tap (i, j)'s rows of
    the product are scatter-added into its slice in tap order, the phases
    are interleaved back, and the SiLU and norm, or the upsample, adjoint
    runs on the crop.
    """
    x, kernel = as_tensor(x), as_tensor(kernel)
    _require_chw(x, "conv2d")
    if kernel.data.ndim != 4 or kernel.shape[2] != kernel.shape[3]:
        raise ValueError(f"conv2d kernel must be (C_out, C_in, k, k), got {kernel.shape}")
    c_in, h, w = x.shape
    c_out, kc_in, k, _ = kernel.shape
    if kc_in != c_in:
        raise ValueError(f"conv2d: input has {c_in} channels, kernel expects {kc_in}")
    if k % 2 == 0:
        raise ValueError(f"conv2d kernel side must be odd, got {k}")
    if stride < 1 or padding < 0:
        raise ValueError("conv2d: stride must be >= 1 and padding >= 0")
    if int(upsample) != upsample or upsample < 1:
        raise ValueError(f"conv2d: upsample must be an integer >= 1, got {upsample}")
    if norm is not None and upsample != 1:
        raise ValueError("conv2d takes norm or upsample, not both")
    s, up = stride, int(upsample)
    h, w = h * up, w * up  # the conv's input is x after its prologue
    if h + 2 * padding < k or w + 2 * padding < k:
        raise ValueError(f"conv2d: input {h}x{w} too small for k={k}, padding={padding}")
    upstream = (x,)  # what the conv's input is computed from
    groups, gamma, beta = (None, None, None) if norm is None else norm
    if norm is not None:
        gamma, beta = as_tensor(gamma), as_tensor(beta)
        _check_norm("conv2d", x, groups, gamma, beta)
        upstream = (x, gamma, beta)
    parents = (*upstream, kernel)
    if bias is not None:
        bias = as_tensor(bias)
        if bias.shape != (c_out,):
            raise ValueError(f"conv2d: bias {bias.shape} vs {c_out} output channels")
        parents += (bias,)

    def upsampled(dst):
        _upsample_into(dst, x.data, up)

    write, mu, inv_std, sig = upsampled, None, None, None
    if norm is not None:
        # group_norm's arithmetic runs before the padded buffer exists; the
        # SiLU then spends y's buffer, which the adjoint keeps as the sigmoid
        y = np.empty_like(x.data)
        mu, inv_std = _normalize_into(y, x.data, groups, gamma.data, beta.data)
        taped = any(p.requires_grad for p in parents)
        write = functools.partial(_silu_into, y=y, keep_sigmoid=taped)
        sig = y if taped else None
        del y

    h_out = (h + 2 * padding - k) // s + 1
    w_out = (w + 2 * padding - k) // s + 1
    hq = -(-(h + 2 * padding) // s) + 1
    wq = -(-(w + 2 * padding) // s)
    phases = _phase_images(write, (c_in, h, w), x.dtype, s, padding, hq, wq)
    del write
    n = h_out * wq
    taps = [(i, j, i % s, j % s, (i // s) * wq + j // s)
            for i in range(k) for j in range(k)]

    # tap (0, 0) is phase (0, 0) at offset 0; the other products, which a
    # 1x1 kernel has none of, reuse tmp
    out = kernel.data[:, :, 0, 0] @ phases[0, 0, :, :n]
    tmp = np.empty_like(out) if k > 1 else None
    for i, j, a, b, off in taps[1:]:
        out += np.matmul(kernel.data[:, :, i, j], phases[a, b, :, off:off + n], out=tmp)

    def bwd(g):
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(g.sum(axis=(1, 2)))
        gf = np.zeros((c_out, h_out, wq), dtype=g.dtype)
        gf[:, :, :w_out] = g
        gf = gf.reshape(c_out, n)  # wrapped columns carry zero adjoint
        write = upsampled
        if norm is not None:
            y = np.empty_like(x.data)  # rebuilt with the forward's arithmetic
            _normalize_into(y, x.data, groups, gamma.data, beta.data, mu, inv_std)
            write = functools.partial(np.multiply, y, sig)
        if kernel.requires_grad:
            # im2col, rows ordered (channel, tap): one GEMM gives the kernel layout
            phases = _phase_images(write, (c_in, h, w), x.dtype, s, padding, hq, wq)
            cols = np.empty((c_in, k * k, n), dtype=x.dtype)
            for t, (_, _, a, b, off) in enumerate(taps):
                cols[:, t] = phases[a, b, :, off:off + n]
            del phases
            kernel.accumulate_grad((gf @ cols.reshape(c_in * k * k, n).T).reshape(kernel.shape))
            del cols
        if not any(t.requires_grad for t in upstream):
            return
        # one GEMM for every tap's K_ijᵀ @ g, scatter-added in tap order
        gcols = (kernel.data.reshape(c_out, c_in * k * k).T @ gf).reshape(c_in, k * k, n)
        gph = np.zeros((s, s, c_in, hq * wq), dtype=x.dtype)
        for t, (_, _, a, b, off) in enumerate(taps):
            gph[a, b, :, off:off + n] += gcols[:, t]
        del gcols
        gxp = gph.reshape(s, s, c_in, hq, wq).transpose(2, 3, 0, 4, 1)
        gxp = gxp.reshape(c_in, hq * s, wq * s)
        gu = gxp[:, padding:padding + h, padding:padding + w]  # of the conv's input
        if norm is not None:
            _norm_adjoint(_silu_adjoint(gu, y, sig), x, groups, gamma, beta, mu, inv_std)
        elif up > 1:
            x.accumulate_grad(_upsample_adjoint(np.ascontiguousarray(gu), up))
        else:
            x.accumulate_grad(gu)

    del phases, tmp  # freed before the cropped output exists
    view = out.reshape(c_out, h_out, wq)[:, :, :w_out]
    if bias is None:
        return from_op(np.ascontiguousarray(view), parents, bwd)
    res = np.empty(view.shape, dtype=np.result_type(view, bias.data))
    np.add(view, bias.data[:, None, None], out=res)
    return from_op(res, parents, bwd)


def _phase_images(write, shape, dtype, s: int, padding: int, hq: int, wq: int) -> np.ndarray:
    # (s, s, C, hq * wq): phase (a, b) is the zero-padded input's [:, a::s, b::s];
    # write(dst) puts the (C, H, W) input into dst, the padded buffer's interior
    c, h, w = shape
    xp = np.zeros((c, hq * s, wq * s), dtype=dtype)  # zero pad and tail
    write(xp[:, padding:padding + h, padding:padding + w])
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


def bicubic_weight_matrix(n: int, scale: int, dtype=np.float64, rows=slice(None)) -> np.ndarray:
    """(n*scale, n) interpolation matrix: separable Catmull-Rom, replicate edges.

    Output sample i reads input coordinate (i + 0.5) / scale - 0.5, so scale 1
    is the exact identity. ``rows``, a slice, builds only those rows; each
    row depends on its index alone, so they are the whole matrix's rows.
    """
    i = np.arange(*rows.indices(n * scale))
    src = (i + 0.5) / scale - 0.5
    i0 = np.floor(src)
    t = (src - i0)[:, None]
    idx = np.clip(i0.astype(np.int64)[:, None] + np.arange(-1, 3), 0, n - 1)
    wts = _catmull_rom(np.concatenate([1 + t, t, 1 - t, 2 - t], axis=1))
    m = np.zeros((i.size, n), dtype=np.float64)
    # taps clipped onto the same edge pixel add up, in tap order
    np.add.at(m, (np.arange(i.size)[:, None], idx), wts)
    return m.astype(dtype)


def bicubic_upsample(x, scale: int, window=(slice(None), slice(None))) -> Tensor:
    """Upscale (C, h, w) to (C, h*scale, w*scale) with separable bicubic.

    ``window``, a (rows, cols) pair of slices, asks for only that window of
    the output, ``out[:, rows, cols]``: the product runs on the window's rows
    of the two interpolation matrices, and nothing outside the window is
    built.

    The two orders of the separable product round differently, so the order
    is fixed by the input alone, never by the window: the longer input side
    is contracted first, and the h side on a tie. That is the order einsum's
    own search picks for the whole upsample, forward and adjoint, so a
    window runs the whole upsample's order. The result is the crop to the
    bit while BLAS multiplies the smaller operands with the kernels it uses
    for the whole ones, as it does for the 8- to 64-pixel fusion windows the
    tests cover; a window a few pixels across may differ in the last bits.
    """
    x = as_tensor(x)
    _require_chw(x, "bicubic_upsample")
    if int(scale) != scale or scale < 1:
        raise ValueError(f"bicubic_upsample: scale must be an integer >= 1, got {scale}")
    if not (isinstance(window, tuple) and len(window) == 2
            and all(isinstance(s, slice) for s in window)):
        raise ValueError(f"bicubic_upsample: window must be a (rows, cols) pair of slices,"
                         f" got {window!r}")
    scale = int(scale)
    _, h, w = x.shape
    mh = bicubic_weight_matrix(h, scale, x.dtype, rows=window[0])
    mw = bicubic_weight_matrix(w, scale, x.dtype, rows=window[1])
    # operands (mh, image, mw): the image meets mw first when w is longer
    path = ["einsum_path", (1, 2) if w > h else (0, 1), (0, 1)]
    out = np.einsum("oh,chw,pw->cop", mh, x.data, mw, optimize=path)

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(np.einsum("oh,cop,pw->chw", mh, g, mw, optimize=path))

    return from_op(np.ascontiguousarray(out), (x,), bwd)


def upsample_nearest(x, scale: int = 2) -> Tensor:
    """Repeat each pixel ``scale`` times along both spatial axes."""
    x = as_tensor(x)
    _require_chw(x, "upsample_nearest")
    c, h, w = x.shape
    out = np.empty((c, h * scale, w * scale), dtype=x.dtype)
    _upsample_into(out, x.data, scale)

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(_upsample_adjoint(g, scale))

    return from_op(out, (x,), bwd)


def _upsample_into(dst: np.ndarray, x: np.ndarray, scale: int) -> None:
    # dst[:, i*scale + a, j*scale + b] = x[:, i, j]; dst may be a view
    for a in range(scale):
        for b in range(scale):
            dst[:, a::scale, b::scale] = x


def _upsample_adjoint(g: np.ndarray, scale: int) -> np.ndarray:
    c, h, w = g.shape
    return g.reshape(c, h // scale, scale, w // scale, scale).sum(axis=(2, 4))


# ---------------------------------------------------------------------------
# Normalization and activations
# ---------------------------------------------------------------------------


def group_norm(x, groups: int, gamma, beta) -> Tensor:
    """Per-group standardization over (channels/groups, H, W), then affine.

    The variance is taken from the centred values (two passes), so a large
    common offset costs no float32 precision.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    _require_chw(x, "group_norm")
    _check_norm("group_norm", x, groups, gamma, beta)
    out = np.empty_like(x.data)
    mu, inv_std = _normalize_into(out, x.data, groups, gamma.data, beta.data)

    def bwd(g):
        _norm_adjoint(g, x, groups, gamma, beta, mu, inv_std)

    return from_op(out, (x, gamma, beta), bwd)


def _check_norm(op: str, x: Tensor, groups: int, gamma: Tensor, beta: Tensor) -> None:
    c = x.shape[0]
    if c % groups != 0:
        raise ValueError(f"{op}: {c} channels not divisible by {groups} groups")
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ValueError(f"{op}: gamma/beta must be shaped (C,)")


def _normalize_into(dst: np.ndarray, x: np.ndarray, groups: int, gamma: np.ndarray,
                    beta: np.ndarray, mu=None, inv_std=None):
    # (x - mu) * inv_std * gamma + beta per group, written into dst, an array
    # of x's shape; the statistics are computed when not given, and returned
    c = x.shape[0]
    if mu is None:
        mu = x.reshape(groups, -1).mean(axis=1, keepdims=True)
    np.subtract(x, np.repeat(mu, c // groups)[:, None, None], out=dst)
    if inv_std is None:
        var = (dst * dst).reshape(groups, -1).mean(axis=1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + GROUP_NORM_EPS)
    dst *= (gamma.reshape(groups, -1) * inv_std).reshape(c, 1, 1)
    dst += beta[:, None, None]
    return mu, inv_std


def _norm_adjoint(g: np.ndarray, x: Tensor, groups: int, gamma: Tensor, beta: Tensor,
                  mu: np.ndarray, inv_std: np.ndarray) -> None:
    # the standardized input is rebuilt from x, not kept
    c, h, w = x.shape
    xh = x.data.reshape(groups, -1) - mu
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


def _sigmoid(v: np.ndarray, out=None) -> np.ndarray:
    # 0.5 + 0.5 * tanh(0.5 * v) in one buffer; tanh is bounded, so no input overflows
    sig = np.multiply(v, 0.5, out=out)
    np.tanh(sig, out=sig)
    sig *= 0.5
    sig += 0.5
    return sig


def _silu_into(dst: np.ndarray, y: np.ndarray, keep_sigmoid: bool) -> None:
    # dst = y * sigmoid(y), for dst a strided view and y contiguous; y's buffer
    # becomes the sigmoid. A ufunc buffers every strided operand, up to 8192
    # values each, which on a small map outweighs the map: so dst is written
    # by copies, and unless the sigmoid is kept the product is formed in y's
    # buffer too
    dst[...] = y
    sig = _sigmoid(y, out=y)
    if keep_sigmoid:
        dst *= sig
    else:
        sig *= dst
        dst[...] = sig


def _silu_adjoint(g: np.ndarray, y: np.ndarray, sig: np.ndarray) -> np.ndarray:
    # g * sig * (1 + y * (1 - sig)) for sig = sigmoid(y); y is overwritten
    gy = 1.0 - sig
    y *= gy
    y += 1.0
    np.multiply(g, sig, out=gy)
    gy *= y
    return gy


def silu(x) -> Tensor:
    """x * sigmoid(x)."""
    x = as_tensor(x)
    sig = _sigmoid(x.data)

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(_silu_adjoint(g, x.data.copy(), sig))

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
