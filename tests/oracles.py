"""Independent reference computations the tests check the library against.

Everything here is deliberately naive (elementwise loops, brute-force Bayes,
finite differences) and shares no code with the implementation under test.
``fuse_tile_major`` and ``train_step_joint`` are the exceptions: they reuse
the network, the DDIM update and the optimizer, and are independent only in
their loop order, noise draws, blend and graph lifetime. So are
``conv_bias_unfused``, ``norm_conv_unfused`` and ``upsample_conv_unfused``:
each is the chain of primitives that one fused ``conv2d`` replaces.
``conv2d_per_tap`` keeps the per-tap adjoint ``conv2d`` ran before its taps
were stacked into one GEMM each way.
"""

import math

import numpy as np

from hsifusion.autodiff import Tensor, add, as_tensor, backward, from_op, scale
from hsifusion.datacube import as_cube_array
from hsifusion.denoiser import assemble_condition, predict_noise
from hsifusion.diffusion import eps_from_x0, q_sample, simple_loss
from hsifusion.ops import (
    add_channel_bias,
    bicubic_upsample,
    concat_channels,
    conv2d,
    group_norm,
    silu,
    upsample_nearest,
)
from hsifusion.sampler import ddim_sigma, ddim_step
from hsifusion.trainer import adam_step

FD_STEP = 1e-4


def numerical_grad(loss_fn, tensor: Tensor, h: float = FD_STEP) -> np.ndarray:
    """Central finite-difference gradient of a scalar-valued ``loss_fn``
    with respect to a float64 ``tensor``."""
    assert tensor.dtype == np.float64, f"finite differences need float64, got {tensor.dtype}"
    grad = np.zeros_like(tensor.data)
    flat = tensor.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        lp = loss_fn().item()
        flat[i] = orig - h
        lm = loss_fn().item()
        flat[i] = orig
        gflat[i] = (lp - lm) / (2.0 * h)
    return grad


def assert_grads_match(loss_fn, tensors, rtol: float = 1e-4, h: float = FD_STEP):
    """Backprop ``loss_fn`` once and compare every tensor's grad with FD."""
    for t in tensors:
        t.zero_grad()
    backward(loss_fn())
    for t in tensors:
        fd = numerical_grad(loss_fn, t, h=h)
        got = t.grad if t.grad is not None else np.zeros_like(t.data)
        scale = np.maximum(np.abs(fd), 1e-6)
        rel = np.abs(got - fd) / scale
        assert rel.max() < rtol, f"gradient mismatch: max rel err {rel.max():.3e}"


def conv2d_loops(x: np.ndarray, kernel: np.ndarray, stride: int, padding: int) -> np.ndarray:
    """Cross-correlation by one explicit window sum per output value."""
    c_in, h, w = x.shape
    c_out, _, k, _ = kernel.shape
    xp = np.zeros((c_in, h + 2 * padding, w + 2 * padding))
    xp[:, padding:padding + h, padding:padding + w] = x
    h_out = (h + 2 * padding - k) // stride + 1
    w_out = (w + 2 * padding - k) // stride + 1
    out = np.zeros((c_out, h_out, w_out))
    for o in range(c_out):
        for r in range(h_out):
            for c in range(w_out):
                window = xp[:, r * stride:r * stride + k, c * stride:c * stride + k]
                out[o, r, c] = float(np.sum(kernel[o] * window))
    return out


def conv2d_per_tap(x, kernel, stride: int, padding: int) -> Tensor:
    """Cross-correlation as one tape node whose adjoint runs one GEMM per
    kernel tap, the adjoint ``conv2d`` had before it stacked the taps: the
    kernel gradient's tap (i, j) is g @ W_ijᵀ, where W_ij is the (C_in,
    h_out * w_out) matrix of padded-input values tap (i, j) reads, and the
    input gradient adds K_ijᵀ @ g into each tap's strided window of the
    padded input, in tap order, then crops the padding."""
    x, kernel = as_tensor(x), as_tensor(kernel)
    c_in, h, w = x.shape
    c_out, _, k, _ = kernel.shape
    s, p = stride, padding
    h_out, w_out = (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
    xp = np.zeros((c_in, h + 2 * p, w + 2 * p), dtype=x.dtype)
    xp[:, p:p + h, p:p + w] = x.data
    taps = [(i, j) for i in range(k) for j in range(k)]

    def window(i, j):
        return (slice(None), slice(i, i + s * (h_out - 1) + 1, s),
                slice(j, j + s * (w_out - 1) + 1, s))

    def reads(i, j):
        return xp[window(i, j)].reshape(c_in, -1)

    out = sum(kernel.data[:, :, i, j] @ reads(i, j) for i, j in taps)

    def bwd(g):
        g = g.reshape(c_out, -1)
        if kernel.requires_grad:
            gk = np.empty_like(kernel.data)
            for i, j in taps:
                gk[:, :, i, j] = g @ reads(i, j).T
            kernel.accumulate_grad(gk)
        if x.requires_grad:
            gxp = np.zeros_like(xp)
            for i, j in taps:
                gxp[window(i, j)] += (kernel.data[:, :, i, j].T @ g).reshape(c_in, h_out, w_out)
            x.accumulate_grad(gxp[:, p:p + h, p:p + w])

    return from_op(out.reshape(c_out, h_out, w_out), (x, kernel), bwd)


def conv_bias_unfused(x, kernel, bias, stride: int, padding: int) -> Tensor:
    """``conv2d(x, kernel, stride, padding, bias=bias)`` as two tape nodes."""
    return add_channel_bias(conv2d(x, kernel, stride, padding), bias)


def norm_conv_unfused(x, groups: int, gamma, beta, kernel, bias, stride: int,
                      padding: int) -> Tensor:
    """``conv2d(x, kernel, stride, padding, bias=bias, norm=(groups, gamma,
    beta))`` as three tape nodes."""
    return conv2d(silu(group_norm(x, groups, gamma, beta)), kernel, stride, padding, bias=bias)


def upsample_conv_unfused(x, kernel, bias, stride: int, padding: int) -> Tensor:
    """``conv2d(x, kernel, stride, padding, bias=bias, upsample=2)`` as two
    tape nodes."""
    return conv2d(upsample_nearest(x, 2), kernel, stride, padding, bias=bias)


def attention_loops(x: np.ndarray, wq, wk, wv, wo) -> np.ndarray:
    """Residual single-head attention, one query token at a time."""
    c, h, w = x.shape
    tokens = [x[:, i, j] for i in range(h) for j in range(w)]
    keys = [t @ wk for t in tokens]
    values = [t @ wv for t in tokens]
    out = x.astype(np.float64)
    for n, t in enumerate(tokens):
        query = t @ wq
        logits = [float(query @ key) / math.sqrt(c) for key in keys]
        top = max(logits)
        weights = [math.exp(v - top) for v in logits]
        total = sum(weights)
        attended = sum(wt / total * val for wt, val in zip(weights, values))
        out[:, n // w, n % w] += attended @ wo
    return out


def gaussian_kl_equal_var(mu0: float, mu1: float, var: float) -> float:
    """KL(N(mu0, var) || N(mu1, var)) for scalars."""
    return (mu0 - mu1) ** 2 / (2.0 * var)


def simple_loss_chain(target: np.ndarray, pred: np.ndarray, p: int, g_out: np.ndarray):
    """Value and (target, pred) adjoints of the training loss as the chain
    of tape nodes it once was: d = target - pred, then |d| (p = 1) or d * d
    (p = 2), then the mean over all elements. Each node's numpy arithmetic
    is written out; ``g_out`` is the 0-d adjoint arriving at the loss."""
    d = target - pred
    x = np.abs(d) if p == 1 else d * d
    value = np.asarray(x.mean(), dtype=x.dtype)
    g = np.full_like(x, g_out.reshape(()) / x.size)  # the mean's adjoint
    # |d| passes g * sign(d); d * d passes g * d once through each factor
    g = g * np.sign(d) if p == 1 else (g * d) + (g * d)
    return value, g, -g


def bayes_posterior_1d(beta1: float, beta2: float, x2: float, x0: float):
    """q(x1 | x2, x0) for a two-step scalar chain, by completing the square.

    q(x2|x1) = N(sqrt(1-beta2) x1, beta2); q(x1|x0) = N(sqrt(1-beta1) x0, beta1).
    """
    prec = (1.0 - beta2) / beta2 + 1.0 / beta1
    mean = (math.sqrt(1.0 - beta2) * x2 / beta2 + math.sqrt(1.0 - beta1) * x0 / beta1) / prec
    return mean, 1.0 / prec


def posterior_coeffs_vectorised(betas, alpha_bars, one_minus_alpha_bars):
    """(coef_xt, coef_x0, var) arrays over t = 1..T by whole-array formulas;
    ``posterior_coeffs`` must match them bit for bit at every t."""
    prev_om, curr_om = one_minus_alpha_bars[:-1], one_minus_alpha_bars[1:]
    return (
        np.sqrt(1.0 - betas) * prev_om / curr_om,
        np.sqrt(alpha_bars[:-1]) * betas / curr_om,
        prev_om / curr_om * betas,
    )


def sam_loops(ref: np.ndarray, est: np.ndarray) -> float:
    """Spectral angle via explicit per-pixel loops (radians)."""
    bands, h, w = ref.shape
    total, count = 0.0, 0
    for i in range(h):
        for j in range(w):
            r = ref[:, i, j]
            e = est[:, i, j]
            nr = math.sqrt(float(np.dot(r, r)))
            ne = math.sqrt(float(np.dot(e, e)))
            if nr == 0.0 or ne == 0.0:
                continue
            c = float(np.dot(r, e)) / (nr * ne)
            total += math.acos(min(1.0, max(-1.0, c)))
            count += 1
    return total / count if count else 0.0


def ergas_loops(ref: np.ndarray, est: np.ndarray, scale: int) -> float:
    """Band-relative RMSE aggregate via explicit loops."""
    bands = ref.shape[0]
    acc = 0.0
    for b in range(bands):
        diff = ref[b] - est[b]
        rmse = math.sqrt(float(np.mean(diff * diff)))
        acc += (rmse / float(np.mean(ref[b]))) ** 2
    return 100.0 / scale * math.sqrt(acc / bands)


def stepwise_chain(x0: np.ndarray, t: int, betas: np.ndarray, rng) -> np.ndarray:
    """Apply the one-step diffusion kernel t times (betas[i] is beta_{i+1})."""
    x = x0.astype(np.float64)
    for s in range(t):
        beta = betas[s]
        x = math.sqrt(1.0 - beta) * x + math.sqrt(beta) * rng.standard_normal(x.shape)
    return x


def bicubic_weight_loops(n: int, scale: int) -> np.ndarray:
    """(n*scale, n) Catmull-Rom matrix, one output sample at a time.

    Taps outside [0, n) are clamped onto the edge pixel and add up there.
    """
    m = np.zeros((n * scale, n))
    for i in range(n * scale):
        src = (i + 0.5) / scale - 0.5
        i0 = math.floor(src)
        t = src - i0
        u = np.abs(np.array([1 + t, t, 1 - t, 2 - t]))  # distances to the 4 taps
        near = 1.5 * u**3 - 2.5 * u**2 + 1
        far = -0.5 * (u**3 - 5 * u**2 + 8 * u - 4)
        weights = np.where(u <= 1, near, np.where(u < 2, far, 0.0))
        for j, wt in zip((i0 - 1, i0, i0 + 1, i0 + 2), weights):
            m[i, min(max(j, 0), n - 1)] += wt
    return m


def report_whole_cube(ref: np.ndarray, est: np.ndarray, lo: float, hi: float,
                      scale: int) -> dict:
    """The report's metrics from whole 8-bit float64 cubes, one formula each."""
    r = (ref.astype(np.float64) - lo) * (255.0 / (hi - lo))
    e = (est.astype(np.float64) - lo) * (255.0 / (hi - lo))
    bands = r.shape[0]
    rf, ef = r.reshape(bands, -1), e.reshape(bands, -1)
    mses = ((rf - ef) ** 2).mean(axis=1)
    mse = float(np.mean((r - e) ** 2))
    r2, e2 = np.sum(rf * rf, axis=0), np.sum(ef * ef, axis=0)
    valid = (r2 > 0) & (e2 > 0)
    dot = np.sum(rf[:, valid] * ef[:, valid], axis=0)
    cos2 = np.clip(dot * np.abs(dot) / (r2[valid] * e2[valid]), -1.0, 1.0)
    angle = float(np.arccos(np.sign(cos2) * np.sqrt(np.abs(cos2))).mean()) if valid.any() else 0.0
    means = rf.mean(axis=1)
    ok = means != 0
    ergas = float(100.0 / scale * np.sqrt(np.mean(mses[ok] / means[ok] ** 2))) if ok.any() else 0.0

    def box(img, k=8):
        c = np.pad(np.cumsum(np.cumsum(img, axis=0), axis=1), ((1, 0), (1, 0)))
        return (c[k:, k:] - c[:-k, k:] - c[k:, :-k] + c[:-k, :-k]) / (k * k)

    ssims = []
    for x, y in zip(r, e):
        mx, my = box(x), box(y)
        vx, vy, cov = box(x * x) - mx * mx, box(y * y) - my * my, box(x * y) - mx * my
        c1, c2 = (0.01 * 255.0) ** 2, (0.03 * 255.0) ** 2
        ssims.append(np.mean((2 * mx * my + c1) * (2 * cov + c2)
                             / ((mx * mx + my * my + c1) * (vx + vy + c2))))
    return {
        "psnr_db": math.inf if mse == 0 else 10.0 * math.log10(255.0**2 / mse),
        "sam_rad": angle, "sam_deg": math.degrees(angle),
        "sam_skipped_fraction": float(1.0 - valid.mean()),
        "ergas": ergas, "ssim": float(np.mean(ssims)),
        "band_rmse": [float(v) for v in np.sqrt(mses)],
    }


def fuse_tile_major(params, cfg, sched, y, z, tau, sigma_mode="zero", rng_seed=0,
                    tile=None, tile_stride=48) -> np.ndarray:
    """Fused array of ``sampler.fuse``, computed tile-major: every noise field
    drawn up front as a whole float64 cube, each tile taken through all DDIM
    steps before the next tile starts, and blended as soon as it is done."""
    params = {n: Tensor(p.data, dtype=p.data.dtype.type) for n, p in params.items()}
    y_arr, z_arr = as_cube_array(y), as_cube_array(z).astype(np.float32)
    shape = (cfg.bands,) + z_arr.shape[1:]
    rng = np.random.default_rng(rng_seed)
    x_init = rng.normal(size=shape).astype(np.float32)
    step_noise = [rng.normal(size=shape).astype(np.float32) for _ in range(len(tau) - 1)
                  if sigma_mode != "zero"]
    y_up = bicubic_upsample(as_tensor(y_arr.astype(np.float32)), cfg.scale).data
    steps = list(tau.steps)[::-1]

    def run_tile(sl):
        x = x_init[sl]
        for i, t in enumerate(steps):
            t_prev = steps[i + 1] if i + 1 < len(steps) else 0
            cond = concat_channels([as_tensor(x), as_tensor(z_arr[sl]), as_tensor(y_up[sl])])
            eps_hat = predict_noise(params, cfg, cond, t).data
            if cfg.prediction == "x0":
                eps_hat = eps_from_x0(x, eps_hat, t, sched)
            noise = step_noise[i][sl] if step_noise and t_prev > 0 else None
            x = ddim_step(x, eps_hat, t, t_prev, ddim_sigma(sched, t, t_prev, sigma_mode),
                          sched, noise=noise)
        return x

    if tile is None:
        return np.clip(run_tile(np.s_[:, :, :]), 0.0, 1.0)

    def starts(extent):
        if extent <= tile:
            return [0]
        return list(range(0, extent - tile, tile_stride)) + [extent - tile]

    overlap = tile - tile_stride
    win = np.ones(tile)
    for i in range(overlap):
        ramp = (i + 1) / (overlap + 1.0)
        win[i] = min(win[i], ramp)
        win[tile - 1 - i] = min(win[tile - 1 - i], ramp)
    acc = np.zeros(shape)
    weight = np.zeros(shape[1:])
    for r in starts(shape[1]):
        for c in starts(shape[2]):
            sl = np.s_[:, r:r + tile, c:c + tile]
            patch = run_tile(sl)
            w2d = np.outer(win[:patch.shape[1]], win[:patch.shape[2]])
            acc[sl] += patch * w2d
            weight[r:r + tile, c:c + tile] += w2d
    return np.clip(acc / np.maximum(weight, 1e-12), 0.0, 1.0).astype(np.float32)


def train_step_joint(params, opt, batch, sched, loss_p, lr, rng, cfg) -> float:
    """``trainer.train_step``'s update and returned loss, computed with every
    item's graph built first, joined into one batch-mean loss and
    backpropagated once."""
    loss = None
    for x0, y, z in batch:
        x0 = as_cube_array(x0).astype(np.float32)
        t = int(rng.integers(1, sched.T + 1))
        eps = rng.standard_normal(x0.shape).astype(np.float32)
        cond = assemble_condition(q_sample(x0, t, eps, sched),
                                  np.asarray(y, dtype=np.float32), np.asarray(z, dtype=np.float32))
        pred = predict_noise(params, cfg, cond, t)
        item_loss = simple_loss(x0 if cfg.prediction == "x0" else eps, pred, loss_p)
        loss = item_loss if loss is None else add(loss, item_loss)
    loss = scale(loss, 1.0 / len(batch))
    value = loss.item()
    backward(loss)
    adam_step(params, opt, lr)
    for p in params.values():
        p.zero_grad()
    return value
