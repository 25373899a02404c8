import inspect
import itertools
import warnings

import numpy as np
import pytest

import hsifusion.autodiff as ad
from hsifusion.autodiff import Tensor, backward
from hsifusion import ops
from hsifusion.diffusion import simple_loss

from oracles import (
    assert_grads_match,
    attention_loops,
    bicubic_weight_loops,
    conv2d_loops,
    conv2d_per_tap,
    conv_bias_unfused,
    norm_conv_unfused,
    upsample_conv_unfused,
)


def _sq_loss(out):
    return simple_loss(np.zeros(out.shape, out.dtype), out, 2)


class TestConv2d:
    def test_identity_kernel(self, rng):
        x = rng.normal(size=(1, 3, 3)).astype(np.float32)
        kernel = np.ones((1, 1, 1, 1), dtype=np.float32)
        out = ops.conv2d(Tensor(x), Tensor(kernel))
        np.testing.assert_array_equal(out.data, x)

    def test_box_kernel_on_constant(self):
        # 3x3 all-ones kernel over a constant-7 image, pad 1: interior pixels
        # sum 9 taps, edges 6, corners 4
        x = Tensor(np.full((1, 5, 5), 7.0, dtype=np.float32))
        k = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
        out = ops.conv2d(x, k, padding=1).data[0]
        assert out[2, 2] == 63.0
        assert out[0, 0] == 28.0
        assert out[0, 2] == 42.0

    def test_output_size_formula(self, rng):
        x = Tensor(rng.normal(size=(2, 11, 9)))
        k = Tensor(rng.normal(size=(4, 2, 3, 3)))
        assert ops.conv2d(x, k, stride=2, padding=1).shape == (4, 6, 5)

    def test_channel_mismatch(self, rng):
        with pytest.raises(ValueError, match="channels"):
            ops.conv2d(Tensor(rng.normal(size=(3, 5, 5))),
                       Tensor(rng.normal(size=(2, 4, 3, 3))))

    def test_even_kernel_rejected(self, rng):
        with pytest.raises(ValueError, match="odd"):
            ops.conv2d(Tensor(rng.normal(size=(1, 5, 5))),
                       Tensor(rng.normal(size=(1, 1, 2, 2))))

    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("side", [1, 3, 5])
    def test_matches_loop_oracle(self, rng, stride, padding, side):
        x = rng.normal(size=(2, 7, 9))
        k = rng.normal(size=(3, 2, side, side))
        out = ops.conv2d(Tensor(x), Tensor(k), stride, padding).data
        np.testing.assert_allclose(out, conv2d_loops(x, k, stride, padding),
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("stride,padding,side,size", [
        pytest.param(1, 0, 3, (4, 4), id="1-0"),
        pytest.param(1, 1, 3, (4, 4), id="1-1"),
        pytest.param(2, 1, 3, (4, 4), id="2-1"),
        pytest.param(2, 0, 3, (4, 4), id="2-0"),
        pytest.param(1, 0, 1, (4, 4), id="k1"),  # the model's skip convs
        pytest.param(1, 2, 5, (4, 4), id="k5-pad2"),
        pytest.param(3, 0, 3, (8, 8), id="3-0-tail"),  # last 2 rows never reached
        # odd sides under stride 2 and 3: the phase images differ in size
        pytest.param(2, 1, 3, (7, 7), id="2-1-odd"),
        pytest.param(2, 0, 5, (7, 7), id="2-0-k5-odd"),
        pytest.param(3, 2, 5, (7, 7), id="3-2-k5-odd"),
        # non-square inputs: the phase images are not square either
        pytest.param(2, 1, 3, (5, 8), id="2-1-5x8"),
        pytest.param(2, 1, 3, (8, 5), id="2-1-8x5"),
        pytest.param(3, 0, 3, (4, 10), id="3-0-4x10"),
        pytest.param(1, 2, 5, (9, 3), id="k5-pad2-9x3"),
    ])
    def test_gradients(self, rng, stride, padding, side, size):
        x = Tensor(rng.normal(size=(2, *size)), requires_grad=True)
        k = Tensor(rng.normal(size=(3, 2, side, side)), requires_grad=True)
        assert_grads_match(lambda: _sq_loss(ops.conv2d(x, k, stride, padding)), [x, k])

    @pytest.mark.parametrize("stride,padding,side", [(1, 1, 3), (2, 1, 3), (2, 0, 3), (1, 0, 1)])
    def test_gradients_with_bias(self, rng, stride, padding, side):
        x = Tensor(rng.normal(size=(2, 5, 6)), requires_grad=True)
        k = Tensor(rng.normal(size=(3, 2, side, side)), requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)
        assert_grads_match(lambda: _sq_loss(ops.conv2d(x, k, stride, padding, bias=b)),
                           [x, k, b])

    def test_one_by_one_kernel_allocates_no_product_buffer(self, rng, peak_alloc):
        # 2.17 outputs while a product buffer the size of the output was
        # allocated for the taps after the first, which a 1x1 kernel has
        # not; 1.17 without it
        x = Tensor(rng.normal(size=(2, 32, 32)).astype(np.float32))
        k = Tensor(rng.normal(size=(16, 2, 1, 1)).astype(np.float32))
        with peak_alloc() as mem:
            out = ops.conv2d(x, k)
        cubes = mem.peak / out.data.nbytes
        assert cubes <= 1.5, f"a 1x1 conv peaked at {cubes:.2f} outputs"

    def test_closure_keeps_only_parents(self, rng):
        x = Tensor(rng.normal(size=(3, 6, 7)), requires_grad=True)
        k = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        assert _held_arrays(ops.conv2d(x, k, stride=2, padding=1)) == []
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        assert _held_arrays(ops.conv2d(x, k, stride=2, padding=1, bias=b)) == []


def _held_arrays(out):
    """Arrays captured by ``out``'s adjoint beyond its parents' buffers."""
    parents = [p.data for p in out._parents]
    return [c.cell_contents for c in out._backward_fn.__closure__
            if isinstance(c.cell_contents, np.ndarray)
            and not any(np.shares_memory(c.cell_contents, d) for d in parents)]


class TestConv2dAdjoint:
    """The stacked-tap adjoint (one im2col GEMM for the kernel gradient, one
    for the input gradient) against the per-tap adjoint of
    ``oracles.conv2d_per_tap``, chained with the layers a fused conv takes."""

    @staticmethod
    def _grads(layer, fused, arrays, stride, padding):
        x, k, b, gamma, beta = tensors = [Tensor(a, requires_grad=True) for a in arrays]
        if fused:
            kw = {"plain": {}, "bias": {"bias": b}, "norm": {"bias": b, "norm": (2, gamma, beta)},
                  "upsample": {"upsample": 2}}[layer]
            out = ops.conv2d(x, k, stride, padding, **kw)
        else:
            if layer == "norm":
                x = ops.silu(ops.group_norm(x, 2, gamma, beta))
            elif layer == "upsample":
                x = ops.upsample_nearest(x, 2)
            out = conv2d_per_tap(x, k, stride, padding)
            if layer in ("bias", "norm"):
                out = ops.add_channel_bias(out, b)
        # the loss sum(out * probe) hands both sides the same output adjoint
        probe = np.random.default_rng(3).normal(size=out.shape).astype(out.dtype)
        backward(ad.from_op(np.asarray((out.data * probe).sum(), dtype=out.dtype), (out,),
                            lambda g: out.accumulate_grad(g * probe)))
        return [t.grad for t in tensors]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("layer", ["plain", "bias", "norm", "upsample"])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("side", [1, 3])
    def test_matches_per_tap_adjoint(self, rng, dtype, layer, stride, padding, side):
        size = (4, 5) if layer == "upsample" else (7, 6)
        arrays = [a.astype(dtype) for a in (
            rng.normal(size=(4, *size)), rng.normal(size=(3, 4, side, side)),
            rng.normal(size=(3,)), rng.normal(size=(4,)), rng.normal(size=(4,)))]
        got = self._grads(layer, True, arrays, stride, padding)
        want = self._grads(layer, False, arrays, stride, padding)
        for name, g, w in zip(("x", "kernel", "bias", "gamma", "beta"), got, want):
            assert (g is None) == (w is None), name
            if g is None:
                continue
            assert g.dtype == dtype, name
            if dtype == np.float64:
                np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12 * np.abs(w).max(),
                                           err_msg=name)
            else:  # a few ulps of the gradient's largest value
                ulps = np.abs(g - w).max() / np.spacing(np.abs(w).max())
                assert ulps <= 4, f"{name} gradient off by {ulps:.1f} ulps"

    def test_adjoint_holds_one_stacked_buffer(self, rng, peak_alloc):
        # the stacked buffer is C_in * k² * h_out * wq values: the im2col
        # columns of the kernel gradient, then the K^T @ g columns of the
        # input gradient, never both. 1.34 stacked buffers here (0.51 for
        # the per-tap loops); 2.34 would mean both were alive at once
        x = Tensor(rng.normal(size=(32, 32, 32)).astype(np.float32), requires_grad=True)
        k = Tensor(rng.normal(size=(32, 32, 3, 3)).astype(np.float32), requires_grad=True)
        out = ops.conv2d(x, k, 1, 1)
        g = rng.normal(size=out.shape).astype(np.float32)
        stacked = 32 * 9 * 32 * 34 * 4  # wq = 32 + 2 * padding
        with peak_alloc() as mem:
            out._backward_fn(g)
        assert x.grad is not None and k.grad is not None
        assert mem.peak <= 1.6 * stacked, (
            f"the adjoint peaked at {mem.peak / stacked:.2f} stacked buffers")


class TestBicubicUpsample:
    def test_constant_preserved(self, rng):
        x = Tensor(np.full((2, 5, 4), 3.25, dtype=np.float64))
        for scale in (1, 2, 3):
            out = ops.bicubic_upsample(x, scale)
            np.testing.assert_allclose(out.data, 3.25, atol=1e-12)

    def test_scale_one_is_identity(self, rng):
        x = rng.normal(size=(3, 6, 7))
        out = ops.bicubic_upsample(Tensor(x, dtype=np.float64), 1)
        np.testing.assert_allclose(out.data, x, atol=1e-12)

    def test_linear_ramp_reproduced_interior(self):
        # bicubic interpolation is exact for polynomials up to degree 2 away
        # from the replicated borders
        h = w = 8
        ramp = (np.arange(h)[:, None] * 2.0 + np.arange(w)[None, :] * 0.5)
        x = Tensor(ramp[None].astype(np.float64))
        out = ops.bicubic_upsample(x, 2).data[0]
        yy = (np.arange(2 * h) + 0.5) / 2 - 0.5
        xx = (np.arange(2 * w) + 0.5) / 2 - 0.5
        expected = yy[:, None] * 2.0 + xx[None, :] * 0.5
        interior = np.s_[4:-4, 4:-4]
        np.testing.assert_allclose(out[interior], expected[interior], atol=1e-5)

    def test_bad_scale(self, rng):
        with pytest.raises(ValueError, match="scale"):
            ops.bicubic_upsample(Tensor(rng.normal(size=(1, 4, 4))), 0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 16, 32])
    @pytest.mark.parametrize("scale", [1, 2, 3, 8])
    def test_weight_matrix_matches_loop_oracle(self, n, scale):
        want = bicubic_weight_loops(n, scale)
        for dtype in (np.float32, np.float64):
            got = ops.bicubic_weight_matrix(n, scale, dtype=dtype)
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, want.astype(dtype))

    def test_gradient(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 3)), requires_grad=True)
        assert_grads_match(lambda: _sq_loss(ops.bicubic_upsample(x, 2)), [x])

    def test_windows_of_a_tiling_are_crops_bitwise(self, rng):
        # the benchmark's tiled condition: 31 x 32^2 up 8x to 256^2, tile 64
        # at stride 48, the last window pulled back to the scene edge; the
        # wide and the tall scene take the two contraction orders
        for shape in ((31, 32, 32), (31, 24, 40), (31, 40, 24)):
            x = Tensor(rng.random(shape).astype(np.float32))
            whole = ops.bicubic_upsample(x, 8).data
            rows, cols = ([*range(0, n - 64, 48), n - 64] for n in whole.shape[1:])
            for r in rows:
                for c in cols:
                    window = (slice(r, r + 64), slice(c, c + 64))
                    got = ops.bicubic_upsample(x, 8, window).data
                    assert got.flags.c_contiguous
                    assert got.tobytes() == whole[(slice(None), *window)].tobytes(), (shape, window)

    @pytest.mark.parametrize("shape", [(31, 24, 40), (31, 40, 24), (31, 32, 32)])
    def test_order_is_einsums_own_for_the_whole_upsample(self, rng, shape):
        # the fixed order rule picks what einsum's search picks, forward and
        # adjoint, so fused cubes keep their bits
        x = Tensor(rng.random(shape).astype(np.float32), requires_grad=True)
        mh, mw = (ops.bicubic_weight_matrix(n, 8, np.float32) for n in shape[1:])
        out = ops.bicubic_upsample(x, 8)
        want = np.einsum("oh,chw,pw->cop", mh, x.data, mw, optimize=True)
        assert out.data.tobytes() == np.ascontiguousarray(want).tobytes()
        g = rng.random(out.shape).astype(np.float32)
        out._backward_fn(g)
        want = np.einsum("oh,cop,pw->chw", mh, g, mw, optimize=True)
        assert x.grad.tobytes() == np.ascontiguousarray(want).tobytes()

    @pytest.mark.parametrize("shape,window", [
        pytest.param((31, 32, 32), window, id=f"window{i}") for i, window in enumerate([
            (slice(0, 24), slice(0, 4)), (slice(0, 4), slice(0, 24)),
            (slice(200, 300), slice(None)), (slice(None), slice(250, 256))])
    ] + [
        pytest.param(shape, window, id=f"{shape[1]}x{shape[2]}-window{i}")
        for shape in ((31, 24, 40), (31, 40, 24)) for i, window in enumerate([
            (slice(0, 24), slice(0, 4)), (slice(0, 4), slice(0, 24)),
            (slice(150, 400), slice(None)), (slice(None), slice(180, 192))])
    ])
    def test_window_cut_by_the_edge_or_lopsided_is_a_crop_bitwise(self, rng, shape, window):
        # a lopsided window makes einsum prefer the other contraction order
        # for its own operand sizes; the whole upsample's order is kept
        x = Tensor(rng.random(shape).astype(np.float32))
        whole = ops.bicubic_upsample(x, 8).data
        got = ops.bicubic_upsample(x, 8, window).data
        assert got.tobytes() == whole[(slice(None), *window)].tobytes()

    @pytest.mark.parametrize("window", [(slice(8, 9), slice(3, 67)), (slice(5, 8), slice(9, 12))])
    def test_window_a_few_pixels_across_is_a_crop_to_rounding(self, rng, window):
        # BLAS may run products this small through other kernels than the
        # whole upsample's, so only the values, not the bits, are the crop's
        x = Tensor(rng.random((31, 32, 32)).astype(np.float32))
        whole = ops.bicubic_upsample(x, 8).data
        got = ops.bicubic_upsample(x, 8, window).data
        np.testing.assert_allclose(got, whole[(slice(None), *window)], rtol=1e-6, atol=1e-6)

    def test_window_builds_only_its_rows(self, rng, peak_alloc):
        # 6.5 MB when both whole interpolation matrices were built, the
        # float64 (2048, 256) one among them, and the window's rows cut out;
        # 0.2 MB when only the window's rows are built
        x = Tensor(rng.random((1, 256, 4)).astype(np.float32))
        with peak_alloc() as mem:
            out = ops.bicubic_upsample(x, 8, (slice(1000, 1064), slice(None)))
        assert out.shape == (1, 64, 32)
        assert mem.peak < 2048 * 256 * 4, f"a 64-row window allocated {mem.peak / 1e6:.2f} MB"

    def test_window_gradient(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        window = (slice(1, 5), slice(3, 8))
        assert_grads_match(lambda: _sq_loss(ops.bicubic_upsample(x, 2, window)), [x])

    def test_window_adjoint_keeps_the_window_rows_only(self, rng):
        x = Tensor(rng.normal(size=(2, 4, 5)), requires_grad=True)
        out = ops.bicubic_upsample(x, 4, (slice(2, 9), slice(0, 3)))
        assert out.shape == (2, 7, 3)
        assert sorted(a.shape for a in _held_arrays(out)) == [(3, 5), (7, 4)]

    @pytest.mark.parametrize("window", [slice(0, 4), (slice(0, 4),), (0, slice(None)),
                                        [slice(None), slice(None)]])
    def test_bad_window(self, rng, window):
        with pytest.raises(ValueError, match="window"):
            ops.bicubic_upsample(Tensor(rng.normal(size=(1, 4, 4))), 2, window)


class TestGroupNorm:
    def test_standardizes_groups(self, rng):
        c, groups = 8, 4
        x = Tensor(rng.normal(size=(c, 6, 6)) * 3 + 1)
        out = ops.group_norm(x, groups, Tensor(np.ones(c)), Tensor(np.zeros(c))).data
        per_group = out.reshape(groups, -1)
        np.testing.assert_allclose(per_group.mean(axis=1), 0, atol=1e-5)
        np.testing.assert_allclose(per_group.var(axis=1), 1, atol=1e-3)

    def test_constant_input_zeroed(self):
        x = Tensor(np.full((4, 3, 3), 9.0))
        out = ops.group_norm(x, 2, Tensor(np.ones(4)), Tensor(np.zeros(4))).data
        np.testing.assert_allclose(out, 0, atol=1e-4)

    def test_divisibility_enforced(self, rng):
        x = Tensor(rng.normal(size=(6, 4, 4)))
        with pytest.raises(ValueError, match="divisible"):
            ops.group_norm(x, 4, Tensor(np.ones(6)), Tensor(np.zeros(6)))

    def test_float32_offset_input(self, rng):
        # two-pass variance: a large common offset costs no precision
        x = (1e3 + rng.normal(size=(8, 16, 16))).astype(np.float32)
        gamma = rng.normal(size=8).astype(np.float32)
        beta = rng.normal(size=8).astype(np.float32)
        out = ops.group_norm(Tensor(x), 4, Tensor(gamma), Tensor(beta)).data
        xg = x.astype(np.float64).reshape(4, -1)
        xhat = (xg - xg.mean(axis=1, keepdims=True)) / np.sqrt(
            xg.var(axis=1, keepdims=True) + ops.GROUP_NORM_EPS)
        ref = gamma[:, None, None] * xhat.reshape(x.shape) + beta[:, None, None]
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, ref, rtol=1e-3, atol=1e-3 * np.abs(ref).max())

    def test_closure_keeps_per_group_statistics(self, rng):
        x = Tensor(rng.normal(size=(8, 5, 5)), requires_grad=True)
        gamma = Tensor(rng.normal(size=(8,)), requires_grad=True)
        beta = Tensor(rng.normal(size=(8,)), requires_grad=True)
        held = _held_arrays(ops.group_norm(x, 4, gamma, beta))
        assert held and all(a.shape == (4, 1) for a in held)

    def test_gradients(self, rng):
        x = Tensor(rng.normal(size=(4, 3, 3)), requires_grad=True)
        gamma = Tensor(rng.normal(size=(4,)), requires_grad=True)
        beta = Tensor(rng.normal(size=(4,)), requires_grad=True)
        assert_grads_match(
            lambda: _sq_loss(ops.group_norm(x, 2, gamma, beta)), [x, gamma, beta]
        )


class TestSelfAttention:
    def test_zero_projections_passthrough(self, rng):
        c = 4
        x = rng.normal(size=(c, 3, 3)).astype(np.float32)
        zeros = Tensor(np.zeros((c, c), dtype=np.float32))
        out = ops.self_attention(Tensor(x), zeros, zeros, zeros, zeros)
        np.testing.assert_array_equal(out.data, x)

    @pytest.mark.parametrize("shape", [(1, 1, 1), (3, 3, 3), (4, 2, 5), (2, 5, 1)])
    def test_matches_oracle(self, rng, shape):
        c = shape[0]
        x = rng.normal(size=shape)
        mats = [rng.normal(size=(c, c)) for _ in range(4)]
        out = ops.self_attention(Tensor(x), *[Tensor(m) for m in mats]).data
        np.testing.assert_allclose(out, attention_loops(x, *mats), rtol=1e-12, atol=1e-12)

    def test_gradients(self, rng):
        c = 3
        x = Tensor(rng.normal(size=(c, 3, 3)), requires_grad=True)
        mats = [Tensor(rng.normal(size=(c, c)) * 0.5, requires_grad=True) for _ in range(4)]
        assert_grads_match(
            lambda: _sq_loss(ops.self_attention(x, *mats)), [x] + mats
        )

    @pytest.mark.parametrize("x_trainable", [False, True], ids=["weights", "input"])
    def test_gradients_with_constant_parents(self, rng, x_trainable):
        c = 3
        x = Tensor(rng.normal(size=(c, 2, 4)), requires_grad=x_trainable)
        mats = [Tensor(rng.normal(size=(c, c)) * 0.5, requires_grad=not x_trainable)
                for _ in range(4)]
        trainable = [x] if x_trainable else mats
        assert_grads_match(lambda: _sq_loss(ops.self_attention(x, *mats)), trainable)
        assert all(t.grad is None for t in [x] + mats if t not in trainable)

    def test_large_logits_finite(self, rng):
        c = 4
        x = Tensor(rng.normal(size=(c, 3, 3)).astype(np.float32) * 1e3, requires_grad=True)
        mats = [Tensor(rng.normal(size=(c, c)).astype(np.float32)) for _ in range(4)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = ops.self_attention(x, *mats)
            backward(_sq_loss(out))
        assert np.all(np.isfinite(out.data)) and np.all(np.isfinite(x.grad))

    def test_records_one_node(self, op_outputs, rng):
        x = Tensor(rng.normal(size=(4, 3, 3)), requires_grad=True)
        mats = [Tensor(rng.normal(size=(4, 4)), requires_grad=True) for _ in range(4)]
        out = ops.self_attention(x, *mats)
        assert len(op_outputs) == 1 and op_outputs[0] is out


class TestElementwisePrimitives:
    def test_silu_values(self):
        x = Tensor(np.array([0.0, 100.0, -100.0]))
        out = ops.silu(x).data
        np.testing.assert_allclose(out, [0.0, 100.0, 0.0], atol=1e-6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = ops.silu(Tensor(np.array([1e4, -1e4], dtype=np.float32))).data
        np.testing.assert_array_equal(out, [1e4, 0.0])

    def test_silu_gradient(self, rng):
        x = Tensor(rng.normal(size=(10,)), requires_grad=True)
        assert_grads_match(lambda: _sq_loss(ops.silu(x)), [x])

    def test_add_scale_gradients(self, rng):
        a = Tensor(rng.normal(size=(6,)), requires_grad=True)
        b = Tensor(rng.normal(size=(6,)), requires_grad=True)
        assert_grads_match(lambda: _sq_loss(ad.add(a, b)), [a, b])
        assert_grads_match(lambda: _sq_loss(ad.scale(a, -0.7)), [a])


class TestDense:
    def test_affine_values(self, rng):
        w = rng.normal(size=(3, 4))
        x = rng.normal(size=(4,))
        b = rng.normal(size=(3,))
        out = ops.dense(Tensor(x), Tensor(w), Tensor(b)).data
        np.testing.assert_allclose(out, w @ x + b, rtol=1e-6)

    def test_gradients(self, rng):
        x = Tensor(rng.normal(size=(4,)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)
        assert_grads_match(lambda: _sq_loss(ops.dense(x, w, b)), [x, w, b])

    def test_bias_shape_checked(self, rng):
        with pytest.raises(ValueError):
            ops.dense(Tensor(rng.normal(size=(4,))), Tensor(rng.normal(size=(3, 4))),
                      Tensor(rng.normal(size=(4,))))


class TestChannelOps:
    def test_concat_then_split_identity(self, rng):
        parts = [rng.normal(size=(c, 4, 4)).astype(np.float32) for c in (2, 3, 1)]
        merged = ops.concat_channels([Tensor(p) for p in parts])
        back = np.split(merged.data, [2, 5])
        for orig, piece in zip(parts, back):
            np.testing.assert_array_equal(orig, piece)

    def test_concat_gradient(self, rng):
        a = Tensor(rng.normal(size=(2, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(1, 3, 3)), requires_grad=True)
        assert_grads_match(lambda: _sq_loss(ops.concat_channels([a, b])), [a, b])

    def test_spatial_mismatch(self, rng):
        with pytest.raises(ValueError, match="spatial"):
            ops.concat_channels([Tensor(rng.normal(size=(1, 3, 3))),
                                 Tensor(rng.normal(size=(1, 4, 4)))])

    def test_add_channel_bias_gradient(self, rng):
        x = Tensor(rng.normal(size=(3, 4, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)
        assert_grads_match(lambda: _sq_loss(ops.add_channel_bias(x, b)), [x, b])


class TestResampling:
    def test_upsample_nearest_values(self):
        x = Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
        out = ops.upsample_nearest(x, 2).data[0]
        np.testing.assert_array_equal(out[:2, :2], 1.0)
        np.testing.assert_array_equal(out[2:, 2:], 4.0)

    def test_down_then_up_gradients(self, rng):
        x = Tensor(rng.normal(size=(2, 4, 4)), requires_grad=True)
        assert_grads_match(lambda: _sq_loss(ops.upsample_nearest(x, 2)), [x])


class TestFusedLayers:
    """``conv2d(bias=)``, ``conv2d(norm=)`` and ``conv2d(upsample=2)`` against
    the chains of primitives they replace: the same bytes in float32, output
    and gradients."""

    @staticmethod
    def _run(op, arrays, taped):
        tensors = [Tensor(a, requires_grad=taped) for a in arrays]
        out = op(*tensors)
        if taped:
            target = np.random.default_rng(5).normal(size=out.shape).astype(np.float32)
            backward(simple_loss(target, out, 2))
        return [out.data] + [t.grad for t in tensors if taped]

    def _assert_same_bytes(self, fused, unfused, arrays):
        arrays = [a.astype(np.float32) for a in arrays]
        for taped in (False, True):
            got, want = self._run(fused, arrays, taped), self._run(unfused, arrays, taped)
            assert len(got) == len(want) == (1 + len(arrays) if taped else 1)
            for g, w in zip(got, want):
                assert g.dtype == np.float32 and g.shape == w.shape
                assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("side", [1, 3])
    def test_conv_bias_matches_unfused(self, rng, stride, padding, side):
        arrays = [rng.normal(size=(3, 7, 6)), rng.normal(size=(4, 3, side, side)),
                  rng.normal(size=(4,))]
        self._assert_same_bytes(lambda x, k, b: ops.conv2d(x, k, stride, padding, bias=b),
                                lambda x, k, b: conv_bias_unfused(x, k, b, stride, padding),
                                arrays)

    @pytest.mark.parametrize("groups", [1, 2, 4])
    def test_norm_silu_matches_unfused(self, rng, groups):
        # GroupNorm -> SiLU -> conv + bias against the three-node chain
        for stride, padding in itertools.product((1, 2), (0, 1)):
            arrays = [rng.normal(size=(4, 5, 6)) * 3 + 1, rng.normal(size=(4,)),
                      rng.normal(size=(4,)), rng.normal(size=(3, 4, 3, 3)), rng.normal(size=(3,))]
            self._assert_same_bytes(
                lambda x, g, b, k, c: ops.conv2d(x, k, stride, padding, bias=c,
                                                 norm=(groups, g, b)),
                lambda x, g, b, k, c: norm_conv_unfused(x, groups, g, b, k, c, stride, padding),
                arrays)

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("side", [1, 3])
    def test_upsample_matches_unfused(self, rng, stride, padding, side):
        arrays = [rng.normal(size=(3, 4, 5)), rng.normal(size=(4, 3, side, side)),
                  rng.normal(size=(4,))]
        self._assert_same_bytes(
            lambda x, k, b: ops.conv2d(x, k, stride, padding, bias=b, upsample=2),
            lambda x, k, b: upsample_conv_unfused(x, k, b, stride, padding), arrays)

    @pytest.mark.parametrize("groups", [1, 2, 4])
    def test_norm_gradients(self, rng, groups):
        # odd and non-square sizes, both strides
        for stride, padding, size in [(1, 1, (3, 3)), (2, 1, (5, 4)), (2, 0, (5, 5)),
                                      (1, 0, (3, 4))]:
            x = Tensor(rng.normal(size=(4, *size)), requires_grad=True)
            gamma = Tensor(rng.normal(size=(4,)), requires_grad=True)
            beta = Tensor(rng.normal(size=(4,)), requires_grad=True)
            k = Tensor(rng.normal(size=(3, 4, 3, 3)), requires_grad=True)
            b = Tensor(rng.normal(size=(3,)), requires_grad=True)
            assert_grads_match(
                lambda: _sq_loss(ops.conv2d(x, k, stride, padding, bias=b,
                                            norm=(groups, gamma, beta))),
                [x, gamma, beta, k, b])

    @pytest.mark.parametrize("stride,padding,size", [
        (1, 1, (3, 3)), (2, 1, (3, 4)), (1, 0, (2, 3)), (2, 0, (3, 3)),
    ])
    def test_upsample_gradients(self, rng, stride, padding, size):
        x = Tensor(rng.normal(size=(2, *size)), requires_grad=True)
        k = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)
        assert_grads_match(
            lambda: _sq_loss(ops.conv2d(x, k, stride, padding, bias=b, upsample=2)), [x, k, b])

    def test_each_fused_layer_records_one_node(self, op_outputs, rng):
        x = Tensor(rng.normal(size=(2, 5, 5)), requires_grad=True)
        k = Tensor(rng.normal(size=(4, 2, 3, 3)), requires_grad=True)
        h = ops.conv2d(x, k, padding=1, bias=Tensor(rng.normal(size=(4,)), requires_grad=True))
        g = ops.conv2d(h, Tensor(rng.normal(size=(4, 4, 3, 3))), padding=1,
                       norm=(2, Tensor(np.ones(4)), Tensor(np.zeros(4))))
        out = ops.conv2d(g, Tensor(rng.normal(size=(2, 4, 3, 3))), padding=1, upsample=2)
        assert op_outputs == [h, g, out]

    def test_conv_bias_shape_checked(self, rng):
        with pytest.raises(ValueError, match="bias"):
            ops.conv2d(Tensor(rng.normal(size=(2, 5, 5))), Tensor(rng.normal(size=(4, 2, 3, 3))),
                       bias=Tensor(rng.normal(size=(2,))))

    def test_prologue_checked(self, rng):
        x, k = Tensor(rng.normal(size=(4, 5, 5))), Tensor(rng.normal(size=(2, 4, 3, 3)))
        norm = (2, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        with pytest.raises(ValueError, match="not both"):
            ops.conv2d(x, k, padding=1, norm=norm, upsample=2)
        for up in (0, 1.5):
            with pytest.raises(ValueError, match="upsample"):
                ops.conv2d(x, k, padding=1, upsample=up)
        with pytest.raises(ValueError, match="divisible"):
            ops.conv2d(x, k, padding=1, norm=(3, *norm[1:]))
        with pytest.raises(ValueError, match="gamma"):
            ops.conv2d(x, k, padding=1, norm=(2, Tensor(np.ones(2)), norm[2]))

    def test_norm_silu_closure_keeps_sigmoid_and_statistics(self, rng):
        # mu, 1/std and the sigmoid; the normalized map is rebuilt from x
        x = Tensor(rng.normal(size=(8, 5, 5)), requires_grad=True)
        gamma = Tensor(rng.normal(size=(8,)), requires_grad=True)
        beta = Tensor(rng.normal(size=(8,)), requires_grad=True)
        k = Tensor(rng.normal(size=(3, 8, 3, 3)), requires_grad=True)
        for stride in (1, 2):
            held = _held_arrays(ops.conv2d(x, k, stride, 1, norm=(4, gamma, beta)))
            assert sorted(a.shape for a in held) == [(4, 1), (4, 1), (8, 5, 5)]

    def test_upsample_closure_keeps_no_map(self, rng):
        x = Tensor(rng.normal(size=(3, 4, 5)), requires_grad=True)
        k = Tensor(rng.normal(size=(2, 3, 3, 3)), requires_grad=True)
        assert _held_arrays(ops.conv2d(x, k, padding=1, upsample=2)) == []


class TestComposedPipeline:
    def test_conv_norm_attention_l1_gradient(self, rng):
        # the composed-pipeline check: conv -> group norm -> attention -> l1
        c = 4
        x = Tensor(rng.normal(size=(2, 5, 5)), requires_grad=True)
        k = Tensor(rng.normal(size=(c, 2, 3, 3)) * 0.5, requires_grad=True)
        gamma = Tensor(np.ones(c) + 0.1 * rng.normal(size=(c,)), requires_grad=True)
        beta = Tensor(0.1 * rng.normal(size=(c,)), requires_grad=True)
        mats = [Tensor(rng.normal(size=(c, c)) * 0.4, requires_grad=True) for _ in range(4)]

        def loss():
            h = ops.conv2d(x, k, padding=1)
            h = ops.group_norm(h, 2, gamma, beta)
            h = ops.self_attention(h, *mats)
            return simple_loss(np.zeros(h.shape), h, 1)

        assert_grads_match(loss, [x, k, gamma, beta] + mats, rtol=1e-3)

    def test_determinism_bit_identical(self, rng):
        x = rng.normal(size=(3, 8, 8)).astype(np.float32)
        k = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)

        def run():
            h = ops.conv2d(Tensor(x), Tensor(k), padding=1)
            h = ops.silu(h)
            return ops.upsample_nearest(h, 2).data.copy()

        assert np.array_equal(run(), run())


class TestRandomizedShapes:
    def test_primitives_pass_gradcheck_on_random_shapes(self):
        # shape-randomized sweep over the core differentiable primitives
        shape_rng = np.random.default_rng(88)
        for trial in range(4):
            c_in = int(shape_rng.integers(1, 4))
            c_out = int(shape_rng.integers(1, 4))
            h = int(shape_rng.integers(3, 7))
            w = int(shape_rng.integers(3, 7))
            data_rng = np.random.default_rng(1000 + trial)

            x = Tensor(data_rng.normal(size=(c_in, h, w)), requires_grad=True)
            k = Tensor(data_rng.normal(size=(c_out, c_in, 3, 3)), requires_grad=True)
            assert_grads_match(lambda: _sq_loss(ops.conv2d(x, k, 1, 1)), [x, k])

            groups = 1 if c_in % 2 else 2
            gamma = Tensor(data_rng.normal(size=(c_in,)), requires_grad=True)
            beta = Tensor(data_rng.normal(size=(c_in,)), requires_grad=True)
            assert_grads_match(
                lambda: _sq_loss(ops.group_norm(x, groups, gamma, beta)),
                [x, gamma, beta],
            )

            assert_grads_match(lambda: _sq_loss(ops.silu(x)), [x])
            assert_grads_match(lambda: _sq_loss(ops.upsample_nearest(x, 2)), [x])

            bias = Tensor(data_rng.normal(size=(c_out,)), requires_grad=True)
            assert_grads_match(lambda: _sq_loss(ops.conv2d(x, k, 2, 1, bias=bias)), [x, k, bias])
            assert_grads_match(
                lambda: _sq_loss(ops.conv2d(x, k, 1, 1, bias=bias, norm=(groups, gamma, beta))),
                [x, gamma, beta, k, bias],
            )
            assert_grads_match(lambda: _sq_loss(ops.conv2d(x, k, 2, 1, upsample=2)), [x, k])


class TestFloatWidth:
    # the public functions of autodiff and ops that are not primitives
    NOT_PRIMITIVES = {"as_tensor", "from_op", "backward"}

    def test_every_primitive_keeps_float32(self, rng):
        def t(*shape):
            return Tensor(rng.normal(size=shape).astype(np.float32))

        x, v, m = t(4, 6, 6), t(6), t(4, 4)
        c = np.float64(0.3)  # not a weak scalar under NumPy 2
        outputs = {
            "add": ad.add(v, v), "scale": ad.scale(v, c),
            "simple_loss p1": simple_loss(v, t(6), 1), "simple_loss p2": simple_loss(v, t(6), 2),
            "conv2d": ops.conv2d(x, t(3, 4, 3, 3), stride=2, padding=1),
            "conv2d bias": ops.conv2d(x, t(3, 4, 3, 3), stride=2, padding=1, bias=t(3)),
            "bicubic_weight_matrix": ops.bicubic_weight_matrix(6, 2, dtype=np.float32),
            "bicubic_upsample": ops.bicubic_upsample(x, 2),
            "upsample_nearest": ops.upsample_nearest(x, 2),
            "conv2d norm": ops.conv2d(x, t(3, 4, 3, 3), padding=1, bias=t(3), norm=(2, t(4), t(4))),
            "conv2d upsample": ops.conv2d(x, t(3, 4, 3, 3), padding=1, upsample=2),
            "group_norm": ops.group_norm(x, 2, t(4), t(4)),
            "silu": ops.silu(x),
            "dense": ops.dense(v, t(3, 6), t(3)),
            "add_channel_bias": ops.add_channel_bias(x, t(4)),
            "concat_channels": ops.concat_channels([x, x]),
            "self_attention": ops.self_attention(x, m, m, m, m),
        }
        public = {name for module in (ad, ops) for name, fn in vars(module).items()
                  if inspect.isfunction(fn) and fn.__module__ == module.__name__
                  and not name.startswith("_")}
        assert not public - self.NOT_PRIMITIVES - {k.split()[0] for k in outputs}
        promoted = {k: str(out.dtype) for k, out in outputs.items() if out.dtype != np.float32}
        assert not promoted

    def test_fused_adjoints_keep_float32(self, rng):
        def t(*shape):
            return Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)

        x, k, b, gamma, beta = t(4, 6, 6), t(3, 4, 3, 3), t(3), t(3), t(3)
        k_norm, k_up = t(3, 3, 3, 3), t(2, 3, 3, 3)
        h = ops.conv2d(x, k, stride=2, padding=1, bias=b)
        h = ops.conv2d(h, k_norm, padding=1, norm=(3, gamma, beta))
        backward(_sq_loss(ops.conv2d(h, k_up, padding=1, upsample=2)))
        leaves = (x, k, b, gamma, beta, k_norm, k_up)
        assert {p.grad.dtype for p in leaves} == {np.dtype(np.float32)}
