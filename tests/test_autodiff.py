import inspect

import numpy as np
import pytest

import hsifusion.autodiff as ad
from hsifusion import ops
from hsifusion.autodiff import Tensor, backward
from hsifusion.diffusion import simple_loss


def _sq(out):
    # mean(out^2) as one node
    return simple_loss(np.zeros(out.shape, out.dtype), out, 2)


class TestBackwardContracts:
    def test_sum_gives_ones(self, rng):
        # n * mean|x| is the sum of a positive x
        x = Tensor(np.abs(rng.normal(size=(3, 4))) + 0.5, requires_grad=True)
        backward(ad.scale(simple_loss(np.zeros(x.shape), x, 1), x.size))
        np.testing.assert_array_equal(x.grad, np.ones_like(x.data))

    def test_quadratic(self, rng):
        x = Tensor(rng.normal(size=(5,)), requires_grad=True)
        backward(_sq(x))
        np.testing.assert_allclose(x.grad, 2 * x.data / x.size, rtol=1e-6)

    def test_diamond_graph(self, rng):
        # y = x + x feeds the loss three times: f = mean((y + y - y)^2) =
        # mean(4 x^2) -> grad 8x / n; correct only if the shared node's
        # adjoint is fully accumulated before its backward runs
        x = Tensor(rng.normal(size=(7,)), requires_grad=True)
        y = ad.add(x, x)
        backward(simple_loss(ad.add(y, y), y, 2))
        np.testing.assert_allclose(x.grad, 8 * x.data / x.size, rtol=1e-6)

    def test_non_scalar_loss_rejected(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            backward(ad.add(x, x))

    def test_accumulation_until_reset(self, rng):
        x = Tensor(rng.normal(size=(4,)), requires_grad=True)
        loss = _sq(x)
        backward(loss)
        first = x.grad.copy()
        loss2 = _sq(x)
        backward(loss2)
        np.testing.assert_array_equal(x.grad, 2 * first)
        x.zero_grad()
        assert x.grad is None

    def test_each_node_visited_once(self, rng):
        x = Tensor(rng.normal(size=(4,)), requires_grad=True)
        y = ad.add(x, x)
        z = ad.add(y, y)
        calls = []
        original = y._backward_fn

        def counting(grad):
            calls.append(1)
            original(grad)

        y._backward_fn = counting
        backward(_sq(z))
        assert len(calls) == 1

    def test_constant_branches_pruned(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=False)
        out = ad.add(x, x)
        assert not out.requires_grad
        assert out._backward_fn is None

    def test_deep_chain_does_not_recurse(self):
        x = Tensor(np.ones(2), requires_grad=True)
        h = x
        for _ in range(5000):
            h = ad.scale(h, 1.0)
        backward(ad.scale(simple_loss(np.zeros(2), h, 1), 2.0))
        np.testing.assert_array_equal(x.grad, np.ones(2))


class TestConsumedGraph:
    def test_only_leaves_keep_state(self, op_outputs, rng):
        # every non-leaf drops its gradient, closure and parent links once
        # its adjoint has run; the leaves keep their gradients
        x = Tensor(rng.normal(size=(2, 6, 6)), requires_grad=True)
        k = Tensor(rng.normal(size=(4, 2, 3, 3)), requires_grad=True)
        gamma = Tensor(np.ones(4), requires_grad=True)
        beta = Tensor(np.zeros(4), requires_grad=True)
        h = ops.silu(ops.group_norm(ops.conv2d(x, k, padding=1), 2, gamma, beta))
        backward(_sq(h))
        assert len(op_outputs) == 4
        for out in op_outputs:
            assert out.grad is None and out._parents == ()
            assert out._backward_fn.__closure__ is None
        assert all(leaf.grad is not None for leaf in (x, k, gamma, beta))

    def test_second_backward_raises(self, rng):
        x = Tensor(rng.normal(size=(4,)), requires_grad=True)
        loss = _sq(x)
        backward(loss)
        first = x.grad.copy()
        with pytest.raises(RuntimeError, match="already used"):
            backward(loss)
        np.testing.assert_array_equal(x.grad, first)

    def test_new_loss_on_consumed_node_raises(self, rng):
        x = Tensor(rng.normal(size=(4,)), requires_grad=True)
        y = ad.add(x, x)
        backward(_sq(y))
        with pytest.raises(RuntimeError, match="already used"):
            backward(simple_loss(np.zeros(4), y, 1))


class TestSurface:
    def test_core_keeps_add_and_scale(self):
        public = {name for name, fn in vars(ad).items() if inspect.isfunction(fn)
                  and fn.__module__ == ad.__name__ and not name.startswith("_")}
        assert public == {"as_tensor", "from_op", "backward", "add", "scale"}
        arithmetic = {f"__{op}__" for base in ("add", "sub", "mul", "truediv", "matmul", "pow")
                      for op in (base, "r" + base, "i" + base)} | {"__neg__", "__pos__", "__abs__"}
        assert not arithmetic & set(vars(Tensor))


class TestTensorBasics:
    def test_shape_mismatch_raises(self, rng):
        a = Tensor(rng.normal(size=(2, 3)))
        b = Tensor(rng.normal(size=(3, 2)))
        for op in (ad.add, simple_loss):
            with pytest.raises(ValueError, match="shape"):
                op(a, b)

    def test_item_requires_scalar(self, rng):
        with pytest.raises(ValueError):
            Tensor(rng.normal(size=(2,))).item()

    def test_default_dtype_for_non_float_input(self):
        assert Tensor([0.0, 1.0]).dtype == np.float32
        assert Tensor(np.zeros(2, dtype=np.int64)).dtype == np.float32

    def test_float_arrays_keep_their_width(self):
        assert Tensor(np.zeros(2, dtype=np.float64)).dtype == np.float64
        assert Tensor(np.zeros(2, dtype=np.float32)).dtype == np.float32


class TestDeterminism:
    def test_bit_identical_reruns(self, rng):
        x = rng.normal(size=(4, 6, 6)).astype(np.float32)

        def pipeline():
            t = Tensor(x)
            return simple_loss(t, ad.add(t, t), 2).data.copy()

        assert np.array_equal(pipeline(), pipeline())
