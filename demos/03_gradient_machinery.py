"""Poke at the autodiff core: tape, adjoints, finite-difference agreement.

Everything the denoiser trains with reduces to the primitives shown here.
The tensors are float64 because their arrays are: finite differences need
the precision.
"""

import numpy as np

from hsifusion.autodiff import Tensor, backward
from hsifusion import ops, simple_loss

rng = np.random.default_rng(3)

# the residual-block layers as the denoiser runs them, each one tape node:
# group norm -> SiLU -> conv + bias in one conv2d, then attention -> scalar loss
x = Tensor(rng.normal(size=(4, 6, 6)), requires_grad=True)
kernel = Tensor(rng.normal(size=(4, 4, 3, 3)) * 0.5, requires_grad=True)
bias = Tensor(rng.normal(size=(4,)) * 0.1, requires_grad=True)
gamma = Tensor(1.0 + 0.1 * rng.normal(size=(4,)), requires_grad=True)
beta = Tensor(np.zeros(4), requires_grad=True)
mats = [Tensor(rng.normal(size=(4, 4)) * 0.4, requires_grad=True) for _ in range(4)]


def loss_fn():
    h = ops.conv2d(x, kernel, padding=1, bias=bias, norm=(2, gamma, beta))
    h = ops.self_attention(h, *mats)
    return simple_loss(np.zeros(h.shape, h.dtype), h, 2)


def tape_nodes(root):
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen and node.requires_grad and node._backward_fn is not None:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


loss = loss_fn()
print(f"tape nodes: {tape_nodes(loss)} (norm-conv, attention, loss)")
backward(loss)
print(f"pipeline loss: {loss.item():.6f}")
print(f"grad norms: x {np.linalg.norm(x.grad):.4f}, kernel {np.linalg.norm(kernel.grad):.4f}")

# central finite differences on kernel entries, a bias entry and a gamma entry
h_step = 1e-5
print("\nanalytic vs finite-difference gradients:")
picks = [(kernel, "kernel", tuple(int(rng.integers(0, s)) for s in kernel.shape))
         for _ in range(3)]
picks += [(bias, "bias", (int(rng.integers(0, 4)),)), (gamma, "gamma", (int(rng.integers(0, 4)),))]
for tensor, name, idx in picks:
    orig = tensor.data[idx]
    tensor.data[idx] = orig + h_step
    lp = loss_fn().item()
    tensor.data[idx] = orig - h_step
    lm = loss_fn().item()
    tensor.data[idx] = orig
    fd = (lp - lm) / (2 * h_step)
    print(f"  {name:6s} {str(idx):14s} analytic {tensor.grad[idx]:+.8f}  fd {fd:+.8f}")
    assert abs(tensor.grad[idx] - fd) <= 1e-6 * max(1.0, abs(fd)), f"{name}{idx} disagrees"

# gradients accumulate until cleared
x.zero_grad()
backward(loss_fn())
g1 = np.linalg.norm(x.grad)
backward(loss_fn())
print(f"\naccumulation: one pass {g1:.5f}, two passes {np.linalg.norm(x.grad):.5f}")
