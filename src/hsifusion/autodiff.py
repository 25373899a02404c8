"""Dense tensors with reverse-mode automatic differentiation.

A ``Tensor`` wraps a contiguous numpy array. Operations build an implicit
tape: every non-leaf tensor records its parents and a closure that maps the
output adjoint to parent adjoints. ``backward`` replays that tape in reverse
topological order, visiting each node exactly once, and consumes it as it
goes: once a node's adjoint has run, the node drops its gradient, its closure
and its parent links, so the memory of the graph falls while backward runs.
Only leaves (tensors made with ``requires_grad=True`` rather than by an
operation) keep ``grad``. A graph can be walked once; a second ``backward``
through a consumed node raises ``RuntimeError``.

Two float widths are supported. Training and inference default to float32;
verification (finite-difference gradient checking) switches the default to
float64 via ``set_default_dtype``, because central differences are unreliable
in single precision.

The width is a property of the tensors, never of a scalar: a scalar constant
(``scale``, the scalar form of ``add`` and ``mul``) takes the dtype of the
tensor it meets. A NumPy float64 scalar, such as ``1 / np.sqrt(c)``, would
otherwise promote a float32 tensor to float64 under NumPy 2's rules (NEP 50).
"""

from __future__ import annotations

import numpy as np

_default_dtype = np.float32


def set_default_dtype(dtype) -> None:
    """Set the dtype used for newly created tensors (float32 or float64)."""
    global _default_dtype
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported dtype {dtype}; use float32 or float64")
    _default_dtype = dtype.type


def default_dtype():
    return _default_dtype


class Tensor:
    """A dense array plus an optional gradient buffer and tape record."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if dtype is None:
            held = getattr(data, "dtype", None)
            dtype = held.type if held in (np.float32, np.float64) else _default_dtype
        self.data = np.ascontiguousarray(data, dtype=dtype)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward_fn = None

    # -- introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a scalar tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, requires_grad={self.requires_grad})"

    # -- gradient buffer ------------------------------------------------

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.broadcast_to(g, self.data.shape).astype(self.data.dtype)
        else:
            self.grad += g

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False, dtype=self.data.dtype)

    # -- operator sugar (elementwise, same shape or scalar) -------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __neg__(self):
        return scale(self, -1.0)


def as_tensor(x, dtype=None) -> Tensor:
    """Wrap arrays/scalars as constant tensors; pass tensors through."""
    if isinstance(x, Tensor):
        return x
    return Tensor(x, requires_grad=False, dtype=dtype)


def from_op(data: np.ndarray, parents, backward_fn) -> Tensor:
    """Create the output of a primitive, recording it on the tape.

    ``backward_fn(grad)`` must accumulate adjoints into every parent whose
    ``requires_grad`` flag is set. Outputs of parents that are all constant
    are not recorded, which prunes dead branches from the tape.
    """
    out = Tensor(data, dtype=data.dtype)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _consumed(grad) -> None:
    # stands in for the closure of a node whose adjoint has already run
    raise RuntimeError(
        "backward through a graph that was already used: each backward pass "
        "consumes the graph it walks; run the forward pass again"
    )


def backward(loss: Tensor) -> None:
    """Populate ``grad`` for every reachable leaf with ``requires_grad``.

    The loss must be scalar. Gradients accumulate on leaves: a backward pass
    over a freshly built graph adds its adjoints onto the ones already there.
    The graph is consumed: after a node's adjoint has run, its ``grad``, its
    closure and its parent links are dropped, so intermediate tensors hold no
    gradient afterwards. A second backward through any node of a used graph
    raises ``RuntimeError``.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return

    order = _topo_order(loss)
    loss.accumulate_grad(np.ones_like(loss.data))
    while order:
        node = order.pop()
        if node._backward_fn is None:  # a leaf keeps its gradient
            continue
        grad, node.grad = node.grad, None
        fn, node._backward_fn = node._backward_fn, _consumed
        node._parents = ()
        fn(grad)


def _topo_order(root: Tensor) -> list[Tensor]:
    # Iterative DFS: deep graphs (long denoising chains) must not hit the
    # Python recursion limit.
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and p.requires_grad:
                stack.append((p, False))
    return order


# ---------------------------------------------------------------------------
# Elementwise algebra
# ---------------------------------------------------------------------------


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ValueError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


def add(a, b) -> Tensor:
    a = as_tensor(a)
    if np.isscalar(b):
        def bwd(g):
            if a.requires_grad:
                a.accumulate_grad(g)
        return from_op(a.data + a.data.dtype.type(b), (a,), bwd)
    b = as_tensor(b)
    _check_same_shape(a, b, "add")

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g)
        if b.requires_grad:
            b.accumulate_grad(g)

    return from_op(a.data + b.data, (a, b), bwd)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_same_shape(a, b, "sub")

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g)
        if b.requires_grad:
            b.accumulate_grad(-g)

    return from_op(a.data - b.data, (a, b), bwd)


def mul(a, b) -> Tensor:
    a = as_tensor(a)
    if np.isscalar(b):
        return scale(a, b)
    b = as_tensor(b)
    _check_same_shape(a, b, "mul")

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g * b.data)
        if b.requires_grad:
            b.accumulate_grad(g * a.data)

    return from_op(a.data * b.data, (a, b), bwd)


def scale(a, c: float) -> Tensor:
    a = as_tensor(a)
    c = a.data.dtype.type(c)

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g * c)

    return from_op(a.data * c, (a,), bwd)


def absolute(a) -> Tensor:
    """Elementwise |x| with sign subgradient (0 at exactly 0)."""
    a = as_tensor(a)
    s = np.sign(a.data)

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g * s)

    return from_op(np.abs(a.data), (a,), bwd)


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------


def sum_all(a) -> Tensor:
    a = as_tensor(a)

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(np.full_like(a.data, g.reshape(())))

    return from_op(np.asarray(a.data.sum(), dtype=a.dtype), (a,), bwd)


def mean_all(a) -> Tensor:
    a = as_tensor(a)
    n = a.size

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(np.full_like(a.data, g.reshape(()) / n))

    return from_op(np.asarray(a.data.mean(), dtype=a.dtype), (a,), bwd)
