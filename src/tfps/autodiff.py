"""Tape-based reverse-mode automatic differentiation on float64 numpy arrays.

Deliberately small: only the operations the forecasting model needs. Every op
records a node with a backward closure; ``Tensor.backward()`` walks the nodes
in reverse topological order and accumulates gradients by summation.
Broadcasting is undone explicitly, and everything stays in float64 so central
finite differences are a meaningful cross-check.
"""

from __future__ import annotations

import contextlib
import contextvars

import numpy as np

_grad_enabled = contextvars.ContextVar("grad_enabled", default=True)


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (inference / metric passes).

    Grad mode belongs to the caller's context: other threads keep their own,
    and `model.on_threads` runs each call in a copy of the caller's."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


class Node:
    """A tape entry: the gradient accumulated so far, the backward closure and
    the parents' nodes. A leaf (a parameter) has no closure."""

    __slots__ = ("grad", "backward", "parents")

    def __init__(self, backward=None, parents: tuple[Node, ...] = ()):
        self.grad, self.backward, self.parents = None, backward, parents


class Tensor:
    """A float64 ndarray plus, while it is on the tape, its node (see `make_op`)."""

    __slots__ = ("data", "node")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.node: Node | None = None  # set by `parameter` and `make_op`

    @property
    def requires_grad(self) -> bool:
        return self.node is not None

    @property
    def grad(self) -> np.ndarray | None:
        return None if self.node is None else self.node.grad

    @grad.setter
    def grad(self, g: np.ndarray | None) -> None:
        self.node.grad = g

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        tag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{tag})"

    # -- graph ------------------------------------------------------------

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor; defaults to d(self)/d(self)=1 for scalars.

        The graph is freed as it is walked: once a node's closure has run, its
        gradient, closure and parent links are dropped, so the activations the
        closures held go with them. Leaves keep their accumulated `.grad`. A
        graph can therefore be backpropagated once; reaching a freed node
        raises RuntimeError before any gradient is accumulated."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without a seed gradient needs a scalar")
            grad = np.ones_like(self.data)
        order: list[Node] = []
        seen: set[int] = set()
        stack: list[tuple[Node, bool]] = [(self.node, False)] if self.node else []
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            if node.parents is None:
                raise RuntimeError(
                    "backward() reached a tensor whose graph was already backpropagated "
                    "and freed; a graph can be backpropagated only once, so rebuild it "
                    "with a new forward pass"
                )
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node.parents if id(p) not in seen)
        accumulate(self.node, np.asarray(grad, dtype=np.float64))
        while order:
            node = order.pop()
            if node.backward is None:
                continue  # a leaf: keeps its .grad
            if node.grad is not None:
                node.backward(node.grad)
            node.grad = node.backward = node.parents = None

    # -- operators ----------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return narrow(self, key)

    def sum(self, axis=None, keepdims: bool = False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) != 1 else shape[0])

    def swapaxes(self, a: int, b: int):
        return swapaxes(self, a, b)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(data) -> Tensor:
    """Leaf tensor that always tracks gradients (model parameter)."""
    t = Tensor(data)
    t.node = Node()  # persists even when created inside no_grad()
    return t


def accumulate(node: Node | None, g: np.ndarray) -> None:
    """Add `g` into `node.grad` (a constant has no node). An interior node's
    gradient is read only by its own backward closure, so it may alias `g`; a
    leaf gets its own copy, since `g` can be a view another gradient shares."""
    if node is None:
        return
    if node.grad is not None:
        node.grad = node.grad + g
    else:
        node.grad = g if node.backward is not None else g.copy()


def unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting introduced or stretched."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def make_op(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    """Build the output of a primitive op; `backward(g)` must call `accumulate`
    on each parent's node and hold only nodes, shapes and the arrays its
    adjoint reads, never a tensor, so an output no adjoint reads goes with
    its tensor. Both are public so modules with hand-derived adjoints (the
    Fourier mixers) can register themselves on the tape."""
    out = Tensor(data)
    if _grad_enabled.get() and (nodes := tuple(p.node for p in parents if p.node is not None)):
        out.node = Node(backward, nodes)
    return out


# -- arithmetic --------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    na, nb, sa, sb = a.node, b.node, a.shape, b.shape

    def backward(g):
        if na:
            accumulate(na, unbroadcast(g, sa))
        if nb:
            accumulate(nb, unbroadcast(g, sb))

    return make_op(a.data + b.data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    na, nb, sa, sb = a.node, b.node, a.shape, b.shape
    ka, kb = a.data if nb else None, b.data if na else None

    def backward(g):
        if na:
            accumulate(na, unbroadcast(g * kb, sa))
        if nb:
            accumulate(nb, unbroadcast(g * ka, sb))

    return make_op(a.data * b.data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    na, nb, sa, sb = a.node, b.node, a.shape, b.shape
    ka, kb = a.data if nb else None, b.data

    def backward(g):
        if na:
            accumulate(na, unbroadcast(g / kb, sa))
        if nb:
            accumulate(nb, unbroadcast(-g * ka / (kb * kb), sb))

    return make_op(a.data / b.data, (a, b), backward)


def matmul(a, b) -> Tensor:
    """Batched matmul; a 2-D right operand (a weight) runs as `linear`."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must have ndim >= 2")
    if b.ndim == 2:
        return linear(a, b)
    na, nb, sa, sb = a.node, b.node, a.shape, b.shape
    ka, kb = a.data if nb else None, b.data if na else None

    def backward(g):
        if na:
            accumulate(na, unbroadcast(g @ kb.swapaxes(-1, -2), sa))
        if nb:
            accumulate(nb, unbroadcast(ka.swapaxes(-1, -2) @ g, sb))

    return make_op(a.data @ b.data, (a, b), backward)


def linear(x, w, b=None) -> Tensor:
    """`x @ w (+ b)` for a 2-D weight, as one node and one flat GEMM over all
    leading axes of `x`, so the weight gradient is a single (D_in, D_out)
    product instead of a broadcast stack summed afterwards. The bias
    gradient is reduced from the unflattened gradient, as `add` reduces it."""
    x, w = as_tensor(x), as_tensor(w)
    if w.ndim != 2:
        raise ValueError(f"linear needs a 2-D weight, got shape {w.shape}")
    nx, nw, sx, wd = x.node, w.node, x.shape, w.data
    nb = sb = None
    x2 = x.data.reshape(-1, sx[-1])
    out = (x2 @ wd).reshape(sx[:-1] + wd.shape[-1:])
    parents = (x, w)
    if b is not None:
        b = as_tensor(b)
        out += b.data
        parents, nb, sb = (x, w, b), b.node, b.shape

    def backward(g):
        if nb:
            accumulate(nb, unbroadcast(g, sb))
        g2 = g.reshape(-1, g.shape[-1])
        if nx:
            accumulate(nx, (g2 @ wd.T).reshape(sx))
        accumulate(nw, x2.T @ g2)

    return make_op(out, parents, backward)


# -- shape -------------------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    na, old = a.node, a.shape

    def backward(g):
        accumulate(na, g.reshape(old))

    return make_op(a.data.reshape(shape), (a,), backward)


def swapaxes(a, i: int, j: int) -> Tensor:
    a = as_tensor(a)
    na = a.node

    def backward(g):
        accumulate(na, g.swapaxes(i, j))

    return make_op(a.data.swapaxes(i, j), (a,), backward)


def narrow(a, key) -> Tensor:
    """Basic slicing. Integer/fancy indexing is not supported on the tape."""
    parts = key if isinstance(key, tuple) else (key,)
    if not all(isinstance(p, slice) or p is Ellipsis or p is None for p in parts):
        raise TypeError("only basic slices are differentiable; use index_rows")
    return _select(as_tensor(a), key)


def _select(a: Tensor, key) -> Tensor:
    """`a[key]` for a key that picks no entry twice; the adjoint fills zeros."""
    na, shape = a.node, a.shape

    def backward(g):
        full = np.zeros(shape)
        full[key] = g
        accumulate(na, full)

    return make_op(a.data[key], (a,), backward)


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = tuple(as_tensor(t) for t in tensors)
    nodes = [t.node for t in tensors]
    offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])

    def backward(g):
        for node, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            accumulate(node, g[tuple(idx)])

    return make_op(np.concatenate([t.data for t in tensors], axis=axis), tensors, backward)


# -- reductions --------------------------------------------------------------


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    na, shape = a.node, a.shape

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        accumulate(na, np.broadcast_to(g, shape).copy())

    return make_op(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    total = tsum(a, axis=axis, keepdims=keepdims)
    return mul(total, 1.0 / float(a.data.size // total.data.size))


# -- elementwise nonlinearities ------------------------------------------------


def log(a) -> Tensor:
    a = as_tensor(a)
    na, x = a.node, a.data

    def backward(g):
        accumulate(na, g / x)

    return make_op(np.log(x), (a,), backward)


def relu(a) -> Tensor:
    a = as_tensor(a)
    na, out = a.node, a.data * (a.data > 0)

    def backward(g):
        accumulate(na, g * (out > 0))  # out > 0 exactly where a > 0, -0.0 and NaN included

    return make_op(out, (a,), backward)


def softmax(a, axis: int = -1) -> Tensor:
    """Row-stochastic softmax as one node. The max shift is a constant, so
    gradients are exact. The adjoint repeats, operation for operation, the
    one the exp/sum/div composite accumulated, so it rounds the same way."""
    a = as_tensor(a)
    na = a.node
    e = np.exp(a.data - a.data.max(axis=axis, keepdims=True))
    s = e.sum(axis=axis, keepdims=True)

    def backward(g):
        accumulate(na, (g / s + (-g * e / (s * s)).sum(axis=axis, keepdims=True)) * e)

    return make_op(e / s, (a,), backward)


# -- gather / scatter ----------------------------------------------------------


def index_rows(a, rows: np.ndarray) -> Tensor:
    """Select rows along axis 0; adjoint writes them back into zeros. Rows
    must be strictly increasing (as `np.nonzero` returns them), so no row
    repeats and plain assignment is the exact adjoint."""
    rows = np.asarray(rows, dtype=np.intp)
    if rows.ndim != 1 or np.any(np.diff(rows) <= 0):
        raise ValueError("index_rows needs strictly increasing 1-D rows")
    return _select(as_tensor(a), rows)


def scatter_rows(a, rows: np.ndarray, length: int) -> Tensor:
    """Place rows of `a` at positions `rows` of a zero tensor with axis-0 size
    `length`. Rows must be unique; adjoint is plain row gathering."""
    a = as_tensor(a)
    rows = np.asarray(rows, dtype=np.intp)
    na = a.node
    out_data = np.zeros((length,) + a.data.shape[1:], dtype=np.float64)
    out_data[rows] = a.data

    def backward(g):
        accumulate(na, g[rows])

    return make_op(out_data, (a,), backward)
