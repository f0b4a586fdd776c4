"""Tape-based reverse-mode automatic differentiation on float64 numpy arrays.

Deliberately small: only the operations the forecasting model needs. Every op
records a backward closure on the output tensor; ``Tensor.backward()`` walks
the tape in reverse topological order and accumulates gradients by summation.
Broadcasting is undone explicitly, and everything stays in float64 so central
finite differences are a meaningful cross-check.
"""

from __future__ import annotations

import contextlib

import numpy as np

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (inference / metric passes).

    The switch is one flag for the whole process, not for one thread:
    `TFPSModel.forecast` holds it for its `model.on_threads` threads, so no
    other thread may record a tape while a `forecast` runs.
    `trainer.train_step` records each shard's tape on the same runner, and
    `trainer.train` validates only between steps, so no validation overlaps
    a step's threads."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """A float64 ndarray plus an optional gradient tape node."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = False  # set by `parameter` and `make_op`
        self._backward = None
        self._parents: tuple[Tensor, ...] | None = ()  # None once backward freed it

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

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
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            if node._parents is None:
                raise RuntimeError(
                    "backward() reached a tensor whose graph was already backpropagated "
                    "and freed; a graph can be backpropagated only once, so rebuild it "
                    "with a new forward pass"
                )
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        accumulate(self, np.asarray(grad, dtype=np.float64))
        while order:
            node = order.pop()
            if node._backward is None:
                continue  # a leaf: keeps its .grad
            if node.grad is not None:
                node._backward(node.grad)
            node.grad = node._backward = node._parents = None

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
    t.requires_grad = True  # persists even when created inside no_grad()
    return t


def accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add `g` into `t.grad`. An interior node's gradient is read only by its
    own backward closure, so it may alias `g`; a leaf gets its own copy, since
    `g` can be a view that another parent's gradient shares."""
    if not t.requires_grad:
        return
    if t.grad is not None:
        t.grad = t.grad + g
    else:
        t.grad = g if t._backward is not None else g.copy()


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
    """Build the output node of a primitive op; `backward(g)` must call
    `accumulate` for each parent. Both are public so modules with hand-derived
    adjoints (the Fourier mixers) can register themselves on the tape."""
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


# -- arithmetic --------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        if a.requires_grad:
            accumulate(a, unbroadcast(g, a.data.shape))
        if b.requires_grad:
            accumulate(b, unbroadcast(g, b.data.shape))

    return make_op(a.data + b.data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        if a.requires_grad:
            accumulate(a, unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            accumulate(b, unbroadcast(g * a.data, b.data.shape))

    return make_op(a.data * b.data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        if a.requires_grad:
            accumulate(a, unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            accumulate(b, unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return make_op(a.data / b.data, (a, b), backward)


def matmul(a, b) -> Tensor:
    """Batched matmul; a 2-D right operand (a weight) runs as `linear`."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must have ndim >= 2")
    if b.ndim == 2:
        return linear(a, b)

    def backward(g):
        accumulate(a, unbroadcast(g @ b.data.swapaxes(-1, -2), a.data.shape))
        accumulate(b, unbroadcast(a.data.swapaxes(-1, -2) @ g, b.data.shape))

    return make_op(a.data @ b.data, (a, b), backward)


def linear(x, w, b=None) -> Tensor:
    """`x @ w (+ b)` for a 2-D weight, as one node and one flat GEMM over all
    leading axes of `x`, so the weight gradient is a single (D_in, D_out)
    product instead of a broadcast stack summed afterwards. The bias
    gradient is reduced from the unflattened gradient, as `add` reduces it."""
    x, w = as_tensor(x), as_tensor(w)
    if w.ndim != 2:
        raise ValueError(f"linear needs a 2-D weight, got shape {w.shape}")
    x2 = x.data.reshape(-1, x.data.shape[-1])
    out = (x2 @ w.data).reshape(x.data.shape[:-1] + w.data.shape[-1:])
    parents = (x, w)
    if b is not None:
        b = as_tensor(b)
        out += b.data
        parents = (x, w, b)

    def backward(g):
        if b is not None:
            accumulate(b, unbroadcast(g, b.data.shape))
        g2 = g.reshape(-1, g.shape[-1])
        if x.requires_grad:
            accumulate(x, (g2 @ w.data.T).reshape(x.data.shape))
        accumulate(w, x2.T @ g2)

    return make_op(out, parents, backward)


# -- shape -------------------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    old = a.data.shape

    def backward(g):
        accumulate(a, g.reshape(old))

    return make_op(a.data.reshape(shape), (a,), backward)


def swapaxes(a, i: int, j: int) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        accumulate(a, g.swapaxes(i, j))

    return make_op(a.data.swapaxes(i, j), (a,), backward)


def narrow(a, key) -> Tensor:
    """Basic slicing. Integer/fancy indexing is not supported on the tape."""
    a = as_tensor(a)
    if not _is_basic_key(key):
        raise TypeError("only basic slices are differentiable; use index_rows")

    def backward(g):
        full = np.zeros_like(a.data)
        full[key] = g
        accumulate(a, full)

    return make_op(a.data[key], (a,), backward)


def _is_basic_key(key) -> bool:
    parts = key if isinstance(key, tuple) else (key,)
    return all(isinstance(p, slice) or p is Ellipsis or p is None for p in parts)


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = tuple(as_tensor(t) for t in tensors)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            accumulate(t, g[tuple(idx)])

    return make_op(np.concatenate([t.data for t in tensors], axis=axis), tensors, backward)


# -- reductions --------------------------------------------------------------


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        accumulate(a, np.broadcast_to(g, a.data.shape).copy())

    return make_op(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    total = tsum(a, axis=axis, keepdims=keepdims)
    return mul(total, 1.0 / float(a.data.size // total.data.size))


# -- elementwise nonlinearities ------------------------------------------------


def log(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        accumulate(a, g / a.data)

    return make_op(np.log(a.data), (a,), backward)


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0

    def backward(g):
        accumulate(a, g * mask)

    return make_op(a.data * mask, (a,), backward)


def softmax(a, axis: int = -1) -> Tensor:
    """Row-stochastic softmax as one node. The max shift is a constant, so
    gradients are exact. The adjoint repeats, operation for operation, the
    one the exp/sum/div composite accumulated, so it rounds the same way."""
    a = as_tensor(a)
    e = np.exp(a.data - a.data.max(axis=axis, keepdims=True))
    s = e.sum(axis=axis, keepdims=True)

    def backward(g):
        accumulate(a, (g / s + (-g * e / (s * s)).sum(axis=axis, keepdims=True)) * e)

    return make_op(e / s, (a,), backward)


# -- gather / scatter ----------------------------------------------------------


def index_rows(a, rows: np.ndarray) -> Tensor:
    """Select rows along axis 0; adjoint writes them back into zeros. Rows
    must be strictly increasing (as `np.nonzero` returns them), so no row
    repeats and plain assignment is the exact adjoint."""
    a = as_tensor(a)
    rows = np.asarray(rows, dtype=np.intp)
    if rows.ndim != 1 or np.any(np.diff(rows) <= 0):
        raise ValueError("index_rows needs strictly increasing 1-D rows")

    def backward(g):
        full = np.zeros_like(a.data)
        full[rows] = g
        accumulate(a, full)

    return make_op(a.data[rows], (a,), backward)


def scatter_rows(a, rows: np.ndarray, length: int) -> Tensor:
    """Place rows of `a` at positions `rows` of a zero tensor with axis-0 size
    `length`. Rows must be unique; adjoint is plain row gathering."""
    a = as_tensor(a)
    rows = np.asarray(rows, dtype=np.intp)
    out_data = np.zeros((length,) + a.data.shape[1:], dtype=np.float64)
    out_data[rows] = a.data

    def backward(g):
        accumulate(a, g[rows])

    return make_op(out_data, (a,), backward)
