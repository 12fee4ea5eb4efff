"""Minimal tape-based reverse-mode automatic differentiation over numpy.

All values are float64 ndarrays. A `Tensor` wraps an array plus an optional
backward closure; calling `backward()` on a scalar loss walks the recorded
graph in reverse topological order and accumulates gradients into every
tensor with `requires_grad`. Ops skip graph construction entirely when no
input requires a gradient, so the same forward code serves training and
inference.

At the model's sizes each op's Python bookkeeping costs more than its numpy
arithmetic, so ops are kept coarse: `layer_norm` is one op with an analytic
backward. `gelu` and `softmax` return an array together with its
vector-Jacobian product, so `Tensor.gelu`, `Tensor.softmax` and fused
multi-op nodes built elsewhere run the same expressions.

Gradients are shared, not copied: a node's first incoming gradient is stored
as given, so a `.grad` may be an array another node also holds, a view of
one, or a read-only broadcast. A `.grad` must never be written in place;
later contributions are added out of place.
"""

from __future__ import annotations

import math

import numpy as np

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715
_F64 = np.dtype(np.float64)


def gelu(x: np.ndarray):
    """GELU (tanh form) of `x` and the map from an upstream gradient to the
    gradient with respect to `x`."""
    # in place on two temporaries, in the order of
    # `t = tanh(C * (x + A * (x * x * x)))` and `0.5 * x * (1.0 + t)`
    t = x * x
    t *= x
    t *= _GELU_A
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    out = 0.5 * x
    out *= 1.0 + t

    def vjp(g):
        d_inner = _GELU_C * (1.0 + 3.0 * _GELU_A * x ** 2)
        return g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t ** 2) * d_inner)
    return out, vjp


def softmax(x: np.ndarray, axis: int = -1):
    """Softmax of `x` along `axis` and the map from an upstream gradient to
    the gradient with respect to `x`."""
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    y = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        return (g - (g * y).sum(axis=axis, keepdims=True)) * y
    return y, vjp


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """A node in the computation graph wrapping a float64 array."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def _accum(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(grad, self.data.shape)
        # never in place: the stored array may be shared or read-only
        self.grad = grad if self.grad is None else self.grad + grad

    # -- graph construction -------------------------------------------------

    @staticmethod
    def _op(data: np.ndarray, parents: tuple["Tensor", ...], backward) -> "Tensor":
        # built without __init__: an op's result is almost always a float64 array already
        if type(data) is not np.ndarray or data.dtype is not _F64:
            data = np.asarray(data, dtype=np.float64)
        out = object.__new__(Tensor)
        out.data = data
        out.grad = None
        for p in parents:  # a plain loop: cheaper than any() over a generator
            if p.requires_grad:
                out.requires_grad = True
                out._parents = parents
                out._backward = backward
                return out
        out.requires_grad = False
        out._parents = ()
        out._backward = None
        return out

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Tensor):
            def bw(g, a=self, b=other):
                if a.requires_grad:
                    a._accum(g)
                if b.requires_grad:
                    b._accum(g)
            return Tensor._op(self.data + other.data, (self, other), bw)
        const = np.asarray(other, dtype=np.float64)

        def bw(g, a=self):
            a._accum(g)
        return Tensor._op(self.data + const, (self,), bw)

    __radd__ = __add__

    def __neg__(self):
        def bw(g, a=self):
            a._accum(-g)
        return Tensor._op(-self.data, (self,), bw)

    def __sub__(self, other):
        if isinstance(other, Tensor):
            def bw(g, a=self, b=other):
                if a.requires_grad:
                    a._accum(g)
                if b.requires_grad:
                    b._accum(-g)
            return Tensor._op(self.data - other.data, (self, other), bw)
        return self + (-np.asarray(other, dtype=np.float64))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Tensor):
            def bw(g, a=self, b=other):
                if a.requires_grad:
                    a._accum(g * b.data)
                if b.requires_grad:
                    b._accum(g * a.data)
            return Tensor._op(self.data * other.data, (self, other), bw)
        const = np.asarray(other, dtype=np.float64)

        def bw(g, a=self):
            a._accum(g * const)
        return Tensor._op(self.data * const, (self,), bw)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            def bw(g, a=self, b=other):
                if a.requires_grad:
                    a._accum(g / b.data)
                if b.requires_grad:
                    b._accum(-g * a.data / (b.data * b.data))
            return Tensor._op(self.data / other.data, (self, other), bw)
        return self * (1.0 / np.asarray(other, dtype=np.float64))

    def __pow__(self, exponent: float):
        e = float(exponent)

        def bw(g, a=self):
            a._accum(g * e * a.data ** (e - 1.0))
        return Tensor._op(self.data ** e, (self,), bw)

    def __matmul__(self, other: "Tensor"):
        def bw(g, a=self, b=other):
            if a.requires_grad:
                a._accum(g @ b.data.swapaxes(-1, -2))
            if b.requires_grad:
                b._accum(a.data.swapaxes(-1, -2) @ g)
        return Tensor._op(self.data @ other.data, (self, other), bw)

    # -- shape ops -----------------------------------------------------------

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        def bw(g, a=self):
            a._accum(g.swapaxes(axis1, axis2))
        return Tensor._op(self.data.swapaxes(axis1, axis2), (self,), bw)

    @property
    def T(self) -> "Tensor":
        return self.swapaxes(-1, -2)

    def reshape(self, *shape) -> "Tensor":
        old = self.data.shape

        def bw(g, a=self):
            a._accum(g.reshape(old))
        return Tensor._op(self.data.reshape(*shape), (self,), bw)

    def __getitem__(self, idx) -> "Tensor":
        def bw(g, a=self):
            full = np.zeros_like(a.data)
            np.add.at(full, idx, g)
            a._accum(full)
        return Tensor._op(self.data[idx], (self,), bw)

    # -- reductions ----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def bw(g, a=self):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            a._accum(np.broadcast_to(g, a.data.shape))
        return Tensor._op(self.data.sum(axis=axis, keepdims=keepdims), (self,), bw)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]

        def bw(g, a=self):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            a._accum(np.broadcast_to(g, a.data.shape) / count)
        return Tensor._op(self.data.mean(axis=axis, keepdims=keepdims), (self,), bw)

    # -- nonlinearities -------------------------------------------------------

    def gelu(self) -> "Tensor":
        out, vjp = gelu(self.data)

        def bw(g, a=self):
            a._accum(vjp(g))
        return Tensor._op(out, (self,), bw)

    def layer_norm(self, gain: "Tensor", bias: "Tensor", eps: float = 1e-6) -> "Tensor":
        """(x - mean) / sqrt(var + eps) * gain + bias over the last axis, as
        one op; `gain` and `bias` have the width of that axis."""
        # np.add.reduce(...) / n is what ndarray.mean computes, without its
        # wrapper; the rest runs in place on two temporaries, `normed` (first
        # x - mean) and `out` (first its square), in the expressions' order
        x = self.data
        n = x.shape[-1]
        normed = x - np.add.reduce(x, axis=-1, keepdims=True) / n
        out = normed * normed
        var = np.add.reduce(out, axis=-1, keepdims=True) / n
        std = (var + eps) ** 0.5
        normed /= std
        np.multiply(normed, gain.data, out=out)
        out += bias.data

        def bw(g, a=self, w=gain, b=bias):
            if w.requires_grad:
                w._accum(g * normed)
            if b.requires_grad:
                b._accum(g)
            if a.requires_grad:
                gn = g * w.data
                a._accum((gn - np.add.reduce(gn, axis=-1, keepdims=True) / n
                          - normed * (np.add.reduce(gn * normed, axis=-1, keepdims=True) / n)) / std)
        return Tensor._op(out, (self, gain, bias), bw)

    def softmax(self, axis: int = -1) -> "Tensor":
        y, vjp = softmax(self.data, axis)

        def bw(g, a=self):
            a._accum(vjp(g))
        return Tensor._op(y, (self,), bw)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        z = self.data - self.data.max(axis=axis, keepdims=True)
        lse = np.log(np.exp(z).sum(axis=axis, keepdims=True))
        out_data = z - lse
        y = np.exp(out_data)

        def bw(g, a=self):
            a._accum(g - y * g.sum(axis=axis, keepdims=True))
        return Tensor._op(out_data, (self,), bw)

    # -- backward pass ---------------------------------------------------------

    def backward(self) -> None:
        """Reverse-mode gradient of this scalar w.r.t. every requires_grad input.

        Grads held by nodes of this graph are reset first, so repeated calls
        produce identical results.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))
        for node in topo:
            node.grad = None
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along `axis`, routing gradients to each slice."""
    parts = tuple(tensors)
    sizes = [t.data.shape[axis] for t in parts]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for t, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * g.ndim
                index[axis] = slice(lo, hi)
                t._accum(g[tuple(index)])
    return Tensor._op(np.concatenate([t.data for t in parts], axis=axis), parts, bw)


def stack_rows(rows: list[Tensor]) -> Tensor:
    """Stack 1-D tensors of equal width into a (len(rows), width) tensor."""
    return concat([r.reshape(1, -1) for r in rows], axis=0)
