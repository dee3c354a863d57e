"""Dense float64 tensors with reverse-mode differentiation.

Only the operations the ranking pipeline needs are implemented: matrix
products (plain, batched, and batched-times-shared), 1x1 convolution over
NCHW blocks, an affine map over the last axis, a scaled softmax, axis means,
and a few elementwise primitives.  The graph is built define-by-run: every
result remembers its parents and a closure that pushes its gradient to them,
and ``backward`` replays the reachable closures in exact reverse creation
order.

Tensors must be treated as read-only while any tensor derived from them is
alive; only ``grad`` buffers are rewritten (by ``backward``).  A graph and
its tensors belong to one thread; disjoint graphs may run concurrently.
"""

import math
from itertools import count

import numpy as np

__all__ = [
    "ShapeError",
    "Tensor",
    "matmul",
    "conv1x1",
    "linear",
    "scaled_softmax",
    "mean_axis",
    "transpose_last2",
    "stack",
    "take",
    "concat",
    "relu",
    "grad_check",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


_node_counter = count()


class Tensor:
    """Row-major float64 array plus an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_nid")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple["Tensor", ...] = ()
        self._backward_fn = None
        self._nid = next(_node_counter)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single element, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph -----------------------------------------------------------

    def backward(self) -> None:
        """Populate ``grad`` of every reachable differentiable tensor.

        Must be called on a single-element output.  Grad buffers of the
        reachable subgraph are reset first, so each call yields exactly the
        gradients of this output (no accumulation across calls).
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar output, got shape {self.shape}")
        if not self.requires_grad:
            raise ValueError("backward() on a tensor with no gradient path")

        reached: dict[int, Tensor] = {}
        stack = [self]
        while stack:
            node = stack.pop()
            if id(node) in reached:
                continue
            reached[id(node)] = node
            stack.extend(node._parents)

        nodes = sorted(reached.values(), key=lambda t: t._nid, reverse=True)
        for node in nodes:
            if node.requires_grad:
                node.grad = np.zeros_like(node.data)
        self.grad = np.ones_like(self.data)
        for node in nodes:
            if node._backward_fn is not None:
                node._backward_fn()

    # -- elementwise and shape ops ----------------------------------------

    def __add__(self, other):
        if isinstance(other, Tensor):
            if self.shape != other.shape:
                raise ShapeError(f"add: shapes {self.shape} and {other.shape} differ")
            out = _result(self.data + other.data, (self, other))

            def backward_add():
                if self.requires_grad:
                    self.grad += out.grad
                if other.requires_grad:
                    other.grad += out.grad

            return _attach(out, backward_add)
        out = _result(self.data + float(other), (self,))

        def backward_add_scalar():
            if self.requires_grad:
                self.grad += out.grad

        return _attach(out, backward_add_scalar)

    __radd__ = __add__

    def __neg__(self):
        out = _result(-self.data, (self,))

        def backward_neg():
            if self.requires_grad:
                self.grad -= out.grad

        return _attach(out, backward_neg)

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return self + (-other)
        return self + (-float(other))

    def __rsub__(self, other):
        return (-self) + float(other)

    def __mul__(self, other):
        if isinstance(other, Tensor):
            if self.shape != other.shape:
                raise ShapeError(f"mul: shapes {self.shape} and {other.shape} differ")
            out = _result(self.data * other.data, (self, other))

            def backward_mul():
                if self.requires_grad:
                    self.grad += out.grad * other.data
                if other.requires_grad:
                    other.grad += out.grad * self.data

            return _attach(out, backward_mul)
        scale = float(other)
        out = _result(self.data * scale, (self,))

        def backward_mul_scalar():
            if self.requires_grad:
                self.grad += out.grad * scale

        return _attach(out, backward_mul_scalar)

    __rmul__ = __mul__

    def reshape(self, *shape: int):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        if math.prod(shape) != self.size:
            raise ShapeError(f"reshape: {self.shape} has {self.size} elements, target {shape}")
        out = _result(self.data.reshape(shape), (self,))

        def backward_reshape():
            if self.requires_grad:
                self.grad += out.grad.reshape(self.shape)

        return _attach(out, backward_reshape)

    def sum(self):
        out = _result(self.data.sum(), (self,))

        def backward_sum():
            if self.requires_grad:
                self.grad += out.grad

        return _attach(out, backward_sum)

    def mean(self):
        n = self.size
        out = _result(self.data.mean(), (self,))

        def backward_mean():
            if self.requires_grad:
                self.grad += out.grad / n

        return _attach(out, backward_mean)


def _result(data: np.ndarray, parents: tuple[Tensor, ...]) -> Tensor:
    out = Tensor(data)
    out.requires_grad = any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._parents = parents
    return out


def _attach(out: Tensor, backward_fn) -> Tensor:
    if out.requires_grad:
        out._backward_fn = backward_fn
    return out


# -- linear algebra --------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product.

    Accepts (M,K)x(K,P), batched (N,M,K)x(N,K,P), and (N,M,K)x(K,P) where the
    right operand is shared across the batch.
    """
    if a.ndim == 2 and b.ndim == 2:
        if a.shape[1] != b.shape[0]:
            raise ShapeError(f"matmul: inner extents differ, {a.shape} x {b.shape}")
        shared_rhs = False
    elif a.ndim == 3 and b.ndim == 3:
        if a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
            raise ShapeError(f"matmul: batch shapes incompatible, {a.shape} x {b.shape}")
        shared_rhs = False
    elif a.ndim == 3 and b.ndim == 2:
        if a.shape[2] != b.shape[0]:
            raise ShapeError(f"matmul: inner extents differ, {a.shape} x {b.shape}")
        shared_rhs = True
    else:
        raise ShapeError(f"matmul: unsupported ranks, {a.shape} x {b.shape}")

    out = _result(np.matmul(a.data, b.data), (a, b))

    def backward_matmul():
        grad = out.grad
        if a.requires_grad:
            a.grad += np.matmul(grad, np.swapaxes(b.data, -1, -2))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), grad)
            if shared_rhs:
                gb = gb.sum(axis=0)
            b.grad += gb

    return _attach(out, backward_matmul)


def conv1x1(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Per-position linear map over the channel axis of an NCHW block.

    ``out[n, :, h, w] = weight @ x[n, :, h, w] + bias`` with ``weight`` of
    shape (C_out, C_in) and ``bias`` of shape (C_out,).
    """
    if x.ndim != 4:
        raise ShapeError(f"conv1x1: input must be NCHW, got {x.shape}")
    if weight.ndim != 2 or bias.ndim != 1 or weight.shape[0] != bias.shape[0]:
        raise ShapeError(f"conv1x1: bad parameter shapes {weight.shape}, {bias.shape}")
    if weight.shape[1] != x.shape[1]:
        raise ShapeError(f"conv1x1: channel mismatch, input {x.shape} vs weight {weight.shape}")

    data = np.einsum("oc,nchw->nohw", weight.data, x.data)
    data += bias.data[None, :, None, None]
    out = _result(data, (x, weight, bias))

    def backward_conv1x1():
        grad = out.grad
        if x.requires_grad:
            x.grad += np.einsum("oc,nohw->nchw", weight.data, grad)
        if weight.requires_grad:
            weight.grad += np.einsum("nohw,nchw->oc", grad, x.data)
        if bias.requires_grad:
            bias.grad += grad.sum(axis=(0, 2, 3))

    return _attach(out, backward_conv1x1)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map over the last axis: ``out[..., :] = weight @ x[..., :] + bias``."""
    if weight.ndim != 2 or bias.ndim != 1 or weight.shape[0] != bias.shape[0]:
        raise ShapeError(f"linear: bad parameter shapes {weight.shape}, {bias.shape}")
    if x.shape[-1] != weight.shape[1]:
        raise ShapeError(f"linear: feature mismatch, input {x.shape} vs weight {weight.shape}")

    out = _result(x.data @ weight.data.T + bias.data, (x, weight, bias))

    def backward_linear():
        grad = out.grad
        if x.requires_grad:
            x.grad += grad @ weight.data
        grad2 = grad.reshape(-1, weight.shape[0])
        if weight.requires_grad:
            weight.grad += grad2.T @ x.data.reshape(-1, weight.shape[1])
        if bias.requires_grad:
            bias.grad += grad2.sum(axis=0)

    return _attach(out, backward_linear)


def scaled_softmax(x: Tensor, scale_dim: int) -> Tensor:
    """Softmax over the last axis of ``x / sqrt(scale_dim)``.

    Stabilized by max subtraction, so finite inputs give finite outputs and
    each last-axis slice sums to one.
    """
    if scale_dim < 1:
        raise ValueError(f"scaled_softmax: scale_dim must be positive, got {scale_dim}")
    scale = math.sqrt(scale_dim)
    z = x.data / scale
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)
    out = _result(y, (x,))

    def backward_softmax():
        if x.requires_grad:
            g = out.grad
            gz = y * (g - (g * y).sum(axis=-1, keepdims=True))
            x.grad += gz / scale

    return _attach(out, backward_softmax)


def mean_axis(x: Tensor, axis: int) -> Tensor:
    """Arithmetic mean along ``axis``; the axis is removed."""
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"mean_axis: axis {axis} out of range for shape {x.shape}")
    axis = axis % x.ndim
    n = x.shape[axis]
    out = _result(x.data.mean(axis=axis), (x,))

    def backward_mean_axis():
        if x.requires_grad:
            x.grad += np.expand_dims(out.grad, axis) / n

    return _attach(out, backward_mean_axis)


def transpose_last2(x: Tensor) -> Tensor:
    """Swap the last two axes."""
    if x.ndim < 2:
        raise ShapeError(f"transpose_last2: needs >= 2 axes, got shape {x.shape}")
    out = _result(np.swapaxes(x.data, -1, -2), (x,))

    def backward_transpose():
        if x.requires_grad:
            x.grad += np.swapaxes(out.grad, -1, -2)

    return _attach(out, backward_transpose)


def stack(tensors: list[Tensor]) -> Tensor:
    """Stack equally shaped tensors along a new leading axis."""
    if not tensors:
        raise ShapeError("stack: empty input")
    shape = tensors[0].shape
    for t in tensors[1:]:
        if t.shape != shape:
            raise ShapeError(f"stack: shapes {shape} and {t.shape} differ")
    out = _result(np.stack([t.data for t in tensors]), tuple(tensors))

    def backward_stack():
        for i, t in enumerate(tensors):
            if t.requires_grad:
                t.grad += out.grad[i]

    return _attach(out, backward_stack)


def take(x: Tensor, index: int) -> Tensor:
    """Select one slice along the leading axis."""
    if not 0 <= index < x.shape[0]:
        raise ShapeError(f"take: index {index} out of range for shape {x.shape}")
    out = _result(x.data[index], (x,))

    def backward_take():
        if x.requires_grad:
            x.grad[index] += out.grad

    return _attach(out, backward_take)


def concat(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along the last axis; leading extents must match."""
    if a.shape[:-1] != b.shape[:-1]:
        raise ShapeError(f"concat: leading shapes differ, {a.shape} vs {b.shape}")
    split = a.shape[-1]
    out = _result(np.concatenate([a.data, b.data], axis=-1), (a, b))

    def backward_concat():
        if a.requires_grad:
            a.grad += out.grad[..., :split]
        if b.requires_grad:
            b.grad += out.grad[..., split:]

    return _attach(out, backward_concat)


def relu(x: Tensor) -> Tensor:
    out = _result(np.maximum(x.data, 0.0), (x,))

    def backward_relu():
        if x.requires_grad:
            x.grad += (x.data > 0.0) * out.grad

    return _attach(out, backward_relu)


# -- gradient verification --------------------------------------------------


def grad_check(f, x: Tensor, eps: float = 1e-5) -> float:
    """Compare the analytic gradient of a scalar function against central
    finite differences.

    Returns the max over elements of
    ``|analytic - numeric| / max(1e-12, |analytic| + |numeric|)``.
    """
    x.requires_grad = True
    out = f(x)
    if out.size != 1:
        raise ShapeError(f"grad_check: f must return a scalar, got shape {out.shape}")
    if not np.isfinite(out.data).all():
        raise ValueError("grad_check: non-finite function value")
    out.backward()
    analytic = x.grad.reshape(-1).copy()

    flat = x.data.reshape(-1)
    numeric = np.empty_like(analytic)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + eps
        hi = f(x).item()
        flat[i] = saved - eps
        lo = f(x).item()
        flat[i] = saved
        numeric[i] = (hi - lo) / (2.0 * eps)
    if not (np.isfinite(analytic).all() and np.isfinite(numeric).all()):
        raise ValueError("grad_check: non-finite gradient")

    denom = np.maximum(1e-12, np.abs(analytic) + np.abs(numeric))
    return float(np.max(np.abs(analytic - numeric) / denom))
