"""Dense float64 tensors with reverse-mode differentiation.

Only what a training step runs is implemented: 1x1 convolution over NCHW
blocks (the value projection), the row softmax kernel and its vjp, ``op``
for the stage ops' hand-derived vjps, and ``Tensor``'s ``+``, ``*`` and
``sum``.  The softmax kernel serves the cross-frame mix and the test
oracle; the spatial relation attention inside frame scoring runs its own
kernel, which folds the scale into its projection and the normaliser into
the vector it is applied to (``temporal._spatial_attention``).  Every
matrix product, forward and backward, is an ``np.matmul`` (``@``) call,
which numpy hands to BLAS.

The graph is built define-by-run, and ``op`` builds every node: it records
the operands, their ``requires_grad`` flags and one vjp.  ``Tensor.backward``
is the only code that accumulates gradients.  A vjp never refers to its
result, so a graph holds no reference cycle and is freed as soon as its
output is dropped.

Each model stage is a single node with a hand-derived vjp, because a
graph's cost is mostly the Python work per node.  One ``conv1x1`` per
sequence makes one value map per frame from the object means; the temporal
mix, frame scoring (with the spatial relation attention inside) and the
rank loss run once per sequence, over every frame's objects in frame order,
so a step records at most four nodes whatever the number of frames.  The
small ops those stages were composed of live on in ``tests/composed.py``.

Tensors must be treated as read-only while any tensor derived from them is
alive; only ``grad`` buffers are rewritten (by ``backward``).  A graph and
its tensors belong to one thread; disjoint graphs may run concurrently.
"""

from itertools import count

import numpy as np

__all__ = [
    "ShapeError",
    "Tensor",
    "op",
    "conv1x1",
    "softmax_rows",
    "softmax_rows_vjp",
    "grad_check",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


_node_counter = count()


class Tensor:
    """Row-major float64 array plus an optional gradient buffer.

    ``_node`` holds an op result's ``(operands, needed, vjp)``, or None; a
    result has ``requires_grad`` set exactly when it has a node.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node", "_nid")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._node: tuple | None = None
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
        reachable subgraph are dropped first, so each call yields exactly the
        gradients of this output (no accumulation across calls); tensors it
        does not reach keep theirs.  Each node's vjp is called once, in exact
        reverse creation order, and its shares are handed out in operand
        order.  A buffer is allocated on its first share as a C-contiguous
        copy, so it never shares memory with another buffer, and the BLAS
        products that read it round the same way whatever layout the vjp
        returned; later shares are added in place.  The graph is left intact,
        so it is freed with the last reference to its output.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar output, got shape {self.shape}")
        if not self.requires_grad:
            raise ValueError("backward() on a tensor with no gradient path")

        tensors = _reached(self)
        for tensor in tensors:
            tensor.grad = None
        self.grad = np.ones_like(self.data)
        for tensor in tensors:
            if tensor._node is None:
                continue
            operands, needed, vjp = tensor._node
            for parent, need, share in zip(operands, needed, vjp(tensor.grad, needed)):
                if not need:
                    continue
                if parent.grad is None:
                    parent.grad = share.copy()
                else:
                    parent.grad += share

    # -- elementwise ops ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Tensor):
            if self.shape != other.shape:
                raise ShapeError(f"add: shapes {self.shape} and {other.shape} differ")
            return op(self.data + other.data, (self, other), lambda g, needed: (g, g))
        return op(self.data + float(other), (self,), lambda g, needed: (g,))

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, Tensor):
            if self.shape != other.shape:
                raise ShapeError(f"mul: shapes {self.shape} and {other.shape} differ")
            return op(self.data * other.data, (self, other),
                      lambda g, needed: (g * other.data, g * self.data))
        scale = float(other)
        return op(self.data * scale, (self,), lambda g, needed: (g * scale,))

    __rmul__ = __mul__

    def sum(self):
        return op(self.data.sum(), (self,), lambda g, needed: (np.broadcast_to(g, self.shape),))


def op(data: np.ndarray, operands, vjp) -> Tensor:
    """The result of an op: ``data``, plus a node if an operand needs a gradient.

    ``vjp(g, needed)`` takes the result's gradient and the operands'
    ``requires_grad`` flags as they were when the op ran (setting one later
    changes nothing), and returns one gradient per operand, in order, each in
    its operand's full shape (no broadcastable shorthand); an entry whose
    flag is false may be None.  It may refer to the operands but never to the
    result.  A result with no node keeps no operand alive.
    """
    # A list, not tuple(generator): such a tuple is allocated for 10 items and
    # shrunk, so every call drew on CPython's free list of 10-item tuples and
    # returned the tuple to the free list of its own length, which grew to
    # its cap; that raised the peak RSS of `evaluate` by about 1 MB.
    needed = [operand.requires_grad for operand in operands]
    out = Tensor(data)
    if any(needed):
        out._node = (operands, needed, vjp)
        out.requires_grad = True
    return out


def _reached(out: Tensor) -> list[Tensor]:
    """``out`` and every tensor reachable from it through operands that
    needed a gradient: the tensors ``out.backward()`` visits, newest first."""
    reached: dict[int, Tensor] = {}
    stack = [out]
    while stack:
        tensor = stack.pop()
        if id(tensor) in reached:
            continue
        reached[id(tensor)] = tensor
        if tensor._node is not None:
            operands, needed, _ = tensor._node
            stack.extend(parent for parent, need in zip(operands, needed) if need)
    return sorted(reached.values(), key=lambda t: t._nid, reverse=True)


# -- model ops --------------------------------------------------------------


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

    # Each image is viewed as a (C, H*W) matrix, so all three products are
    # plain matrix products.
    n, c, h, w = x.shape
    o, hw = weight.shape[0], h * w
    x3 = x.data.reshape(n, c, hw)
    data = np.matmul(weight.data, x3)
    data += bias.data[None, :, None]

    def vjp(g, needed):
        g3 = g.reshape(n, o, hw)
        # The model's input features need no gradient.
        d_x = np.matmul(weight.data.T, g3).reshape(x.shape) if needed[0] else None
        return d_x, np.matmul(g3, np.swapaxes(x3, 1, 2)).sum(0), g.sum(axis=(0, 2, 3))

    return op(data.reshape(n, o, h, w), (x, weight, bias), vjp)


def softmax_rows(x: np.ndarray, scale: float, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis of ``x / scale``, written to ``out``.

    Stabilized by max subtraction, so finite inputs give finite outputs and
    each last-axis slice sums to one.  With ``out=x`` the logits buffer
    becomes the attention, as in ``temporal_mix``; the composed test oracle
    runs it too.  The spatial relation attention does not: its logits are
    symmetric, and ``temporal._spatial_attention`` keeps them unnormalised.
    """
    y = np.divide(x, scale, out=out)
    y -= y.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    return y


def softmax_rows_vjp(g: np.ndarray, y: np.ndarray, scale: float,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Gradient with respect to the logits of ``y = softmax_rows(x, scale)``,
    given the gradient ``g`` of ``y``; with ``out=g`` it overwrites ``g``."""
    row_dot = np.einsum("...i,...i->...", g, y)[..., None]
    dx = np.subtract(g, row_dot, out=out)
    dx *= y
    dx /= scale
    return dx


# -- gradient verification --------------------------------------------------

_EPS = 1e-5


def grad_check(f, x: Tensor) -> float:
    """Compare the analytic gradient of a scalar function against central
    finite differences of step ``_EPS``.

    Returns the max over elements of ``|analytic - numeric| / scale``, with
    ``scale = max(1e-12, max over elements of |analytic| + |numeric|)``.
    Each element is measured against the gradient's scale, not its own
    size: a central difference carries a rounding error of about
    ``|f| * 1e-16 / _EPS`` in every element, which would be a large part of
    an element whose true gradient is near zero.
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
        flat[i] = saved + _EPS
        hi = f(x).item()
        flat[i] = saved - _EPS
        lo = f(x).item()
        flat[i] = saved
        numeric[i] = (hi - lo) / (2.0 * _EPS)
    if not (np.isfinite(analytic).all() and np.isfinite(numeric).all()):
        raise ValueError("grad_check: non-finite gradient")

    scale = max(1e-12, float(np.max(np.abs(analytic) + np.abs(numeric))))
    return float(np.max(np.abs(analytic - numeric))) / scale
