"""Dense float64 tensors with reverse-mode differentiation.

Only the operations the ranking pipeline needs are implemented: matrix
products (plain, batched, and batched-times-shared), 1x1 convolution over
NCHW blocks, an affine map over the last axis, a scaled softmax, axis means,
and a few elementwise primitives.  Every matrix product, forward and
backward, is an ``np.matmul`` (``@``) call, which numpy hands to BLAS.  The graph is
built define-by-run: an op's result records one edge ``(parent, vjp)`` per
operand whose ``requires_grad`` is set when the op runs (setting it later
adds no edge), and ``vjp(g)`` maps the result's gradient ``g`` to that
operand's share, in the operand's full shape (no broadcastable shorthand).
``Tensor.backward`` is the only code that accumulates gradients: it visits
the differentiable nodes in exact reverse creation order; a parent's first
``vjp(g)`` becomes its ``grad`` as a C-contiguous copy, and each later one is
added to it.  A vjp never refers to its result, so a graph holds no
reference cycle and is freed as soon as its output is dropped.

Each model stage (the spatial relation, the object means, the temporal mix,
frame scoring and the rank loss) is a single node built by ``stage_op``,
whose edges share one hand-derived vjp, because a graph's cost is mostly
the Python work per node.  The primitives above remain for the value
projection, the gradient suite and tests; both attention stages use
``scaled_softmax``'s kernel, ``softmax_rows``, in place.

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
    "softmax_rows",
    "softmax_rows_vjp",
    "mean_axis",
    "relu",
    "stage_op",
    "grad_check",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


_node_counter = count()


class Tensor:
    """Row-major float64 array plus an optional gradient buffer.

    ``_edges`` holds an op result's ``(parent, vjp)`` pairs; a result has
    ``requires_grad`` set exactly when it has an edge.
    """

    __slots__ = ("data", "grad", "requires_grad", "_edges", "_nid")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._edges: tuple = ()
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
        does not reach keep theirs.  A buffer is allocated on its first
        contribution as a C-contiguous copy of that ``vjp(g)``, so it never
        shares memory with another buffer, and the BLAS products that read
        it round the same way whatever layout the vjp returned; later
        contributions are added in place.  Hence every vjp must return its
        parent's full shape.  The graph is left intact (and holds no
        cycle), so it is freed with the last reference to its output.
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
            stack.extend(parent for parent, _ in node._edges)

        nodes = sorted(reached.values(), key=lambda t: t._nid, reverse=True)
        for node in nodes:
            node.grad = None
        self.grad = np.ones_like(self.data)
        for node in nodes:
            for parent, vjp in node._edges:
                if parent.grad is None:
                    parent.grad = vjp(node.grad).copy()
                else:
                    parent.grad += vjp(node.grad)

    # -- elementwise and shape ops ----------------------------------------

    def __add__(self, other):
        if isinstance(other, Tensor):
            if self.shape != other.shape:
                raise ShapeError(f"add: shapes {self.shape} and {other.shape} differ")
            return _op(self.data + other.data, (self, lambda g: g), (other, lambda g: g))
        return _op(self.data + float(other), (self, lambda g: g))

    __radd__ = __add__

    def __neg__(self):
        return _op(-self.data, (self, lambda g: -g))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + float(other)

    def __mul__(self, other):
        if isinstance(other, Tensor):
            if self.shape != other.shape:
                raise ShapeError(f"mul: shapes {self.shape} and {other.shape} differ")
            return _op(self.data * other.data,
                       (self, lambda g: g * other.data), (other, lambda g: g * self.data))
        scale = float(other)
        return _op(self.data * scale, (self, lambda g: g * scale))

    __rmul__ = __mul__

    def reshape(self, *shape: int):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        if math.prod(shape) != self.size:
            raise ShapeError(f"reshape: {self.shape} has {self.size} elements, target {shape}")
        return _op(self.data.reshape(shape), (self, lambda g: g.reshape(self.shape)))

    def sum(self):
        return _op(self.data.sum(), (self, lambda g: np.broadcast_to(g, self.shape)))

    def mean(self):
        n = self.size
        return _op(self.data.mean(), (self, lambda g: np.broadcast_to(g / n, self.shape)))


def _op(data: np.ndarray, *edges: tuple[Tensor, object]) -> Tensor:
    """The result of an op: ``data`` plus the ``(parent, vjp)`` edges whose
    parent needs a gradient now.

    ``vjp(g)`` takes the result's gradient as its argument and may refer to
    the operands but never to the result, so the result is not part of a
    reference cycle: a graph is freed by reference counting as soon as its
    output is dropped.
    """
    out = Tensor(data)
    out._edges = tuple(edge for edge in edges if edge[0].requires_grad)
    out.requires_grad = bool(out._edges)
    return out


def stage_op(data: np.ndarray, operands, vjp) -> Tensor:
    """The result of a whole model stage as one node, with one edge per
    operand that needs a gradient.

    ``vjp(g, needed)`` returns one gradient per operand, in order, in the
    operand's full shape; an entry whose ``needed`` flag is false may be None
    and need not be computed.  Every edge of the node is served by the same
    call: ``backward`` visits a node's edges one after the other with the
    same ``g``, so the first edge calls ``vjp`` and each edge, the first
    included, takes its own share.  The edges thereby share intermediates
    (such as the gradient of a projection that several operands feed), and
    the node holds no gradient once its last edge has been visited.
    """
    # Lists, not tuple(generator): such a tuple is allocated for 10 items and
    # shrunk, so every call drew on CPython's free list of 10-item tuples and
    # returned the tuple to the free list of its own length, which grew to
    # its cap; that raised the peak RSS of `evaluate` by about 1 MB.
    needed = [operand.requires_grad for operand in operands]
    shares = {}

    def edge(i):
        def share(g):
            if not shares:
                shares.update((j, grad) for j, grad in enumerate(vjp(g, needed)) if needed[j])
            return shares.pop(i)

        return share

    return _op(data, *[(operand, edge(i)) for i, operand in enumerate(operands) if needed[i]])


# -- linear algebra --------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product.

    Accepts (M,K)x(K,P), batched (N,M,K)x(N,K,P), and (N,M,K)x(K,P) where the
    right operand is shared across the batch.
    """
    shared_rhs = a.ndim == 3 and b.ndim == 2
    if (a.ndim == 2 and b.ndim == 2) or shared_rhs:
        if a.shape[-1] != b.shape[0]:
            raise ShapeError(f"matmul: inner extents differ, {a.shape} x {b.shape}")
    elif a.ndim == 3 and b.ndim == 3:
        if a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
            raise ShapeError(f"matmul: batch shapes incompatible, {a.shape} x {b.shape}")
    else:
        raise ShapeError(f"matmul: unsupported ranks, {a.shape} x {b.shape}")

    def grad_b(g):
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return gb.sum(axis=0) if shared_rhs else gb

    return _op(np.matmul(a.data, b.data),
               (a, lambda g: np.matmul(g, np.swapaxes(b.data, -1, -2))), (b, grad_b))


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
    return _op(data.reshape(n, o, h, w),
               (x, lambda g: np.matmul(weight.data.T, g.reshape(n, o, hw)).reshape(x.shape)),
               (weight, lambda g: np.matmul(g.reshape(n, o, hw), np.swapaxes(x3, 1, 2)).sum(0)),
               (bias, lambda g: g.sum(axis=(0, 2, 3))))


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map over the last axis: ``out[..., :] = weight @ x[..., :] + bias``."""
    if weight.ndim != 2 or bias.ndim != 1 or weight.shape[0] != bias.shape[0]:
        raise ShapeError(f"linear: bad parameter shapes {weight.shape}, {bias.shape}")
    if x.shape[-1] != weight.shape[1]:
        raise ShapeError(f"linear: feature mismatch, input {x.shape} vs weight {weight.shape}")

    return _op(x.data @ weight.data.T + bias.data,
               (x, lambda g: g @ weight.data),
               (weight, lambda g: g.reshape(-1, weight.shape[0]).T
                @ x.data.reshape(-1, weight.shape[1])),
               (bias, lambda g: g.reshape(-1, weight.shape[0]).sum(axis=0)))


def softmax_rows(x: np.ndarray, scale: float, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis of ``x / scale``, written to ``out``.

    Stabilized by max subtraction.  With ``out=x`` the logits buffer becomes
    the attention: the kernel of ``scaled_softmax`` and of both attention
    stages, which hold one buffer per attention this way.
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


def scaled_softmax(x: Tensor, scale_dim: int) -> Tensor:
    """Softmax over the last axis of ``x / sqrt(scale_dim)``.

    Stabilized by max subtraction, so finite inputs give finite outputs and
    each last-axis slice sums to one.
    """
    if scale_dim < 1:
        raise ValueError(f"scaled_softmax: scale_dim must be positive, got {scale_dim}")
    scale = math.sqrt(scale_dim)
    y = softmax_rows(x.data, scale)
    return _op(y, (x, lambda g: softmax_rows_vjp(g, y, scale)))


def mean_axis(x: Tensor, axis: int) -> Tensor:
    """Arithmetic mean along ``axis``; the axis is removed."""
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"mean_axis: axis {axis} out of range for shape {x.shape}")
    axis = axis % x.ndim
    n = x.shape[axis]
    return _op(x.data.mean(axis=axis),
               (x, lambda g: np.broadcast_to(np.expand_dims(g, axis) / n, x.shape)))


def relu(x: Tensor) -> Tensor:
    return _op(np.maximum(x.data, 0.0), (x, lambda g: (x.data > 0.0) * g))


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
