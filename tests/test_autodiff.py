"""Tensor op semantics and gradient correctness against finite differences."""

import re

import numpy as np
import pytest

from vsorank.autodiff import (
    ShapeError,
    Tensor,
    conv1x1,
    grad_check,
    linear,
    matmul,
    mean_axis,
    relu,
    scaled_softmax,
)


def rand_tensor(rng, *shape, requires_grad=True):
    return Tensor(rng.standard_normal(shape), requires_grad=requires_grad)


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(a, b).data, b.data)

    def test_hand_value(self):
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_gradient_both_operands(self):
        rng = np.random.default_rng(3)
        a = rand_tensor(rng, 3, 2)
        b = rand_tensor(rng, 2, 4)
        assert grad_check(lambda x: matmul(x, b).sum(), a) < 1e-6
        assert grad_check(lambda x: matmul(a, x).sum(), b) < 1e-6

    def test_batched_and_shared_rhs(self):
        rng = np.random.default_rng(4)
        a = rand_tensor(rng, 2, 3, 2)
        b3 = rand_tensor(rng, 2, 2, 5)
        b2 = rand_tensor(rng, 2, 5)
        expect = np.matmul(a.data, b3.data)
        assert np.allclose(matmul(a, b3).data, expect)
        assert grad_check(lambda x: matmul(a, x).sum(), b3) < 1e-6
        assert grad_check(lambda x: matmul(x, b2).sum(), a) < 1e-6
        assert grad_check(lambda x: matmul(a, x).sum(), b2) < 1e-6

    def test_shape_error_names_both_shapes(self):
        a, b = Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3)))
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(a, b)


class TestConv1x1:
    def test_identity_params(self):
        rng = np.random.default_rng(0)
        x = rand_tensor(rng, 2, 3, 4, 4, requires_grad=False)
        out = conv1x1(x, Tensor(np.eye(3)), Tensor(np.zeros(3)))
        assert np.array_equal(out.data, x.data)

    def test_hand_value(self):
        x = Tensor(np.array([1.0, 2.0]).reshape(1, 2, 1, 1))
        out = conv1x1(x, Tensor([[1.0, 1.0], [0.0, 1.0]]), Tensor([0.0, 0.0]))
        assert out.data.reshape(2).tolist() == [3.0, 2.0]

    def test_gradients(self):
        rng = np.random.default_rng(5)
        x = rand_tensor(rng, 2, 3, 2, 2)
        w = rand_tensor(rng, 4, 3)
        b = rand_tensor(rng, 4)
        assert grad_check(lambda t: conv1x1(t, w, b).sum(), x) < 1e-6
        assert grad_check(lambda t: conv1x1(x, t, b).sum(), w) < 1e-6
        assert grad_check(lambda t: conv1x1(x, w, t).sum(), b) < 1e-6

    def test_channel_mismatch(self):
        x = Tensor(np.zeros((1, 3, 2, 2)))
        with pytest.raises(ShapeError, match="channel"):
            conv1x1(x, Tensor(np.zeros((4, 5))), Tensor(np.zeros(4)))

    # (N, C_in, H, W) input and C_out
    SHAPES = [
        pytest.param((3, 4, 2, 5), 6, id="batched-non-square"),
        pytest.param((1, 1, 3, 3), 2, id="one-input-channel"),
        pytest.param((2, 5, 1, 1), 1, id="one-position-one-output"),
        pytest.param((3, 16, 7, 7), 16, id="model-block"),
    ]

    @pytest.mark.parametrize("x_shape, c_out", SHAPES)
    def test_forward_equals_per_image_matmul(self, x_shape, c_out):
        rng = np.random.default_rng(6)
        n, c, h, w = x_shape
        x, weight, bias = (rng.standard_normal(s) for s in (x_shape, (c_out, c), (c_out,)))
        out = conv1x1(Tensor(x), Tensor(weight), Tensor(bias))
        expect = [np.matmul(weight, x[i].reshape(c, h * w)) + bias[:, None] for i in range(n)]
        assert np.array_equal(out.data, np.stack(expect).reshape(n, c_out, h, w))

    @pytest.mark.parametrize("x_shape, c_out", SHAPES)
    def test_vjps_match_einsum_oracle(self, x_shape, c_out):
        rng = np.random.default_rng(7)
        x = rand_tensor(rng, *x_shape)
        weight = rand_tensor(rng, c_out, x_shape[1])
        bias = rand_tensor(rng, c_out)
        upstream = rng.standard_normal((x_shape[0], c_out, *x_shape[2:]))
        (conv1x1(x, weight, bias) * Tensor(upstream)).sum().backward()
        expected = {
            "x": (x.grad, np.einsum("oc,nohw->nchw", weight.data, upstream)),
            "weight": (weight.grad, np.einsum("nohw,nchw->oc", upstream, x.data)),
            "bias": (bias.grad, np.einsum("nohw->o", upstream)),
        }
        for name, (got, expect) in expected.items():
            assert got.shape == expect.shape, name
            assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max(), name


class TestScaledSoftmax:
    def test_constant_row_is_uniform(self):
        out = scaled_softmax(Tensor([7.5, 7.5, 7.5]), 3)
        assert np.allclose(out.data, 1.0 / 3.0, atol=1e-15)

    def test_hand_value(self):
        # logits [0, ln3 * sqrt(4)] at scale 4 divide down to [0, ln3].
        x = Tensor([0.0, np.log(3.0) * 2.0])
        out = scaled_softmax(x, 4)
        assert np.allclose(out.data, [0.25, 0.75], atol=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        out = scaled_softmax(Tensor(rng.standard_normal((4, 5, 6)) * 30.0), 5)
        assert np.all(out.data >= 0.0)
        assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_extreme_inputs_stay_finite(self):
        out = scaled_softmax(Tensor([[1e6, -1e6, 0.0]]), 2)
        assert np.isfinite(out.data).all()


class TestMeanAxis:
    def test_singleton_axis_squeezes(self):
        x = Tensor([[1.0], [2.0]])
        out = mean_axis(x, 1)
        assert out.data.tolist() == [1.0, 2.0]

    def test_hand_value(self):
        out = mean_axis(Tensor([[1.0, 3.0], [5.0, 7.0]]), 0)
        assert out.data.tolist() == [3.0, 5.0]

    def test_gradient_is_uniform(self):
        x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        mean_axis(x, 0).sum().backward()
        assert np.allclose(x.grad, 1.0 / 3.0)

    def test_axis_out_of_range(self):
        with pytest.raises(ShapeError, match="axis"):
            mean_axis(Tensor(np.zeros((2, 2))), 2)


class TestLinear:
    def test_identity(self):
        rng = np.random.default_rng(1)
        x = rand_tensor(rng, 4, 3, requires_grad=False)
        out = linear(x, Tensor(np.eye(3)), Tensor(np.zeros(3)))
        assert np.array_equal(out.data, x.data)

    def test_hand_value(self):
        out = linear(Tensor([1.0, 2.0]), Tensor([[1.0, -1.0]]), Tensor([0.5]))
        assert out.data.tolist() == [-0.5]

    def test_gradients(self):
        rng = np.random.default_rng(7)
        x = rand_tensor(rng, 2, 5)
        w = rand_tensor(rng, 3, 5)
        b = rand_tensor(rng, 3)
        assert grad_check(lambda t: linear(t, w, b).sum(), x) < 1e-6
        assert grad_check(lambda t: linear(x, t, b).sum(), w) < 1e-6
        assert grad_check(lambda t: linear(x, w, t).sum(), b) < 1e-6


class TestGradCheckHarness:
    def test_sum_has_unit_gradient(self):
        rng = np.random.default_rng(8)
        x = rand_tensor(rng, 3, 3)
        assert grad_check(lambda t: t.sum(), x) < 1e-10

    def test_softmax_weighted_sum(self):
        rng = np.random.default_rng(9)
        x = rand_tensor(rng, 4)
        assert grad_check(lambda t: (scaled_softmax(t, 4) * t).sum(), x) < 1e-6

    def test_matmul_softmax_mean_composite(self):
        rng = np.random.default_rng(10)
        x = rand_tensor(rng, 3, 3)
        w = Tensor(rng.standard_normal((3, 3)))
        u = Tensor(rng.standard_normal(3))

        def f(t):
            return (mean_axis(scaled_softmax(matmul(t, w), 3), 0) * u).sum()

        assert grad_check(f, x) < 1e-5

    def test_rejects_non_scalar_function(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ShapeError):
            grad_check(lambda t: t * 2.0, x)


class TestStructuralOps:
    def test_reshape_preserves_data(self):
        rng = np.random.default_rng(11)
        x = rand_tensor(rng, 3, 4, requires_grad=False)
        out = x.reshape(2, 6)
        assert np.array_equal(out.data.reshape(-1), x.data.reshape(-1))

    def test_reshape_gradient(self):
        rng = np.random.default_rng(12)
        x = rand_tensor(rng, 3, 4)
        u = Tensor(rng.standard_normal((2, 6)))
        assert grad_check(lambda t: (t.reshape(2, 6) * u).sum(), x) < 1e-6

    def test_elementwise_gradients(self):
        rng = np.random.default_rng(14)
        x = rand_tensor(rng, 5)
        y = Tensor(rng.standard_normal(5))
        assert grad_check(lambda t: ((t + y) * t - (2.0 - t) * 0.3).sum(), x) < 1e-6


class TestBackwardSemantics:
    def test_repeated_backward_does_not_accumulate(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        out = (x * x).sum()
        out.backward()
        first = x.grad.copy()
        out.backward()
        assert np.array_equal(x.grad, first)

    def test_shared_subexpression_accumulates_once_per_use(self):
        x = Tensor([3.0], requires_grad=True)
        y = x * 2.0
        out = (y + y).sum()
        out.backward()
        assert x.grad.tolist() == [4.0]

    def test_backward_requires_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            (x * 2.0).backward()

    def test_leaf_without_requires_grad_gets_no_grad(self):
        x = Tensor([1.0], requires_grad=True)
        c = Tensor([2.0])
        (x * c).sum().backward()
        assert c.grad is None


def _reached(out):
    """Every tensor that ``out.backward()`` visits."""
    seen, pending = {}, [out]
    while pending:
        node = pending.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            pending.extend(parent for parent, _ in node._edges)
    return list(seen.values())


# Operand shapes and the op under test; each graph ends in ``(op(...) * u).sum()``.
GRAPHS = {
    "matmul": ([(3, 2), (2, 4)], matmul),
    "matmul_batched": ([(2, 3, 2), (2, 2, 4)], matmul),
    "matmul_shared_rhs": ([(2, 3, 2), (2, 4)], matmul),
    "conv1x1": ([(2, 3, 2, 2), (4, 3), (4,)], conv1x1),
    "linear": ([(2, 3, 4), (5, 4), (5,)], linear),
    "scaled_softmax": ([(3, 4)], lambda x: scaled_softmax(x, 4)),
    "mean_axis": ([(2, 3, 4)], lambda x: mean_axis(x, 1)),
    "relu": ([(3, 4)], relu),
    "add": ([(3, 4), (3, 4)], lambda a, b: a + b),
    "sub": ([(3, 4), (3, 4)], lambda a, b: a - b),
    "neg": ([(3, 4)], lambda x: -x),
    "mul": ([(3, 4), (3, 4)], lambda a, b: a * b),
    "reshape": ([(3, 4)], lambda x: x.reshape(2, 6)),
    "sum": ([(3, 4)], lambda x: x.sum()),
    "mean": ([(3, 4)], lambda x: x.mean()),
    "add_scalar": ([(3, 4)], lambda x: x + 2.0),
    "rsub_scalar": ([(3, 4)], lambda x: 2.0 - x),
    "mul_scalar": ([(3, 4)], lambda x: x * 3.0),
}


class TestGradientBuffers:
    """The layout contract of ``grad``: full shape, C order, never shared."""

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_reached_grads_have_full_shape_and_c_order(self, name):
        shapes, op = GRAPHS[name]
        rng = np.random.default_rng(31)
        y = op(*(rand_tensor(rng, *shape) for shape in shapes))
        out = (y * Tensor(rng.standard_normal(y.shape))).sum()
        out.backward()
        reached = _reached(out)
        assert len(reached) >= len(shapes) + 3
        for t in reached:
            assert t.grad.shape == t.shape, t
            assert t.grad.flags.c_contiguous, t

    def test_first_contribution_is_not_aliased(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        y = x * 1.0
        doubled = y + y
        doubled.sum().backward()
        assert not np.shares_memory(y.grad, doubled.grad)
        assert np.array_equal(doubled.grad, np.ones((2, 2)))
        assert np.array_equal(y.grad, np.full((2, 2), 2.0))
        assert np.array_equal(x.grad, np.full((2, 2), 2.0))

    def test_unreached_leaf_keeps_its_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a * b).sum().backward()
        kept = a.grad
        (b * 2.0).sum().backward()
        assert a.grad is kept and a.grad.tolist() == [3.0, 4.0]
        assert b.grad.tolist() == [2.0, 2.0]


class TestRandomizedGradients:
    """Every differentiable op passes finite-difference checks over many seeds."""

    @pytest.mark.parametrize("seed", range(20))
    def test_all_ops_random_shapes(self, seed):
        rng = np.random.default_rng(seed)
        n, c = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        x4 = rand_tensor(rng, n, c, 2, 2)
        w = rand_tensor(rng, c, c)
        b = rand_tensor(rng, c)
        assert grad_check(lambda t: conv1x1(t, w, b).sum(), x4) < 1e-5

        m, k, p = (int(rng.integers(1, 4)) for _ in range(3))
        a = rand_tensor(rng, m, k)
        bb = rand_tensor(rng, k, p)
        assert grad_check(lambda t: matmul(t, bb).sum(), a) < 1e-5

        x2 = rand_tensor(rng, n, c)
        u = Tensor(rng.standard_normal((n, c)))
        assert grad_check(lambda t: (scaled_softmax(t, c) * u).sum(), x2) < 1e-5

        axis = int(rng.integers(0, 4))
        assert grad_check(lambda t: mean_axis(t, axis).sum(), x4) < 1e-5

    @pytest.mark.parametrize("seed", range(10))
    def test_random_cotangent_jacobian_action(self, seed):
        # <u, f(x)> gradients match finite differences for random cotangents.
        rng = np.random.default_rng((21, seed))
        x = rand_tensor(rng, 2, 3, 2, 2)
        w = rand_tensor(rng, 3, 3, requires_grad=False)
        b = rand_tensor(rng, 3, requires_grad=False)
        u = Tensor(rng.standard_normal((2, 3, 2, 2)))

        def f(t):
            return (conv1x1(t, w, b) * u).sum()

        assert grad_check(f, x) < 1e-5


def _zeros(*shape):
    return Tensor(np.zeros(shape))


def _overflowing_difference():
    # f(1) is the largest float, so f(1 + eps) overflows: the analytic
    # gradient and f(1) are finite, but the central difference is not.
    x = Tensor([1.0], requires_grad=True)
    with np.errstate(over="ignore"):
        grad_check(lambda t: (t * np.finfo(np.float64).max).sum(), x)


# Each input check: the call, the exact exception type and a message fragment.
ERRORS = {
    "item-non-scalar": (lambda: _zeros(2).item(), ShapeError, "item() needs a single element"),
    "backward-no-gradient-path": (lambda: Tensor([1.0]).backward(), ValueError,
                                  "no gradient path"),
    "add-unequal-shapes": (lambda: _zeros(2) + _zeros(3), ShapeError,
                           "add: shapes (2,) and (3,) differ"),
    "mul-unequal-shapes": (lambda: _zeros(2) * _zeros(3), ShapeError,
                           "mul: shapes (2,) and (3,) differ"),
    "reshape-element-count": (lambda: _zeros(2, 3).reshape(4), ShapeError,
                              "reshape: (2, 3) has 6 elements, target (4,)"),
    "matmul-batch-shapes": (lambda: matmul(_zeros(2, 3, 2), _zeros(3, 2, 3)), ShapeError,
                            "batch shapes incompatible"),
    "matmul-inner-batch-extent": (lambda: matmul(_zeros(2, 3, 2), _zeros(2, 3, 3)), ShapeError,
                                  "batch shapes incompatible"),
    "matmul-unsupported-ranks": (lambda: matmul(_zeros(2), _zeros(2, 2)), ShapeError,
                                 "unsupported ranks, (2,) x (2, 2)"),
    "conv1x1-not-nchw": (lambda: conv1x1(_zeros(3, 2, 2), _zeros(4, 3), _zeros(4)), ShapeError,
                         "input must be NCHW"),
    "conv1x1-bias-length": (lambda: conv1x1(_zeros(1, 3, 2, 2), _zeros(4, 3), _zeros(5)),
                            ShapeError, "conv1x1: bad parameter shapes (4, 3), (5,)"),
    "conv1x1-weight-rank": (lambda: conv1x1(_zeros(1, 3, 2, 2), _zeros(3), _zeros(3)),
                            ShapeError, "conv1x1: bad parameter shapes"),
    "linear-bias-rank": (lambda: linear(_zeros(2, 5), _zeros(3, 5), _zeros(3, 1)), ShapeError,
                         "linear: bad parameter shapes (3, 5), (3, 1)"),
    "linear-feature-mismatch": (lambda: linear(_zeros(2, 4), _zeros(3, 5), _zeros(3)),
                                ShapeError, "linear: feature mismatch"),
    "scaled-softmax-scale-dim": (lambda: scaled_softmax(_zeros(2, 2), 0), ValueError,
                                 "scale_dim must be positive, got 0"),
    "grad-check-non-finite-value": (
        lambda: grad_check(lambda t: (t * np.inf).sum(), Tensor([1.0])), ValueError,
        "non-finite function value"),
    "grad-check-non-finite-gradient": (_overflowing_difference, ValueError,
                                       "non-finite gradient"),
}


@pytest.mark.parametrize("name", sorted(ERRORS))
def test_bad_input_raises(name):
    call, error, fragment = ERRORS[name]
    with pytest.raises(error, match=re.escape(fragment)) as raised:
        call()
    assert type(raised.value) is error
