"""Tests for the autograd tensor engine, including numerical gradient checks."""

import threading

import numpy as np
import pytest
import scipy.sparse as sp

from repro.nn import Tensor, concatenate, no_grad, sparse_matmul, stack, where
from repro.nn.tensor import _unbroadcast


def numerical_gradient(func, value: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar-valued ``func`` at ``value``."""
    gradient = np.zeros_like(value, dtype=np.float64)
    flat = value.reshape(-1)
    grad_flat = gradient.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + eps
        plus = func(value)
        flat[index] = original - eps
        minus = func(value)
        flat[index] = original
        grad_flat[index] = (plus - minus) / (2 * eps)
    return gradient


def check_gradient(build_loss, shape, seed=0, atol=1e-5):
    """Compare autograd gradients against numerical differentiation."""
    rng = np.random.default_rng(seed)
    value = rng.normal(size=shape)
    tensor = Tensor(value.copy(), requires_grad=True)
    loss = build_loss(tensor)
    loss.backward()
    analytic = tensor.grad

    def scalar(array):
        return build_loss(Tensor(array)).item()

    numeric = numerical_gradient(scalar, value.copy())
    np.testing.assert_allclose(analytic, numeric, atol=atol)


class TestBasicOps:
    def test_addition_values(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([3.0, 4.0])
        np.testing.assert_allclose((a + b).numpy(), [4.0, 6.0])

    def test_scalar_addition(self):
        a = Tensor([1.0, 2.0])
        np.testing.assert_allclose((a + 1.0).numpy(), [2.0, 3.0])
        np.testing.assert_allclose((1.0 + a).numpy(), [2.0, 3.0])

    def test_subtraction_and_negation(self):
        a = Tensor([3.0, 5.0])
        b = Tensor([1.0, 2.0])
        np.testing.assert_allclose((a - b).numpy(), [2.0, 3.0])
        np.testing.assert_allclose((-a).numpy(), [-3.0, -5.0])
        np.testing.assert_allclose((10.0 - a).numpy(), [7.0, 5.0])

    def test_multiplication_and_division(self):
        a = Tensor([2.0, 4.0])
        b = Tensor([4.0, 8.0])
        np.testing.assert_allclose((a * b).numpy(), [8.0, 32.0])
        np.testing.assert_allclose((b / a).numpy(), [2.0, 2.0])
        np.testing.assert_allclose((8.0 / a).numpy(), [4.0, 2.0])

    def test_power(self):
        a = Tensor([2.0, 3.0])
        np.testing.assert_allclose((a ** 2).numpy(), [4.0, 9.0])

    def test_matmul_values(self):
        a = Tensor(np.eye(2) * 2)
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose((a @ b).numpy(), [[2.0, 4.0], [6.0, 8.0]])

    def test_shape_properties(self):
        t = Tensor(np.zeros((3, 4)))
        assert t.shape == (3, 4)
        assert t.ndim == 2
        assert t.size == 12
        assert t.T.shape == (4, 3)

    def test_detach_cuts_graph(self):
        a = Tensor([1.0], requires_grad=True)
        detached = (a * 2).detach()
        assert not detached.requires_grad

    def test_item_requires_scalar(self):
        assert Tensor(3.5).item() == pytest.approx(3.5)

    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_requires_scalar_without_grad(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            t.backward()


class TestGradients:
    def test_add_mul_gradient(self):
        check_gradient(lambda x: ((x * 3.0 + 1.0) * x).sum(), (4, 3))

    def test_matmul_gradient(self):
        rng = np.random.default_rng(1)
        other = rng.normal(size=(3, 5))
        check_gradient(lambda x: (x @ Tensor(other)).sum(), (4, 3))

    def test_matmul_gradient_right_operand(self):
        rng = np.random.default_rng(2)
        left = rng.normal(size=(5, 4))
        check_gradient(lambda x: (Tensor(left) @ x).sum(), (4, 3))

    def test_division_gradient(self):
        check_gradient(lambda x: (1.0 / (x * x + 2.0)).sum(), (3, 3))

    def test_exp_log_gradient(self):
        check_gradient(lambda x: ((x.exp() + 2.0).log()).sum(), (4,))

    def test_relu_gradient(self):
        # Shift away from zero to avoid the non-differentiable kink.
        check_gradient(lambda x: ((x + 0.3).relu() * 2.0).sum(), (5, 2))

    def test_tanh_sigmoid_gradient(self):
        check_gradient(lambda x: (x.tanh() * x.sigmoid()).sum(), (6,))

    def test_elu_gradient(self):
        check_gradient(lambda x: (x.elu()).sum(), (8,))

    def test_leaky_relu_gradient(self):
        check_gradient(lambda x: ((x + 0.29).leaky_relu(0.1)).sum(), (7,))

    def test_softmax_gradient(self):
        check_gradient(lambda x: (x.softmax(axis=1) * Tensor(np.arange(12.0).reshape(4, 3))).sum(), (4, 3))

    def test_log_softmax_gradient(self):
        check_gradient(lambda x: (x.log_softmax(axis=1)[:, 0]).sum(), (4, 3))

    def test_sum_axis_gradient(self):
        check_gradient(lambda x: (x.sum(axis=0) ** 2).sum(), (3, 4))

    def test_mean_gradient(self):
        check_gradient(lambda x: (x.mean(axis=1) ** 2).sum(), (3, 4))

    def test_max_gradient(self):
        rng = np.random.default_rng(3)
        value = rng.normal(size=(4, 3))
        tensor = Tensor(value, requires_grad=True)
        loss = tensor.max(axis=1).sum()
        loss.backward()
        # Each row contributes exactly one unit of gradient.
        np.testing.assert_allclose(tensor.grad.sum(axis=1), np.ones(4))

    def test_getitem_gradient(self):
        check_gradient(lambda x: (x[1:3] * 2.0).sum(), (5, 2))

    def test_transpose_reshape_gradient(self):
        check_gradient(lambda x: (x.T.reshape(6) * 3.0).sum(), (2, 3))

    def test_abs_gradient(self):
        check_gradient(lambda x: (x + 0.4).abs().sum(), (6,))

    def test_broadcast_add_gradient(self):
        rng = np.random.default_rng(4)
        bias = rng.normal(size=(3,))
        check_gradient(lambda x: ((x + Tensor(bias)) ** 2).sum(), (4, 3))

    def test_broadcast_bias_gradient(self):
        rng = np.random.default_rng(5)
        matrix = rng.normal(size=(4, 3))

        def loss(bias):
            return ((Tensor(matrix) + bias) ** 2).sum()

        check_gradient(loss, (3,))

    def test_gradient_accumulation_over_reuse(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * x + x * 3.0
        y.backward()
        np.testing.assert_allclose(x.grad, [7.0])


class TestFreeFunctions:
    def test_concatenate_values_and_gradient(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.full((2, 3), 2.0), requires_grad=True)
        merged = concatenate([a, b], axis=1)
        assert merged.shape == (2, 5)
        (merged * 2.0).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 2), 2.0))
        np.testing.assert_allclose(b.grad, np.full((2, 3), 2.0))

    def test_stack_values_and_gradient(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.full(3, 2.0), requires_grad=True)
        stacked = stack([a, b], axis=0)
        assert stacked.shape == (2, 3)
        stacked.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(3))
        np.testing.assert_allclose(b.grad, np.ones(3))

    def test_sparse_matmul_values(self):
        matrix = sp.csr_matrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
        dense = Tensor(np.array([[1.0, 1.0], [2.0, 2.0]]))
        result = sparse_matmul(matrix, dense)
        np.testing.assert_allclose(result.numpy(), [[2.0, 2.0], [2.0, 2.0]])

    def test_sparse_matmul_gradient(self):
        matrix = sp.random(6, 6, density=0.4, random_state=0, format="csr")

        def loss(x):
            return (sparse_matmul(matrix, x) ** 2).sum()

        check_gradient(loss, (6, 3))

    def test_sparse_matmul_rejects_dense(self):
        with pytest.raises(TypeError):
            sparse_matmul(np.eye(2), Tensor(np.ones((2, 2))))

    def test_where_selects_and_routes_gradient(self):
        condition = np.array([True, False, True])
        a = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        b = Tensor([10.0, 20.0, 30.0], requires_grad=True)
        out = where(condition, a, b)
        np.testing.assert_allclose(out.numpy(), [1.0, 20.0, 3.0])
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 0.0, 1.0])
        np.testing.assert_allclose(b.grad, [0.0, 1.0, 0.0])

    def test_unbroadcast_restores_shape(self):
        grad = np.ones((4, 3))
        reduced = _unbroadcast(grad, (3,))
        np.testing.assert_allclose(reduced, np.full(3, 4.0))
        reduced_keepdim = _unbroadcast(grad, (1, 3))
        assert reduced_keepdim.shape == (1, 3)


class TestNoGrad:
    def test_no_grad_is_thread_local(self):
        weight = Tensor(np.ones((2, 2)), requires_grad=True)
        inside, release = threading.Event(), threading.Event()
        untaped = {}

        def inference():
            with no_grad():
                untaped["out"] = concatenate([weight @ np.ones((2, 1))], axis=1)
                inside.set()
                release.wait(10)

        thread = threading.Thread(target=inference)
        thread.start()
        try:
            assert inside.wait(10)
            # This thread still records while the other one is inside no_grad().
            (weight @ np.ones((2, 1))).sum().backward()
        finally:
            release.set()
            thread.join(10)
        np.testing.assert_allclose(weight.grad, np.ones((2, 2)))
        out = untaped["out"]
        assert not out.requires_grad and out._parents == ()
        np.testing.assert_allclose(out.numpy(), np.full((2, 1), 2.0))
