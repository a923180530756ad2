"""Tests for the autograd tensor engine, including numerical gradient checks."""

import functools
import gc
import threading
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from repro.nn import Tensor, concatenate, no_grad, row_subset, sparse_matmul, stack, where
from repro.nn import functional as F
from repro.nn.tensor import (
    _unbroadcast,
    current_row_subset,
    dropout_linear,
    linear,
    weighted_sum,
)


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


def _assert_same_tape(fused, unfused, values, requires_grad, upstream):
    """Both builds give equal outputs and leaf gradients, bit for bit."""
    results = []
    for build in (fused, unfused):
        leaves = [Tensor(value.copy(), requires_grad=flag) for value, flag in zip(values, requires_grad)]
        out = build(*leaves)
        (out * Tensor(upstream)).sum().backward()
        results.append((out.data, [leaf.grad for leaf in leaves]))
    (fused_out, fused_grads), (unfused_out, unfused_grads) = results
    np.testing.assert_array_equal(fused_out, unfused_out)
    for fused_grad, unfused_grad in zip(fused_grads, unfused_grads):
        assert (fused_grad is None) == (unfused_grad is None)
        if fused_grad is not None:
            np.testing.assert_array_equal(fused_grad, unfused_grad)


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

    def test_backward_through_a_3000_op_chain(self):
        # Deeper than Python's recursion limit: the sort must not recurse.
        x = Tensor(np.ones(3), requires_grad=True)
        y = x
        for _ in range(3000):
            y = y * 1.0
        y.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones(3))

    def test_tape_dies_with_the_loss_without_the_collector(self):
        x = Tensor(np.ones((4, 3)), requires_grad=True)
        enabled = gc.isenabled()
        gc.disable()
        try:
            hidden = (x * 2.0).tanh()
            tape_array = weakref.ref(hidden.data)
            loss = (hidden * hidden).sum()
            del hidden
            loss.backward()
            assert tape_array() is not None  # the loss still holds its tape
            del loss
            assert tape_array() is None
        finally:
            if enabled:
                gc.enable()


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

    @pytest.mark.parametrize("x_grad", [True, False])
    @pytest.mark.parametrize("bias", [True, False])
    def test_linear_is_matmul_plus_bias_bit_for_bit(self, bias, x_grad):
        rng = np.random.default_rng(6)
        values = [rng.normal(size=(5, 4)), rng.normal(size=(4, 4)), rng.normal(size=(4,))]
        upstream = rng.normal(size=(5, 4))

        # The weight and bias are used twice, so the order in which their
        # gradients accumulate shows in the last bits.
        def fused(x, w, b):
            b = b if bias else None
            return linear(linear(x, w, b).tanh(), w, b)

        def unfused(x, w, b):
            def affine(h):
                out = h @ w
                return out + b if bias else out

            return affine(affine(x).tanh())

        _assert_same_tape(fused, unfused, values, [x_grad, True, True], upstream)

    @pytest.mark.parametrize("weights_grad", [True, False])
    def test_weighted_sum_is_the_sliced_product_loop_bit_for_bit(self, weights_grad):
        rng = np.random.default_rng(7)
        values = [rng.normal(size=(6, 4)) for _ in range(3)]
        values += [rng.normal(size=(4, 4)), rng.normal(size=(6, 3))]
        upstream = rng.normal(size=(6, 4))

        # As in the attention, the blocks score themselves into the weights.
        # One parameter both makes the blocks and scores them, so the order
        # in which its six gradients accumulate shows in the last bits.
        def build(fuse, *leaves):
            *inputs, shared, fixed = leaves
            blocks = [x @ shared for x in inputs]
            if weights_grad:
                scores = [(block.tanh() @ shared).sum(axis=1, keepdims=True) for block in blocks]
                weights = concatenate(scores, axis=1).softmax(axis=1)
            else:
                weights = fixed
            if fuse:
                return weighted_sum(blocks, weights)
            result = None
            for index, block in enumerate(blocks):
                term = block * weights[:, index : index + 1]
                result = term if result is None else result + term
            return result

        _assert_same_tape(
            functools.partial(build, True), functools.partial(build, False),
            values, [True, True, True, True, False], upstream,
        )

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("sliced", [True, False])
    @pytest.mark.parametrize("p", [0.1, 0.5, 0.7])
    def test_dropout_linear_is_linear_of_dropout_bit_for_bit(self, p, sliced):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(12, 5))
        x[0, :3] = [-0.0, np.inf, -np.inf]
        x[7, 2:] = [-0.0, np.inf, 1e300]
        rows = np.array([0, 2, 3, 7, 11]) if sliced else None
        weight, bias = rng.normal(size=(5, 4)), rng.normal(size=(4,))
        num_rows = 5 if sliced else 12
        upstream = rng.normal(size=(num_rows, 4))
        index = rows if sliced else np.arange(12)

        def fused(w, b):
            keep = F.dropout_mask((num_rows, 5), p, True, np.random.default_rng(3))
            return dropout_linear(x, w, b, rows, keep, p)

        def unfused(w, b):
            dropped = F.dropout(Tensor(x[index]), p, True, np.random.default_rng(3))
            return linear(dropped, w, b)

        def float_mask(w, b):
            # Dropout as it was once computed: a product with a float mask.
            draw = np.random.default_rng(3).random(x.shape)[index]
            return linear(Tensor(x[index]) * Tensor((draw >= p).astype(np.float64) / (1.0 - p)), w, b)

        results = []
        for build in (fused, unfused, float_mask):
            w, b = Tensor(weight.copy(), requires_grad=True), Tensor(bias.copy(), requires_grad=True)
            with row_subset(index, 12):
                out = build(w, b)
            (out * Tensor(upstream)).sum().backward()
            results.append((out.data.tobytes(), w.grad.tobytes(), b.grad.tobytes()))
        assert results[0] == results[1] == results[2]
        assert not np.isfinite(np.frombuffer(results[0][0])).all()

    def test_dropout_linear_keeps_the_mask_not_the_rows(self):
        x = np.random.default_rng(11).normal(size=(50, 8))
        w = Tensor(np.ones((8, 3)), requires_grad=True)
        keep = np.random.default_rng(12).random((20, 8)) >= 0.5
        out = dropout_linear(x, w, None, np.arange(0, 40, 2), keep, 0.5)
        assert out._parents == (w,)
        held = [cell.cell_contents for cell in out._backward_fn.__closure__]
        arrays = [value for value in held if isinstance(value, np.ndarray)]
        assert {value.dtype for value in arrays if value.shape == keep.shape} == {np.dtype(bool)}
        assert not any(value.dtype == np.float64 and value.shape == keep.shape for value in arrays)
        with no_grad():
            assert dropout_linear(x, w, None).data.tobytes() == (x @ w.data).tobytes()

    def test_linear_gradient(self):
        rng = np.random.default_rng(8)
        x, w, b = rng.normal(size=(4, 3)), rng.normal(size=(3, 2)), rng.normal(size=(2,))
        check_gradient(lambda t: (linear(t, Tensor(w), Tensor(b)) ** 2).sum(), (4, 3))
        check_gradient(lambda t: (linear(Tensor(x), t, Tensor(b)) ** 2).sum(), (3, 2))
        check_gradient(lambda t: (linear(Tensor(x), Tensor(w), t) ** 2).sum(), (2,))

    def test_weighted_sum_gradient(self):
        rng = np.random.default_rng(9)
        blocks = [rng.normal(size=(4, 3)) for _ in range(3)]
        weights = rng.normal(size=(4, 3))
        check_gradient(
            lambda t: (weighted_sum([Tensor(blocks[0]), t, Tensor(blocks[2])], Tensor(weights)) ** 2).sum(),
            (4, 3),
        )
        check_gradient(lambda t: (weighted_sum([Tensor(b) for b in blocks], t) ** 2).sum(), (4, 3))

    def test_unbroadcast_restores_shape(self):
        grad = np.ones((4, 3))
        reduced = _unbroadcast(grad, (3,))
        np.testing.assert_allclose(reduced, np.full(3, 4.0))
        reduced_keepdim = _unbroadcast(grad, (1, 3))
        assert reduced_keepdim.shape == (1, 3)


class TestDropout:
    def test_dropout_is_one_node_that_keeps_a_boolean_mask(self):
        x = Tensor(np.random.default_rng(13).normal(size=(6, 4)), requires_grad=True)
        out = F.dropout(x, 0.5, training=True, rng=np.random.default_rng(0))
        assert out._parents == (x,)
        held = [cell.cell_contents for cell in out._backward_fn.__closure__]
        masks = [value for value in held if isinstance(value, np.ndarray)]
        assert [mask.dtype for mask in masks] == [np.dtype(bool)]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_values_and_gradient_equal_the_float_mask_bit_for_bit(self, p):
        rng = np.random.default_rng(int(p * 10))
        specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 1e-300, 5e-324])
        for _ in range(40):
            x = rng.normal(size=(7, 5)) * 10.0 ** rng.integers(-300, 300, size=(7, 5))
            x.flat[rng.integers(0, x.size, size=8)] = rng.choice(specials, size=8)
            upstream = rng.normal(size=x.shape)
            upstream.flat[rng.integers(0, x.size, size=4)] = rng.choice(specials, size=4)
            seed = int(rng.integers(1 << 30))
            draw = np.random.default_rng(seed).random(x.shape)
            keep = (draw >= p).astype(np.float64) / (1.0 - p)
            leaf = Tensor(x.copy(), requires_grad=True)
            out = F.dropout(leaf, p, training=True, rng=np.random.default_rng(seed))
            out.backward(upstream)
            assert out.data.tobytes() == (x * keep).tobytes()
            assert leaf.grad.tobytes() == (upstream * keep).tobytes()


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


class TestRowSubset:
    def test_sliced_dropout_is_the_rows_of_a_whole_draw(self):
        rows = np.array([1, 4, 5, 9])
        x = np.arange(10 * 3, dtype=np.float64).reshape(10, 3) + 1.0
        whole_rng, sliced_rng = np.random.default_rng(7), np.random.default_rng(7)
        whole = F.dropout(Tensor(x), 0.5, training=True, rng=whole_rng).numpy()
        with row_subset(rows, 10):
            sliced = F.dropout(Tensor(x[rows]), 0.5, training=True, rng=sliced_rng).numpy()
        np.testing.assert_array_equal(sliced, whole[rows])
        assert sliced_rng.bit_generator.state == whole_rng.bit_generator.state

    def test_every_row_draws_the_whole_mask(self):
        x = np.ones((6, 2))
        whole = F.dropout(Tensor(x), 0.3, training=True, rng=np.random.default_rng(1)).numpy()
        with row_subset(np.arange(6), 6):
            inside = F.dropout(Tensor(x), 0.3, training=True, rng=np.random.default_rng(1)).numpy()
        np.testing.assert_array_equal(inside, whole)

    def test_row_count_mismatch_raises(self):
        with row_subset(np.array([0, 2]), 5), pytest.raises(ValueError, match="rows"):
            F.dropout(Tensor(np.ones((5, 2))), 0.5, training=True, rng=np.random.default_rng(0))

    def test_eval_mode_dropout_ignores_the_subset(self):
        x = Tensor(np.ones((5, 2)))
        with row_subset(np.array([0, 2]), 5):
            assert F.dropout(x, 0.5, training=False) is x

    def test_context_is_restored_on_exit(self):
        assert current_row_subset() is None
        with row_subset(np.array([0, 1]), 4):
            with row_subset(np.array([3]), 4):
                np.testing.assert_array_equal(current_row_subset()[0], [3])
            index, num_rows = current_row_subset()
            np.testing.assert_array_equal(index, [0, 1])
            assert num_rows == 4
        assert current_row_subset() is None
        with pytest.raises(RuntimeError):
            with row_subset(np.array([0]), 2):
                raise RuntimeError("boom")
        assert current_row_subset() is None

    def test_row_subset_is_thread_local(self):
        inside, release = threading.Event(), threading.Event()
        seen = {}

        def sliced_forward():
            with row_subset(np.array([0, 3]), 4):
                seen["other"] = current_row_subset()
                inside.set()
                release.wait(10)

        thread = threading.Thread(target=sliced_forward)
        thread.start()
        try:
            assert inside.wait(10)
            # This thread still draws whole-shape masks while the other is sliced.
            assert current_row_subset() is None
            out = F.dropout(Tensor(np.ones((4, 2))), 0.5, training=True, rng=np.random.default_rng(0))
            assert out.shape == (4, 2)
        finally:
            release.set()
            thread.join(10)
        np.testing.assert_array_equal(seen["other"][0], [0, 3])
