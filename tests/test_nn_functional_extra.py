"""Additional functional-level tests: activations on tensors vs references."""

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn import functional as F


class TestActivationValues:
    def test_relu_matches_numpy(self):
        x = np.linspace(-2, 2, 11)
        np.testing.assert_allclose(F.relu(Tensor(x)).numpy(), np.maximum(x, 0))

    def test_leaky_relu_negative_slope(self):
        x = np.array([-2.0, 0.0, 3.0])
        np.testing.assert_allclose(
            F.leaky_relu(Tensor(x), 0.1).numpy(), np.array([-0.2, 0.0, 3.0])
        )

    def test_sigmoid_symmetry(self):
        x = np.linspace(-4, 4, 9)
        values = F.sigmoid(Tensor(x)).numpy()
        np.testing.assert_allclose(values + values[::-1], 1.0, atol=1e-12)

    def test_tanh_matches_numpy(self):
        x = np.linspace(-2, 2, 9)
        np.testing.assert_allclose(F.tanh(Tensor(x)).numpy(), np.tanh(x))

    def test_elu_continuity_at_zero(self):
        left = F.elu(Tensor(np.array([-1e-8]))).numpy()[0]
        right = F.elu(Tensor(np.array([1e-8]))).numpy()[0]
        assert abs(left - right) < 1e-6

    def test_softmax_invariant_to_shift(self):
        x = np.random.default_rng(0).normal(size=(3, 4))
        a = F.softmax(Tensor(x)).numpy()
        b = F.softmax(Tensor(x + 100.0)).numpy()
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_log_softmax_never_positive(self):
        x = np.random.default_rng(0).normal(size=(5, 3)) * 10
        assert np.all(F.log_softmax(Tensor(x)).numpy() <= 1e-12)

    def test_accepts_raw_arrays(self):
        """Functional helpers coerce plain arrays through as_tensor."""
        out = F.relu(np.array([-1.0, 2.0]))
        assert isinstance(out, Tensor)
        np.testing.assert_allclose(out.numpy(), [0.0, 2.0])


class TestDropoutStatistics:
    def test_expected_value_preserved(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones(20000))
        out = F.dropout(x, 0.3, training=True, rng=rng).numpy()
        assert out.mean() == pytest.approx(1.0, abs=0.05)

    def test_zero_probability_identity(self):
        x = Tensor(np.ones(10))
        assert F.dropout(x, 0.0, training=True) is x

    def test_not_training_identity(self):
        x = Tensor(np.ones(10))
        assert F.dropout(x, 0.9, training=False) is x


class TestLossEdgeCases:
    def test_nll_with_index_mask(self):
        log_probs = Tensor(np.log(np.full((4, 2), 0.5)))
        labels = np.array([0, 1, 0, 1])
        loss = F.nll_loss(log_probs, labels, mask=np.array([0, 1]))
        assert loss.item() == pytest.approx(np.log(2))

    def test_cross_entropy_perfect_prediction_near_zero(self):
        logits = np.full((3, 4), -20.0)
        logits[np.arange(3), [0, 1, 2]] = 20.0
        loss = F.cross_entropy(Tensor(logits), np.array([0, 1, 2]))
        assert loss.item() < 1e-6

    def test_cross_entropy_uniform_logits_equals_log_classes(self):
        loss = F.cross_entropy(Tensor(np.zeros((5, 3))), np.zeros(5, dtype=int))
        assert loss.item() == pytest.approx(np.log(3))
