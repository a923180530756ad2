"""Tests for nn layers, functional helpers, initialisers and optimisers."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    BatchNorm,
    Dropout,
    LayerNorm,
    Linear,
    MLP,
    Module,
    Parameter,
    SGD,
    Sequential,
    Tensor,
)
from repro.nn import functional as F
from repro.nn import init


class TestInitializers:
    def test_glorot_bounds(self):
        rng = np.random.default_rng(0)
        weights = init.glorot_uniform((100, 50), rng)
        limit = np.sqrt(6.0 / 150)
        assert weights.shape == (100, 50)
        assert np.all(np.abs(weights) <= limit + 1e-12)

    def test_zeros_ones(self):
        assert np.all(init.zeros((3, 3)) == 0)
        assert np.all(init.ones((2,)) == 1)

    def test_determinism_given_seed(self):
        a = init.glorot_uniform((10, 10), np.random.default_rng(7))
        b = init.glorot_uniform((10, 10), np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)


class TestLinear:
    def test_output_shape(self):
        layer = Linear(5, 3, rng=np.random.default_rng(0))
        out = layer(Tensor(np.random.default_rng(1).normal(size=(7, 5))))
        assert out.shape == (7, 3)

    def test_no_bias(self):
        layer = Linear(4, 2, bias=False, rng=np.random.default_rng(0))
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_gradients_flow_to_parameters(self):
        layer = Linear(3, 2, rng=np.random.default_rng(0))
        out = layer(Tensor(np.ones((4, 3))))
        out.sum().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None
        np.testing.assert_allclose(layer.bias.grad, np.full(2, 4.0))


class TestModuleInfrastructure:
    def test_named_parameters_recursive(self):
        mlp = MLP(4, 8, 2, num_layers=2, rng=np.random.default_rng(0))
        names = [name for name, _ in mlp.named_parameters()]
        assert any("linears.0.weight" in name for name in names)
        assert any("linears.1.bias" in name for name in names)

    def test_num_parameters_counts_scalars(self):
        layer = Linear(3, 2, rng=np.random.default_rng(0))
        assert layer.num_parameters() == 3 * 2 + 2

    def test_state_dict_roundtrip(self):
        mlp = MLP(4, 8, 2, rng=np.random.default_rng(0))
        state = mlp.state_dict()
        for param in mlp.parameters():
            param.data = param.data + 1.0
        mlp.load_state_dict(state)
        for name, param in mlp.named_parameters():
            np.testing.assert_array_equal(param.data, state[name])

    def test_load_state_dict_rejects_unknown_keys(self):
        mlp = MLP(4, 8, 2, rng=np.random.default_rng(0))
        with pytest.raises(KeyError):
            mlp.load_state_dict({"nonexistent": np.zeros(3)})

    def test_load_state_dict_rejects_wrong_shapes(self):
        mlp = MLP(4, 8, 2, rng=np.random.default_rng(0))
        before = mlp.state_dict()
        state = dict(before)
        state["linears.0.bias"] = before["linears.0.bias"] + 1.0
        state["linears.1.weight"] = np.zeros((9, 2))
        with pytest.raises(ValueError, match=r"linears\.1\.weight.*\(9, 2\).*\(8, 2\)"):
            mlp.load_state_dict(state)
        # Nothing loads: the arrays of the right shape are refused too.
        for name, value in mlp.state_dict().items():
            np.testing.assert_array_equal(value, before[name])

    def test_train_eval_toggles_submodules(self):
        mlp = MLP(4, 8, 2, rng=np.random.default_rng(0))
        mlp.eval()
        assert not mlp.dropout.training
        mlp.train()
        assert mlp.dropout.training

    def test_zero_grad_clears_gradients(self):
        layer = Linear(3, 2, rng=np.random.default_rng(0))
        layer(Tensor(np.ones((2, 3)))).sum().backward()
        layer.zero_grad()
        assert layer.weight.grad is None

    def test_sequential_runs_in_order(self):
        model = Sequential(Linear(4, 8, rng=np.random.default_rng(0)), Linear(8, 2, rng=np.random.default_rng(1)))
        out = model(Tensor(np.ones((3, 4))))
        assert out.shape == (3, 2)
        assert len(model) == 2
        assert isinstance(model[0], Linear)


class TestDropoutAndNorms:
    def test_dropout_eval_is_identity(self):
        dropout = Dropout(0.5, rng=np.random.default_rng(0))
        dropout.training = False
        x = Tensor(np.ones((10, 10)))
        np.testing.assert_array_equal(dropout(x).numpy(), x.numpy())

    def test_dropout_scales_kept_units(self):
        dropout = Dropout(0.5, rng=np.random.default_rng(0))
        out = dropout(Tensor(np.ones((2000,)))).numpy()
        kept = out[out > 0]
        np.testing.assert_allclose(kept, 2.0)
        # roughly half survive
        assert 0.4 < kept.size / 2000 < 0.6

    def test_dropout_invalid_probability(self):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(3)), p=1.0, training=True)

    def test_layernorm_normalises_rows(self):
        norm = LayerNorm(6)
        x = Tensor(np.random.default_rng(0).normal(size=(5, 6)) * 10 + 3)
        out = norm(x).numpy()
        np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.std(axis=1), 1.0, atol=1e-2)

    def test_batchnorm_train_vs_eval(self):
        norm = BatchNorm(4)
        x = Tensor(np.random.default_rng(0).normal(size=(50, 4)) * 3 + 1)
        out_train = norm(x).numpy()
        np.testing.assert_allclose(out_train.mean(axis=0), 0.0, atol=1e-6)
        norm.training = False
        out_eval = norm(x).numpy()
        assert out_eval.shape == (50, 4)


class TestMLP:
    def test_single_layer(self):
        mlp = MLP(4, 16, 3, num_layers=1, rng=np.random.default_rng(0))
        assert mlp(Tensor(np.ones((2, 4)))).shape == (2, 3)

    def test_deep_mlp_shapes(self):
        mlp = MLP(4, 16, 3, num_layers=4, rng=np.random.default_rng(0))
        assert mlp(Tensor(np.ones((2, 4)))).shape == (2, 3)
        assert len(mlp.linears) == 4

    def test_invalid_layers(self):
        with pytest.raises(ValueError):
            MLP(4, 8, 2, num_layers=0)

    def test_unknown_activation(self):
        mlp = MLP(4, 8, 2, activation="bogus", rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            mlp(Tensor(np.ones((1, 4))))

    @pytest.mark.parametrize("activation", ["relu", "elu", "tanh", "leaky_relu"])
    def test_activations_run(self, activation):
        mlp = MLP(4, 8, 2, activation=activation, rng=np.random.default_rng(0))
        assert mlp(Tensor(np.ones((3, 4)))).shape == (3, 2)


class TestLosses:
    def test_cross_entropy_matches_manual(self):
        logits = Tensor(np.array([[2.0, 0.0], [0.0, 2.0]]))
        labels = np.array([0, 1])
        loss = F.cross_entropy(logits, labels)
        expected = -np.log(np.exp(2) / (np.exp(2) + 1))
        assert loss.item() == pytest.approx(expected)

    def test_cross_entropy_mask(self):
        logits = Tensor(np.array([[5.0, 0.0], [0.0, 5.0], [5.0, 0.0]]))
        labels = np.array([0, 1, 1])  # last one is wrong but masked out
        mask = np.array([True, True, False])
        loss_masked = F.cross_entropy(logits, labels, mask)
        loss_full = F.cross_entropy(logits, labels)
        assert loss_masked.item() < loss_full.item()

    def test_cross_entropy_gradient_direction(self):
        logits = Tensor(np.zeros((2, 3)), requires_grad=True)
        labels = np.array([0, 2])
        F.cross_entropy(logits, labels).backward()
        # Gradient should be negative at the true class, positive elsewhere.
        assert logits.grad[0, 0] < 0
        assert logits.grad[1, 2] < 0
        assert logits.grad[0, 1] > 0


class TestOptimizers:
    @staticmethod
    def _quadratic_step(optimizer_factory, steps=200):
        target = np.array([3.0, -2.0])
        param = Parameter(np.zeros(2))
        optimizer = optimizer_factory([param])
        for _ in range(steps):
            optimizer.zero_grad()
            loss = ((param - Tensor(target)) ** 2).sum()
            loss.backward()
            optimizer.step()
        return param.data, target

    def test_sgd_converges_on_quadratic(self):
        value, target = self._quadratic_step(lambda p: SGD(p, lr=0.1))
        np.testing.assert_allclose(value, target, atol=1e-3)

    def test_sgd_momentum_converges(self):
        value, target = self._quadratic_step(lambda p: SGD(p, lr=0.05, momentum=0.9))
        np.testing.assert_allclose(value, target, atol=1e-3)

    def test_adam_converges_on_quadratic(self):
        value, target = self._quadratic_step(lambda p: Adam(p, lr=0.1), steps=400)
        np.testing.assert_allclose(value, target, atol=1e-2)

    def test_weight_decay_shrinks_solution(self):
        value_plain, _ = self._quadratic_step(lambda p: Adam(p, lr=0.1), steps=400)
        value_decayed, _ = self._quadratic_step(
            lambda p: Adam(p, lr=0.1, weight_decay=0.5), steps=400
        )
        assert np.linalg.norm(value_decayed) < np.linalg.norm(value_plain)

    def test_empty_parameter_list_rejected(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_invalid_learning_rate(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(2))], lr=-1.0)

    def test_step_skips_parameters_without_grad(self):
        param = Parameter(np.ones(3))
        optimizer = SGD([param], lr=0.5)
        optimizer.step()  # no gradient yet: must be a no-op
        np.testing.assert_array_equal(param.data, np.ones(3))
