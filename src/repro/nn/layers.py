"""Neural-network modules (stateful layers) built on the autograd tensor.

The module system intentionally mirrors the PyTorch conventions used by the
original paper's code base so that model definitions in
:mod:`repro.models` read like their published counterparts:

* :class:`Module` tracks parameters and sub-modules recursively;
* :class:`Linear`, :class:`MLP`, :class:`Dropout`, :class:`LayerNorm` and
  :class:`BatchNorm` cover every layer used by the reproduced models;
* training/eval mode is toggled with :meth:`Module.train` /
  :meth:`Module.eval`, which controls dropout and batch-norm statistics.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from . import functional as F
from . import init
from .tensor import Tensor, linear


class Parameter(Tensor):
    """A tensor registered as trainable state of a :class:`Module`."""

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for all layers and models.

    Sub-classes assign :class:`Parameter` and :class:`Module` instances as
    attributes; :meth:`parameters` discovers them recursively.
    """

    def __init__(self) -> None:
        self.training = True
        self._buffer_names: List[str] = []

    # -------------------------------------------------------------- #
    # Parameter / module discovery
    # -------------------------------------------------------------- #
    def named_parameters(self, prefix: str = "") -> Iterator[tuple]:
        for name, value in vars(self).items():
            full_name = f"{prefix}{name}"
            if isinstance(value, Parameter):
                yield full_name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{full_name}.")
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, Parameter):
                        yield f"{full_name}.{index}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{full_name}.{index}.")

    def parameters(self) -> List[Parameter]:
        return [param for _, param in self.named_parameters()]

    # -------------------------------------------------------------- #
    # Buffers: non-trainable ndarray state (e.g. batch-norm statistics)
    # that must survive a state-dict round trip for inference to be
    # reproducible after reload.
    # -------------------------------------------------------------- #
    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register ``value`` as persistent, non-trainable state.

        The attribute stays a plain ndarray and may be reassigned freely
        (running statistics do this every training step); only the *name*
        is recorded, so :meth:`named_buffers` always sees the live value.
        """
        setattr(self, name, np.asarray(value))
        if name not in self._buffer_names:
            self._buffer_names.append(name)

    def named_buffers(self, prefix: str = "") -> Iterator[tuple]:
        for name, (owner, attr) in self._buffer_owners(prefix).items():
            yield name, getattr(owner, attr)

    def modules(self) -> Iterator["Module"]:
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    # -------------------------------------------------------------- #
    # Mode switching
    # -------------------------------------------------------------- #
    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # -------------------------------------------------------------- #
    # State dict (plain ndarray copies: early stopping + serving
    # artifacts).  Copies preserve each array's dtype so an export /
    # reload round trip through ``.npz`` is bit-exact.
    # -------------------------------------------------------------- #
    def state_dict(self) -> Dict[str, np.ndarray]:
        state = {name: param.data.copy() for name, param in self.named_parameters()}
        state.update({name: np.array(buffer, copy=True) for name, buffer in self.named_buffers()})
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Overwrite parameters and buffers with ``state``'s arrays.

        Raises :class:`KeyError` on a name this module does not have and
        :class:`ValueError` on an array whose shape differs from the one it
        replaces; either way nothing is loaded.
        """
        params = dict(self.named_parameters())
        buffer_owners = self._buffer_owners()
        unknown = set(state) - set(params) - set(buffer_owners)
        if unknown:
            raise KeyError(f"state dict contains unknown parameters: {sorted(unknown)}")
        current = {
            name: params[name].data if name in params else getattr(*buffer_owners[name])
            for name in state
        }
        mismatched = [
            f"{name}: stored {np.shape(state[name])}, expected {current[name].shape}"
            for name in state
            if np.shape(state[name]) != current[name].shape
        ]
        if mismatched:
            raise ValueError(f"state dict shapes do not match the module: {mismatched}")
        for name, value in state.items():
            loaded = np.array(value, dtype=current[name].dtype)
            if name in params:
                params[name].data = loaded
            else:
                setattr(*buffer_owners[name], loaded)

    def _buffer_owners(self, prefix: str = "") -> Dict[str, tuple]:
        """Map dotted buffer names to ``(owning module, attribute)`` pairs."""
        owners: Dict[str, tuple] = {}
        for name in getattr(self, "_buffer_names", ()):
            owners[f"{prefix}{name}"] = (self, name)
        for name, value in vars(self).items():
            full_name = f"{prefix}{name}"
            if isinstance(value, Module):
                owners.update(value._buffer_owners(prefix=f"{full_name}."))
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, Module):
                        owners.update(item._buffer_owners(prefix=f"{full_name}.{index}."))
        return owners

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # -------------------------------------------------------------- #
    # Call protocol
    # -------------------------------------------------------------- #
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def num_parameters(self) -> int:
        """Total number of trainable scalars in this module."""
        return sum(param.size for param in self.parameters())


class Linear(Module):
    """Affine map ``y = x W + b`` with Glorot-initialised weights."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.glorot_uniform((in_features, out_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)


class Dropout(Module):
    """Inverted dropout; a no-op in eval mode."""

    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.p = p
        self.rng = rng if rng is not None else np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self.training, self.rng)


class LayerNorm(Module):
    """Layer normalisation over the last dimension."""

    def __init__(self, num_features: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.eps = eps
        self.gamma = Parameter(init.ones((num_features,)))
        self.beta = Parameter(init.zeros((num_features,)))

    def forward(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        variance = (centered * centered).mean(axis=-1, keepdims=True)
        normalised = centered / ((variance + self.eps) ** 0.5)
        return normalised * self.gamma + self.beta


class BatchNorm(Module):
    """Batch normalisation over the node dimension (axis 0).

    Used by LINKX/GloGNN-style models; keeps running statistics for eval.
    """

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        self.eps = eps
        self.momentum = momentum
        self.gamma = Parameter(init.ones((num_features,)))
        self.beta = Parameter(init.zeros((num_features,)))
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    def forward(self, x: Tensor) -> Tensor:
        if self.training:
            batch_mean = x.data.mean(axis=0)
            batch_var = x.data.var(axis=0)
            self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * batch_mean
            self.running_var = (1 - self.momentum) * self.running_var + self.momentum * batch_var
            mean, var = batch_mean, batch_var
        else:
            mean, var = self.running_mean, self.running_var
        normalised = (x - Tensor(mean)) / Tensor(np.sqrt(var + self.eps))
        return normalised * self.gamma + self.beta


class Sequential(Module):
    """Run sub-modules in order; accepts any number of modules."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.layers = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]


class MLP(Module):
    """Multi-layer perceptron with configurable depth, dropout and norm.

    This is the classifier head used throughout the reproduction (Alg. 1
    line 15 of the paper), and also serves as the standalone ``MLP``
    baseline.
    """

    def __init__(
        self,
        in_features: int,
        hidden_features: int,
        out_features: int,
        num_layers: int = 2,
        dropout: float = 0.5,
        activation: str = "relu",
        batch_norm: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if num_layers < 1:
            raise ValueError("MLP requires at least one layer")
        rng = rng if rng is not None else np.random.default_rng()
        self.activation = activation
        self.dropout = Dropout(dropout, rng=rng)
        self.linears: List[Linear] = []
        self.norms: List[Module] = []
        dims = self._layer_dims(in_features, hidden_features, out_features, num_layers)
        for layer_index in range(num_layers):
            self.linears.append(Linear(dims[layer_index], dims[layer_index + 1], rng=rng))
            if batch_norm and layer_index < num_layers - 1:
                self.norms.append(BatchNorm(dims[layer_index + 1]))

    @staticmethod
    def _layer_dims(in_features: int, hidden: int, out_features: int, num_layers: int) -> List[int]:
        if num_layers == 1:
            return [in_features, out_features]
        return [in_features] + [hidden] * (num_layers - 1) + [out_features]

    def _activate(self, x: Tensor) -> Tensor:
        if self.activation == "relu":
            return x.relu()
        if self.activation == "elu":
            return x.elu()
        if self.activation == "tanh":
            return x.tanh()
        if self.activation == "leaky_relu":
            return x.leaky_relu()
        raise ValueError(f"unknown activation {self.activation!r}")

    def forward(self, x: Tensor) -> Tensor:
        for layer_index, linear in enumerate(self.linears):
            x = self.dropout(x)
            x = linear(x)
            is_last = layer_index == len(self.linears) - 1
            if not is_last:
                if self.norms:
                    x = self.norms[layer_index](x)
                x = self._activate(x)
        return x
