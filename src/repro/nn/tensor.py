"""Reverse-mode automatic differentiation over NumPy arrays.

This module is the numerical substrate of the reproduction: every model in
:mod:`repro.models` and :mod:`repro.adpa` is trained end-to-end through the
:class:`Tensor` class defined here.  The design mirrors the familiar
PyTorch semantics at a much smaller scale:

* a :class:`Tensor` wraps a ``numpy.ndarray`` and remembers how it was
  produced (parent tensors plus a backward closure);
* calling :meth:`Tensor.backward` on a scalar runs a topological sweep over
  the recorded graph and accumulates gradients into every tensor created
  with ``requires_grad=True``.  The sweep is iterative, so a tape of any
  depth works, and it keeps no reference to the tape once it returns: a
  tape lives exactly as long as the tensors that reference it, so a
  training loop frees an epoch's tape as soon as it drops its loss and
  logits, without waiting for the garbage collector;
* :func:`linear` (``x @ W + b``) and :func:`weighted_sum` (blocks scaled
  by per-row weight columns and summed, as attention combines them) each
  record one tape node where their unfused forms record two or three per
  step, with values and gradients equal bit for bit;
* :func:`masked_dropout` is dropout's one tape node, and it keeps the
  boolean mask (one byte per element) rather than a float copy of it;
* :func:`dropout_linear` is dropout followed by a linear map over rows of
  a constant array (ADPA's preprocessed blocks).  It keeps only the mask,
  gathers and masks the rows again for the weight gradient, and so holds
  neither a copy of the rows nor the dropped-out input;
* constant sparse matrices (``scipy.sparse``) participate through
  :func:`sparse_matmul`, which propagates gradients only to the dense
  operand — exactly what graph propagation needs, because adjacency
  matrices are never trained;
* inside :func:`no_grad` the calling thread records no tape at all, which
  is how inference runs a forward for its values alone;
* inside :func:`row_subset` a forward covers some of a graph's rows, and
  dropout masks are still drawn for all of them, which is how training
  forwards only the rows its loss reads.

Broadcasting is supported for elementwise operations; gradients are summed
back to the original shapes with :func:`_unbroadcast`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

ArrayLike = Union[np.ndarray, float, int, Sequence]


# ---------------------------------------------------------------------- #
# Tape switch
# ---------------------------------------------------------------------- #
# Inference needs values, not gradients.  Inside :func:`no_grad` every op
# returns a plain Tensor with no parents and no backward closure, so a
# forward builds no tape.  The switch is thread-local: a server thread
# answering requests never stops a training thread from recording.
_grad_state = threading.local()


@contextmanager
def no_grad() -> Iterator[None]:
    """Build no autograd tape on the calling thread while the block runs."""
    previous = getattr(_grad_state, "disabled", False)
    _grad_state.disabled = True
    try:
        yield
    finally:
        _grad_state.disabled = previous


# ---------------------------------------------------------------------- #
# Row context
# ---------------------------------------------------------------------- #
# A forward over a subset of a graph's rows must draw the same random
# numbers as a forward over all of them.  Inside :func:`row_subset` random
# draws shaped by row (dropout masks) are made for ``num_rows`` rows and
# then sliced to ``index``.  Thread-local like the tape switch: parallel
# fits each keep their own context.
_row_state = threading.local()


@contextmanager
def row_subset(index: np.ndarray, num_rows: int) -> Iterator[None]:
    """Forwards on the calling thread cover rows ``index`` of ``num_rows``.

    ``index`` holds sorted, distinct row numbers, so an index of
    ``num_rows`` entries covers every row in order.
    """
    previous = getattr(_row_state, "subset", None)
    _row_state.subset = (np.asarray(index), num_rows)
    try:
        yield
    finally:
        _row_state.subset = previous


def current_row_subset() -> Optional[Tuple[np.ndarray, int]]:
    """The calling thread's ``(index, num_rows)``, or ``None`` outside :func:`row_subset`."""
    return getattr(_row_state, "subset", None)


def _taped(
    data: np.ndarray,
    parents: Sequence["Tensor"],
    backward_fn: Callable[[np.ndarray], Sequence[Optional[np.ndarray]]],
) -> "Tensor":
    """The output of one op: recorded on the tape only when it needs a gradient."""
    if getattr(_grad_state, "disabled", False) or not any(p.requires_grad for p in parents):
        return Tensor(data)
    return Tensor(data, requires_grad=True, parents=parents, backward_fn=backward_fn)


def _as_array(value: ArrayLike, dtype=np.float64) -> np.ndarray:
    """Coerce ``value`` into a float ndarray without copying when possible."""
    if isinstance(value, np.ndarray):
        if value.dtype == dtype:
            return value
        return value.astype(dtype)
    return np.asarray(value, dtype=dtype)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` so that it matches ``shape`` after a broadcasted op."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over dimensions that were expanded from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A differentiable multi-dimensional array.

    Parameters
    ----------
    data:
        Array-like payload; converted to ``float64`` ndarray.
    requires_grad:
        Whether gradients should be accumulated for this tensor.
    parents:
        Tensors this one was computed from (autograd graph edges).
    backward_fn:
        Closure mapping the output gradient to per-parent contributions.
    name:
        Optional label used in error messages and debugging.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        parents: Sequence["Tensor"] = (),
        backward_fn: Optional[Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]] = None,
        name: str = "",
    ) -> None:
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._parents: Tuple[Tensor, ...] = tuple(parents)
        self._backward_fn = backward_fn
        self.name = name

    # ------------------------------------------------------------------ #
    # Introspection helpers
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def numpy(self) -> np.ndarray:
        """Return the underlying ndarray (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{label})"

    # ------------------------------------------------------------------ #
    # Graph construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _ensure(value: Union["Tensor", ArrayLike]) -> "Tensor":
        if isinstance(value, Tensor):
            return value
        return Tensor(value)

    _make = staticmethod(_taped)

    # ------------------------------------------------------------------ #
    # Elementwise arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._ensure(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray):
            return (
                _unbroadcast(grad, self.shape),
                _unbroadcast(grad, other.shape),
            )

        return self._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray):
            return (-grad,)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self + (-self._ensure(other))

    def __rsub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self._ensure(other) + (-self)

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._ensure(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray):
            return (
                _unbroadcast(grad * other.data, self.shape),
                _unbroadcast(grad * self.data, other.shape),
            )

        return self._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._ensure(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray):
            return (
                _unbroadcast(grad / other.data, self.shape),
                _unbroadcast(-grad * self.data / (other.data ** 2), other.shape),
            )

        return self._make(out_data, (self, other), backward)

    def __rtruediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self._ensure(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        out_data = self.data ** exponent

        def backward(grad: np.ndarray):
            return (grad * exponent * self.data ** (exponent - 1),)

        return self._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Linear algebra
    # ------------------------------------------------------------------ #
    def matmul(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._ensure(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray):
            grad_self = grad @ other.data.T if self.requires_grad else None
            grad_other = self.data.T @ grad if other.requires_grad else None
            return (grad_self, grad_other)

        return self._make(out_data, (self, other), backward)

    __matmul__ = matmul

    def transpose(self) -> "Tensor":
        def backward(grad: np.ndarray):
            return (grad.T,)

        return self._make(self.data.T, (self,), backward)

    def reshape(self, *shape: int) -> "Tensor":
        original_shape = self.shape

        def backward(grad: np.ndarray):
            return (grad.reshape(original_shape),)

        return self._make(self.data.reshape(*shape), (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray):
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            return (full,)

        return self._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray):
            grad = np.asarray(grad)
            if axis is None:
                return (np.broadcast_to(grad, self.shape).copy(),)
            expanded = grad if keepdims else np.expand_dims(grad, axis)
            return (np.broadcast_to(expanded, self.shape).copy(),)

        return self._make(out_data, (self,), backward)

    def mean(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        count = self.size if axis is None else self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray):
            grad = np.asarray(grad)
            if axis is None:
                mask = (self.data == out_data).astype(self.data.dtype)
                mask /= mask.sum()
                return (mask * grad,)
            expanded_out = out_data if keepdims else np.expand_dims(out_data, axis)
            expanded_grad = grad if keepdims else np.expand_dims(grad, axis)
            mask = (self.data == expanded_out).astype(self.data.dtype)
            mask /= mask.sum(axis=axis, keepdims=True)
            return (mask * expanded_grad,)

        return self._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Elementwise nonlinearities
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray):
            return (grad * out_data,)

        return self._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        def backward(grad: np.ndarray):
            return (grad / self.data,)

        return self._make(np.log(self.data), (self,), backward)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def abs(self) -> "Tensor":
        def backward(grad: np.ndarray):
            return (grad * np.sign(self.data),)

        return self._make(np.abs(self.data), (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(grad: np.ndarray):
            return (grad * mask,)

        return self._make(self.data * mask, (self,), backward)

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        positive = self.data > 0
        scale = np.where(positive, 1.0, negative_slope)

        def backward(grad: np.ndarray):
            return (grad * scale,)

        return self._make(self.data * scale, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray):
            return (grad * out_data * (1.0 - out_data),)

        return self._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray):
            return (grad * (1.0 - out_data ** 2),)

        return self._make(out_data, (self,), backward)

    def elu(self, alpha: float = 1.0) -> "Tensor":
        positive = self.data > 0
        exp_part = alpha * (np.exp(np.minimum(self.data, 0.0)) - 1.0)
        out_data = np.where(positive, self.data, exp_part)

        def backward(grad: np.ndarray):
            local = np.where(positive, 1.0, exp_part + alpha)
            return (grad * local,)

        return self._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Softmax family (implemented here so they stay numerically stable)
    # ------------------------------------------------------------------ #
    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        out_data = exp / exp.sum(axis=axis, keepdims=True)

        def backward(grad: np.ndarray):
            dot = (grad * out_data).sum(axis=axis, keepdims=True)
            return (out_data * (grad - dot),)

        return self._make(out_data, (self,), backward)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out_data = shifted - log_sum
        softmax = np.exp(out_data)

        def backward(grad: np.ndarray):
            return (grad - softmax * grad.sum(axis=axis, keepdims=True),)

        return self._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Backward pass
    # ------------------------------------------------------------------ #
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        ``grad`` defaults to ``1`` and therefore requires a scalar output,
        matching the usual loss-driven training loop.
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            if self.size != 1:
                raise RuntimeError("backward() without a gradient requires a scalar tensor")
            grad = np.ones_like(self.data)

        # Depth-first post-order over the nodes that need a gradient, with an
        # explicit stack: each entry is a node and an iterator over the
        # parents it has yet to visit.  A recursive walk would overflow on a
        # deep tape, and a nested function that calls itself forms a cycle
        # that keeps ``topo_order`` (the whole tape) alive until the garbage
        # collector runs.
        topo_order: List[Tensor] = []
        visited = {id(self)}
        pending = [(self, iter(self._parents))]
        while pending:
            node, parents = pending[-1]
            for parent in parents:
                if id(parent) not in visited and parent.requires_grad:
                    visited.add(id(parent))
                    pending.append((parent, iter(parent._parents)))
                    break
            else:
                pending.pop()
                topo_order.append(node)

        grads = {id(self): np.asarray(grad, dtype=self.data.dtype)}
        for node in reversed(topo_order):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node._backward_fn is None or not node._parents:
                node.grad = node_grad if node.grad is None else node.grad + node_grad
                continue
            parent_grads = node._backward_fn(node_grad)
            for parent, parent_grad in zip(node._parents, parent_grads):
                if parent_grad is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + parent_grad
                else:
                    grads[key] = parent_grad
        # Leaves that are the output itself (no parents) were handled above.


# ---------------------------------------------------------------------- #
# Free functions operating on tensors
# ---------------------------------------------------------------------- #
def concatenate(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = [Tensor._ensure(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    boundaries = np.cumsum(sizes)[:-1]

    def backward(grad: np.ndarray):
        pieces = np.split(grad, boundaries, axis=axis)
        return tuple(pieces)

    return _taped(out_data, tensors, backward)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """``x @ weight + bias`` as one tape node.

    Runs the numpy operations of :meth:`Tensor.matmul` followed by an add,
    in the same order, so values and gradients equal the two-node form bit
    for bit; the tape keeps one output array instead of two.
    """
    out_data = x.data @ weight.data
    parents: Tuple[Tensor, ...] = (x, weight)
    if bias is not None:
        out_data += bias.data
        parents = (x, weight, bias)

    def backward(grad: np.ndarray):
        grad_x = grad @ weight.data.T if x.requires_grad else None
        grad_weight = x.data.T @ grad if weight.requires_grad else None
        if bias is None:
            return (grad_x, grad_weight)
        return (grad_x, grad_weight, _unbroadcast(grad, bias.shape))

    return _taped(out_data, parents, backward)


def masked_dropout(x: Tensor, keep: np.ndarray, p: float) -> Tensor:
    """Inverted dropout ``(x * keep) * (1/(1-p))`` as one tape node.

    ``keep`` is the boolean mask of the entries that survive.  The values
    and the input's gradient equal those of ``x * ((draw >= p) / (1-p))``
    bit for bit, signed zeros, infinities and NaNs included, while the node
    keeps the mask at one byte per element and computes no gradient for it.
    """
    scale = 1.0 / (1.0 - p)
    out_data = x.data * keep
    out_data *= scale

    def backward(grad: np.ndarray):
        grad_x = grad * keep
        grad_x *= scale
        return (grad_x,)

    return _taped(out_data, (x,), backward)


def dropped_rows(
    x: np.ndarray,
    rows: Optional[np.ndarray] = None,
    keep: Optional[np.ndarray] = None,
    p: float = 0.0,
) -> np.ndarray:
    """The values of ``masked_dropout(x[rows], keep, p)``, with no tape.

    ``rows`` selects rows of ``x`` (all when ``None``) and ``keep`` masks
    them (nothing is dropped when ``None``).  With neither, the result is
    ``x`` itself, so a caller must not write to it.
    """
    if keep is None:
        return x if rows is None else x[rows]
    if rows is None:
        dropped = x * keep
    else:
        dropped = x[rows]
        dropped *= keep
    dropped *= 1.0 / (1.0 - p)
    return dropped


def dropout_linear(
    x: np.ndarray,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    rows: Optional[np.ndarray] = None,
    keep: Optional[np.ndarray] = None,
    p: float = 0.0,
) -> Tensor:
    """``linear(masked_dropout(x[rows], keep, p), weight, bias)`` over a constant ``x``.

    ``rows`` selects rows of ``x`` (all when ``None``) and ``keep`` is the
    dropout mask over them (no dropout when ``None``).  Values and weight
    and bias gradients equal the unfused form's bit for bit: the backward
    gathers and masks the rows again for the weight gradient, so the tape
    keeps ``keep`` and references to ``x``, ``rows`` and the parameters,
    not the ``(len(rows), f)`` input.  ``x`` receives no gradient.
    """
    out_data = dropped_rows(x, rows, keep, p) @ weight.data
    parents: Tuple[Tensor, ...] = (weight,)
    if bias is not None:
        out_data += bias.data
        parents = (weight, bias)

    def backward(grad: np.ndarray):
        grad_weight = dropped_rows(x, rows, keep, p).T @ grad if weight.requires_grad else None
        if bias is None:
            return (grad_weight,)
        return (grad_weight, _unbroadcast(grad, bias.shape))

    return _taped(out_data, parents, backward)


def weighted_sum(blocks: Sequence[Tensor], weights: Tensor) -> Tensor:
    """``Σ_i blocks[i] * weights[:, i:i+1]`` as one tape node.

    ``blocks`` are equal-shaped ``(n, d)`` tensors and ``weights`` is
    ``(n, len(blocks))``: column ``i`` scales block ``i`` row by row.  The
    forward and backward run the numpy operations of the slice, multiply
    and add nodes they replace, in the same order, and the parents are
    listed in the order a depth-first walk met them there (the first block,
    then the weights, then the other blocks), so every gradient accumulates
    in the same order and training is bitwise unchanged.  The tape keeps
    the sum alone instead of two ``(n, d)`` arrays per block.
    """
    columns = [weights.data[:, index : index + 1] for index in range(len(blocks))]
    out_data = blocks[0].data * columns[0]
    for block, column in zip(blocks[1:], columns[1:]):
        out_data += block.data * column

    def backward(grad: np.ndarray):
        block_grads = [
            grad * column if block.requires_grad else None
            for block, column in zip(blocks, columns)
        ]
        weights_grad = None
        if weights.requires_grad:
            # Added to zeros, as the slice's backward did, so -0.0 reads 0.0.
            weights_grad = np.zeros_like(weights.data)
            for index, (block, column) in enumerate(zip(blocks, columns)):
                weights_grad[:, index : index + 1] += _unbroadcast(grad * block.data, column.shape)
        return (block_grads[0], weights_grad, *block_grads[1:])

    return _taped(out_data, (blocks[0], weights, *blocks[1:]), backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` with gradient support."""
    tensors = [Tensor._ensure(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray):
        pieces = np.split(grad, len(tensors), axis=axis)
        return tuple(np.squeeze(piece, axis=axis) for piece in pieces)

    return _taped(out_data, tensors, backward)


def sparse_matmul(matrix: sp.spmatrix, tensor: Tensor) -> Tensor:
    """Multiply a constant sparse matrix by a dense differentiable tensor.

    The sparse operand is treated as a constant (graph structure never
    receives gradients), which keeps graph propagation cheap: the backward
    pass is a single transposed sparse multiplication.
    """
    if not sp.issparse(matrix):
        raise TypeError("sparse_matmul expects a scipy sparse matrix as the first operand")
    matrix = matrix.tocsr()
    out_data = matrix @ tensor.data

    def backward(grad: np.ndarray):
        return (matrix.T @ grad,)

    return _taped(out_data, (tensor,), backward)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select between two tensors based on a boolean mask."""
    a = Tensor._ensure(a)
    b = Tensor._ensure(b)
    condition = np.asarray(condition, dtype=bool)
    out_data = np.where(condition, a.data, b.data)

    def backward(grad: np.ndarray):
        return (
            _unbroadcast(grad * condition, a.shape),
            _unbroadcast(grad * (~condition), b.shape),
        )

    return _taped(out_data, (a, b), backward)


def as_tensor(value: Union[Tensor, ArrayLike], requires_grad: bool = False) -> Tensor:
    """Convert ``value`` to a :class:`Tensor`, reusing it when already one."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad)


def zeros(shape: Iterable[int], requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(tuple(shape)), requires_grad=requires_grad)


def ones(shape: Iterable[int], requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(tuple(shape)), requires_grad=requires_grad)
