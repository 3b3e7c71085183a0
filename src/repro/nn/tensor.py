"""Reverse-mode automatic differentiation over numpy arrays.

This module is the foundation of :mod:`repro.nn`, the pure-numpy deep
learning substrate used in place of PyTorch (see DESIGN.md).  A
:class:`Tensor` wraps an ``ndarray`` and records the operations applied to
it; calling :meth:`Tensor.backward` walks the recorded graph in reverse
topological order and accumulates gradients into ``Tensor.grad``.

The operation set is intentionally small but complete enough to express
every model in the paper: elementwise arithmetic with full numpy
broadcasting, matrix multiplication (2-D and batched), reductions,
shape manipulation, slicing, concatenation, and the nonlinearities used
by the encoders.  Convolution and other structured ops live in
:mod:`repro.nn.functional` and are built from these primitives plus a few
custom backward rules.
"""

from __future__ import annotations

import contextlib
import time
from typing import Callable, Iterable, Sequence

import numpy as np

from . import hooks

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "as_tensor"]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording.

    Used during inference and inside optimizers, where building the
    autodiff graph would waste memory for values that are never
    differentiated.
    """
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autodiff graph."""
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting.

    When a forward op broadcast an operand up to a larger shape, the
    gradient flowing back must be reduced over the broadcast axes so it
    matches the operand's original shape.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with reverse-mode autodiff support.

    Parameters
    ----------
    data:
        Array-like payload.  A ``float32`` array or numpy scalar keeps
        its precision (the TriAD encoder trains in float32); anything
        else is stored as ``float64``, so gradient checks against
        numerical differentiation stay tight.  Python scalars in binary
        ops take the tensor's dtype, as numpy's weak scalars do, so a
        float32 graph never silently upcasts.
    requires_grad:
        Whether gradients should be accumulated into this tensor when
        :meth:`backward` is called on a downstream result.
    """

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "_backward",
        "_parents",
        "_grad_buffer",
    )

    def __init__(self, data, requires_grad: bool = False) -> None:
        if isinstance(data, Tensor):
            data = data.data
        if getattr(data, "dtype", None) == np.float32:
            self.data = np.asarray(data)
        else:
            self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._grad_buffer: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data)

    def zero_grad(self) -> None:
        """Clear the gradient, recycling its storage for the next backward.

        Long-lived tensors (parameters) accumulate a same-shaped gradient
        every step; keeping the released array as ``_grad_buffer`` lets
        :meth:`_accumulate` refill it in place instead of allocating a
        fresh copy per batch.
        """
        if self.grad is not None:
            self._grad_buffer = self.grad
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad_note = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_note})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create a result tensor, wiring the graph only when needed."""
        out = Tensor(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            buffer = self._grad_buffer
            if buffer is not None and buffer.shape == np.shape(grad):
                np.copyto(buffer, grad)
                self.grad = buffer
                self._grad_buffer = None
            else:
                self.grad = np.array(grad, dtype=self.data.dtype, copy=True)
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Gradient of the final objective with respect to this tensor.
            Defaults to ``1.0`` which requires this tensor to be a scalar.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor without grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be supplied for non-scalar output")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        hook = hooks._TIMING_HOOK
        started = time.perf_counter() if hook is not None else 0.0

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
        if hook is not None:
            hook("backward", "graph", time.perf_counter() - started)

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def _operand(self, other) -> "Tensor":
        """Coerce a binary-op operand; Python scalars take this tensor's
        dtype, as numpy's weak scalars do."""
        if isinstance(other, (int, float)):
            return Tensor(np.asarray(other, dtype=self.data.dtype))
        return as_tensor(other)

    def __add__(self, other) -> "Tensor":
        other = self._operand(other)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor._make(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-self._operand(other))

    def __rsub__(self, other) -> "Tensor":
        return self._operand(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._operand(other)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return Tensor._make(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._operand(other)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data**2), other.shape)
                )

        return Tensor._make(self.data / other.data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return self._operand(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(self.data**exponent, (self,), backward)

    # ------------------------------------------------------------------
    # Matrix multiplication
    # ------------------------------------------------------------------
    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                g = grad @ np.swapaxes(other.data, -1, -2)
                self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                g = np.swapaxes(self.data, -1, -2) @ grad
                other._accumulate(_unbroadcast(g, other.shape))

        return Tensor._make(self.data @ other.data, (self, other), backward)

    # ------------------------------------------------------------------
    # Nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return Tensor._make(np.log(self.data), (self,), backward)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * 0.5 / out_data)

        return Tensor._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data**2))

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return Tensor._make(self.data * mask, (self,), backward)

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * sign)

        return Tensor._make(np.abs(self.data), (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return Tensor._make(self.data.sum(axis=axis, keepdims=keepdims), (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))

        def backward(grad: np.ndarray) -> None:
            g = grad / count
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return Tensor._make(
            self.data.mean(axis=axis, keepdims=keepdims), (self,), backward
        )

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            ref = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
                ref = np.expand_dims(ref, axis)
            mask = self.data == ref
            # Split gradient evenly between ties, matching subgradient choice.
            counts = mask.sum(axis=axis, keepdims=True)
            self._accumulate(np.where(mask, g / counts, 0.0))

        return Tensor._make(out_data, (self,), backward)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        centered = self - self.mean(axis=axis, keepdims=True)
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(self.shape))

        return Tensor._make(self.data.reshape(shape), (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        return Tensor._make(self.data.transpose(axes), (self,), backward)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.swapaxes(grad, a, b))

        return Tensor._make(np.swapaxes(self.data, a, b), (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            g = np.zeros_like(self.data)
            np.add.at(g, index, grad)
            self._accumulate(g)

        return Tensor._make(self.data[index], (self,), backward)

    def pad(self, pad_width) -> "Tensor":
        """Zero-pad; ``pad_width`` follows :func:`numpy.pad` conventions."""
        pad_width = tuple((int(a), int(b)) for a, b in pad_width)

        def backward(grad: np.ndarray) -> None:
            slices = tuple(
                slice(a, grad.shape[i] - b) for i, (a, b) in enumerate(pad_width)
            )
            self._accumulate(grad[slices])

        return Tensor._make(np.pad(self.data, pad_width), (self,), backward)

    # ------------------------------------------------------------------
    # Comparison operators (non-differentiable; return plain arrays)
    # ------------------------------------------------------------------
    def __gt__(self, other) -> np.ndarray:
        return self.data > as_tensor(other).data

    def __lt__(self, other) -> np.ndarray:
        return self.data < as_tensor(other).data


def as_tensor(value) -> Tensor:
    """Coerce ``value`` (Tensor, ndarray, scalar) into a :class:`Tensor`."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, end in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, end)
                tensor._accumulate(grad[tuple(index)])

    data = np.concatenate([t.data for t in tensors], axis=axis)
    return Tensor._make(data, tensors, backward)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable stacking along a new ``axis``."""
    tensors = [as_tensor(t) for t in tensors]

    def backward(grad: np.ndarray) -> None:
        pieces = np.moveaxis(grad, axis, 0)
        for tensor, piece in zip(tensors, pieces):
            if tensor.requires_grad:
                tensor._accumulate(piece)

    data = np.stack([t.data for t in tensors], axis=axis)
    return Tensor._make(data, tensors, backward)
