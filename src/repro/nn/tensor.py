"""Reverse-mode automatic differentiation over NumPy arrays.

The paper's reference implementation uses TensorFlow 1.15.  That dependency
is not available in this environment, so the repository ships its own small
but complete autodiff engine.  The engine supports everything the SBRL-HAP
training procedure needs:

* broadcasting arithmetic (``+``, ``-``, ``*``, ``/``, ``**``),
* matrix multiplication,
* reductions (``sum``, ``mean``, ``var``) over arbitrary axes,
* elementwise non-linearities (exp, log, sqrt, tanh, sigmoid, ELU, ReLU,
  cos, abs, clip),
* shape manipulation (reshape, transpose, concatenation, slicing),
* gradient accumulation through arbitrary DAGs via topological ordering.

The engine is tuned for the training hot path:

* **dtype policy** — tensors are created in the process-wide default dtype
  (:func:`set_default_dtype` / :class:`dtype_scope`).  ``float64`` is the
  default for bit-compatibility with the finite-difference gradient checks
  and the golden-regression suite; ``float32`` halves memory traffic for
  opt-in fast training (``TrainingConfig.dtype``).
* **zero-copy backprop** — gradient buffers are allocated once per graph
  edge fan-in and then accumulated in place (``np.add(..., out=...)``)
  whenever the buffer is owned by the backward pass; no defensive
  ``asarray``/``copy`` per hop.
* **graph release** — after :meth:`Tensor.backward` the node closures and
  parent links are dropped (unless ``retain_graph=True``), so step N's
  activations are freed before step N+1 allocates.

Gradients are validated against central finite differences in
``tests/test_nn_tensor.py`` and the hypothesis suite.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence[float], "Tensor"]

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "concatenate",
    "stack",
    "get_default_dtype",
    "set_default_dtype",
    "dtype_scope",
    "tensor_alloc_count",
    "graph_node_count",
]


class _GradMode:
    """Process-wide switch used by :func:`no_grad`."""

    enabled = True


class no_grad:
    """Context manager disabling graph construction (inference mode)."""

    def __enter__(self) -> "no_grad":
        self._previous = _GradMode.enabled
        _GradMode.enabled = False
        return self

    def __exit__(self, *exc_info) -> None:
        _GradMode.enabled = self._previous


def is_grad_enabled() -> bool:
    """Return whether new operations are recorded onto the autodiff graph."""
    return _GradMode.enabled


# --------------------------------------------------------------------------- #
# Dtype policy
# --------------------------------------------------------------------------- #
class _DtypePolicy:
    """Process-wide default dtype for newly constructed tensors."""

    dtype = np.float64


_ALLOWED_DTYPES = {
    "float32": np.float32,
    "float64": np.float64,
}


def _coerce_dtype(dtype) -> type:
    if isinstance(dtype, str):
        try:
            return _ALLOWED_DTYPES[dtype]
        except KeyError as exc:
            raise ValueError(
                f"unsupported dtype {dtype!r}; expected one of {sorted(_ALLOWED_DTYPES)}"
            ) from exc
    resolved = np.dtype(dtype).type
    if resolved not in (np.float32, np.float64):
        raise ValueError(f"unsupported dtype {dtype!r}; expected float32 or float64")
    return resolved


def get_default_dtype():
    """The dtype new tensors are created with (``np.float64`` by default)."""
    return _DtypePolicy.dtype


def set_default_dtype(dtype) -> None:
    """Set the process-wide tensor dtype (``"float32"`` or ``"float64"``)."""
    _DtypePolicy.dtype = _coerce_dtype(dtype)


class dtype_scope:
    """Context manager temporarily switching the default tensor dtype.

    Used by the training engine to honour ``TrainingConfig.dtype`` without
    leaking the policy into evaluation code, which always runs in float64.
    """

    def __init__(self, dtype) -> None:
        self._dtype = _coerce_dtype(dtype)

    def __enter__(self) -> "dtype_scope":
        self._previous = _DtypePolicy.dtype
        _DtypePolicy.dtype = self._dtype
        return self

    def __exit__(self, *exc_info) -> None:
        _DtypePolicy.dtype = self._previous


# --------------------------------------------------------------------------- #
# Instrumentation (used by ``repro bench-autodiff``)
# --------------------------------------------------------------------------- #
class _AllocStats:
    """Process-wide counter of Tensor constructions (one per recorded op)."""

    tensors = 0


def tensor_alloc_count() -> int:
    """Monotonic count of :class:`Tensor` objects constructed so far.

    The difference of two readings brackets the allocation cost of a code
    region — every NumPy op on tensors allocates exactly one node, so this
    is the graph-size metric the fused-kernel benchmarks report.
    """
    return _AllocStats.tensors


def graph_node_count(root: "Tensor") -> int:
    """Number of nodes reachable from ``root`` through parent links."""
    seen: set = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    return len(seen)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over broadcast dimensions so it matches ``shape``."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over dimensions that were of size 1 in the original shape.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class _BackwardState:
    """Per-``backward()`` scratch: pending gradients and buffer ownership.

    ``grads`` maps ``id(tensor)`` to the accumulated gradient buffer.
    ``owned`` holds the ids whose buffer was freshly allocated *by this
    backward pass* (an unbroadcast reduction or a fan-in addition) and is
    therefore safe to accumulate into in place.  Buffers received verbatim
    from an op's backward closure are never owned — the same array may have
    been sent to a sibling parent or be a read-only broadcast view.
    """

    __slots__ = ("grads", "owned")

    def __init__(self) -> None:
        self.grads: dict = {}
        self.owned: set = set()


def _released_backward(grad: np.ndarray) -> None:
    raise RuntimeError(
        "backward() through a graph that has already been freed; pass "
        "retain_graph=True to the first backward() call to keep the graph"
    )


# --------------------------------------------------------------------------- #
# Graph-replay record hook (see repro.nn.tape)
# --------------------------------------------------------------------------- #
class _TapeHookLocal(threading.local):
    """Thread-local registration point for the graph-replay recorder.

    Thread-local so a recording on one thread neither captures ops from, nor
    is polluted by, concurrent fits running on other threads.  ``recorder``
    is ``None`` whenever no recording is active, making the per-op overhead
    a single attribute read.
    """

    def __init__(self) -> None:
        self.recorder = None


_TAPE = _TapeHookLocal()


def _tape_record(out: "Tensor", op: str, parents: Tuple["Tensor", ...], attrs=None) -> "Tensor":
    """Notify an active tape recorder that ``op`` produced ``out``."""
    rec = _TAPE.recorder
    if rec is not None:
        rec.record(out, op, parents, attrs)
    return out


class Tensor:
    """A NumPy-backed tensor participating in reverse-mode autodiff.

    Parameters
    ----------
    data:
        Any array-like value.  Stored in the process-wide default dtype
        (``float64`` unless a :class:`dtype_scope` is active) for numerical
        fidelity with the finite-difference gradient checks.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` when
        :meth:`backward` is called on a downstream scalar.
    """

    # __weakref__ keeps tensors weak-referenceable so graph-release tests
    # (and memory tooling) can observe node lifetime directly.  ``_version``
    # is bumped by in-place parameter updates (repro.nn.optim) so callers
    # that key caches by buffer identity can detect mutation; it is left
    # unset until the first in-place write to keep construction cheap.
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name", "_route", "_version", "__weakref__")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        name: Optional[str] = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=_DtypePolicy.dtype)
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        # Retaining parents on a grad-free tensor would keep whole subgraphs
        # alive under no_grad(); only record them when gradients can flow.
        self._parents: Tuple[Tensor, ...] = _parents if self.requires_grad else ()
        self.name = name
        _AllocStats.tensors += 1

    # ------------------------------------------------------------------ #
    # Basic introspection
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total number of elements."""
        return self.data.size

    @property
    def T(self) -> "Tensor":
        """Transpose, ``self.transpose()``."""
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a scalar tensor as a Python float."""
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    # ------------------------------------------------------------------ #
    # Graph machinery
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Fold ``grad`` into :attr:`grad`, taking ownership when allowed."""
        unbroadcast = _unbroadcast(grad, self.data.shape)
        if unbroadcast is not grad:
            owned = True  # the reduction allocated a fresh buffer
        if self.grad is None:
            self.grad = unbroadcast if owned else unbroadcast.copy()
        elif self.grad.flags.writeable:
            np.add(self.grad, unbroadcast, out=self.grad)
        else:
            self.grad = self.grad + unbroadcast

    def backward(self, grad: Optional[ArrayLike] = None, retain_graph: bool = False) -> None:
        """Run reverse-mode differentiation from this tensor.

        ``grad`` defaults to 1 for scalar tensors.  Gradients accumulate in
        the ``grad`` attribute of every reachable tensor that has
        ``requires_grad=True``.

        Unless ``retain_graph`` is set, the traversed graph is *released*
        afterwards: backward closures and parent links are dropped so the
        forward activations they captured can be freed immediately.  A second
        ``backward()`` through a released graph raises ``RuntimeError``.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        rec = _TAPE.recorder
        if rec is not None:
            rec.on_backward(self, retain_graph)
        seed_owned = False
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar tensors")
            grad = np.ones_like(self.data)
            seed_owned = True
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)

        # Iterative topological sort (deep graphs, e.g. long sums of HSIC
        # terms, would overflow Python's recursion limit otherwise).
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        state = _BackwardState()
        state.grads[id(self)] = grad
        if seed_owned:
            state.owned.add(id(self))
        try:
            for node in reversed(topo):
                key = id(node)
                node_grad = state.grads.pop(key, None)
                if node_grad is None:
                    continue
                owned = key in state.owned
                state.owned.discard(key)
                if node.requires_grad and node._backward is None:
                    # Leaf (or explicitly retained parameter-like node).
                    node._accumulate(node_grad, owned=owned)
                if node._backward is not None:
                    node._backward_dispatch(node_grad, state)
        finally:
            if not retain_graph:
                for node in topo:
                    if node._backward is not None:
                        node._backward = _released_backward
                        node._parents = ()

    def _backward_dispatch(self, grad: np.ndarray, state: _BackwardState) -> None:
        """Invoke the stored backward closure, routing into ``state``."""
        assert self._backward is not None
        self._route = state  # type: ignore[attr-defined]
        try:
            self._backward(grad)
        finally:
            del self._route  # type: ignore[attr-defined]

    def _send(self, parent: "Tensor", grad: np.ndarray) -> None:
        """Accumulate ``grad`` for ``parent`` during backprop (zero-copy).

        The first gradient reaching a parent is stored as-is; fan-in
        accumulation allocates once and every further contribution is added
        in place into that owned buffer.
        """
        if not parent.requires_grad and parent._backward is None:
            return  # constants never route gradients further
        state: _BackwardState = self._route  # type: ignore[attr-defined]
        unbroadcast = _unbroadcast(grad, parent.data.shape)
        key = id(parent)
        existing = state.grads.get(key)
        if existing is None:
            state.grads[key] = unbroadcast
            if unbroadcast is not grad:
                state.owned.add(key)  # the reduction allocated a fresh buffer
        elif key in state.owned:
            np.add(existing, unbroadcast, out=existing)
        else:
            state.grads[key] = existing + unbroadcast
            state.owned.add(key)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        other_t = as_tensor(other)
        out_data = self.data + other_t.data

        def backward(grad: np.ndarray, self_t=self, oth=other_t) -> None:
            out._send(self_t, grad)
            out._send(oth, grad)

        out = Tensor._make(out_data, (self, other_t), backward)
        return _tape_record(out, "add", (self, other_t))

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray, self_t=None) -> None:
            out._send(self, -grad)

        out = Tensor._make(-self.data, (self,), backward)
        return _tape_record(out, "neg", (self,))

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = as_tensor(other)
        out_data = self.data * other_t.data

        def backward(grad: np.ndarray, self_t=self, oth=other_t) -> None:
            out._send(self_t, grad * oth.data)
            out._send(oth, grad * self_t.data)

        out = Tensor._make(out_data, (self, other_t), backward)
        return _tape_record(out, "mul", (self, other_t))

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_t = as_tensor(other)
        out_data = self.data / other_t.data

        def backward(grad: np.ndarray, self_t=self, oth=other_t) -> None:
            out._send(self_t, grad / oth.data)
            out._send(oth, -grad * self_t.data / (oth.data ** 2))

        out = Tensor._make(out_data, (self, other_t), backward)
        return _tape_record(out, "div", (self, other_t))

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("Tensor.__pow__ only supports scalar exponents")
        out_data = self.data ** exponent

        def backward(grad: np.ndarray, self_t=self, p=float(exponent)) -> None:
            if p < 1.0:
                # x**(p-1) diverges at x == 0 for p < 1; use the zero
                # subgradient there instead of emitting inf/nan.
                base = self_t.data
                with np.errstate(divide="ignore", invalid="ignore"):
                    local = p * base ** (p - 1.0)
                local = np.where(base == 0.0, 0.0, local)
            else:
                local = p * (self_t.data ** (p - 1.0))
            out._send(self_t, grad * local)

        out = Tensor._make(out_data, (self,), backward)
        return _tape_record(out, "pow", (self,), {"exponent": float(exponent)})

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return self.matmul(other)

    def matmul(self, other: ArrayLike) -> "Tensor":
        """Matrix multiplication with gradient support for 1-D and 2-D operands."""
        other_t = as_tensor(other)
        out_data = self.data @ other_t.data

        def backward(grad: np.ndarray, a=self, b=other_t) -> None:
            grad_a, grad_b = _matmul_vjp(grad, a.data, b.data)
            out._send(a, grad_a)
            out._send(b, grad_b)

        out = Tensor._make(out_data, (self, other_t), backward)
        return _tape_record(out, "matmul", (self, other_t))

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        """Sum over ``axis`` (all elements when ``None``)."""
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray, self_t=self, ax=axis, keep=keepdims) -> None:
            if ax is None:
                expanded = np.broadcast_to(grad, self_t.data.shape)
            else:
                if not keep:
                    grad = np.expand_dims(grad, ax)
                expanded = np.broadcast_to(grad, self_t.data.shape)
            out._send(self_t, expanded)

        out = Tensor._make(out_data, (self,), backward)
        return _tape_record(out, "sum", (self,), {"axis": axis, "keepdims": keepdims})

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        """Mean over ``axis``."""
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[a] for a in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def var(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        """Variance over ``axis`` (biased, ddof=0)."""
        centred = self - self.mean(axis=axis, keepdims=True)
        return (centred * centred).mean(axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------ #
    # Elementwise non-linearities
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        """Elementwise ``e**x``."""
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray, self_t=self) -> None:
            out._send(self_t, grad * out.data)

        out = Tensor._make(out_data, (self,), backward)
        return _tape_record(out, "exp", (self,))

    def log(self) -> "Tensor":
        """Elementwise natural logarithm."""
        out_data = np.log(self.data)

        def backward(grad: np.ndarray, self_t=self) -> None:
            out._send(self_t, grad / self_t.data)

        out = Tensor._make(out_data, (self,), backward)
        return _tape_record(out, "log", (self,))

    def sqrt(self) -> "Tensor":
        """Elementwise square root."""
        out_data = np.sqrt(self.data)

        def backward(grad: np.ndarray, self_t=self) -> None:
            out._send(self_t, grad * 0.5 / np.maximum(out.data, 1e-12))

        out = Tensor._make(out_data, (self,), backward)
        return _tape_record(out, "sqrt", (self,))

    def abs(self) -> "Tensor":
        """Elementwise absolute value."""
        out_data = np.abs(self.data)

        def backward(grad: np.ndarray, self_t=self) -> None:
            out._send(self_t, grad * np.sign(self_t.data))

        out = Tensor._make(out_data, (self,), backward)
        return _tape_record(out, "abs", (self,))

    def tanh(self) -> "Tensor":
        """Elementwise hyperbolic tangent."""
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray, self_t=self) -> None:
            out._send(self_t, grad * (1.0 - out.data ** 2))

        out = Tensor._make(out_data, (self,), backward)
        return _tape_record(out, "tanh", (self,))

    def sigmoid(self) -> "Tensor":
        """Elementwise logistic sigmoid (input clipped to +/-60)."""
        out_data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))

        def backward(grad: np.ndarray, self_t=self) -> None:
            out._send(self_t, grad * out.data * (1.0 - out.data))

        out = Tensor._make(out_data, (self,), backward)
        return _tape_record(out, "sigmoid", (self,))

    def relu(self) -> "Tensor":
        """Elementwise ``max(x, 0)``."""
        out_data = np.maximum(self.data, 0.0)

        def backward(grad: np.ndarray, self_t=self) -> None:
            out._send(self_t, grad * (self_t.data > 0.0))

        out = Tensor._make(out_data, (self,), backward)
        return _tape_record(out, "relu", (self,))

    def elu(self, alpha: float = 1.0) -> "Tensor":
        """Elementwise ELU with slope ``alpha`` on the negative side."""
        positive = self.data > 0.0
        out_data = np.where(positive, self.data, alpha * (np.exp(np.minimum(self.data, 0.0)) - 1.0))

        def backward(grad: np.ndarray, self_t=self, a=alpha, pos=positive) -> None:
            local = np.where(pos, 1.0, out.data + a)
            out._send(self_t, grad * local)

        out = Tensor._make(out_data, (self,), backward)
        return _tape_record(out, "elu", (self,), {"alpha": float(alpha)})

    def softplus(self) -> "Tensor":
        """Elementwise ``log(1 + e**x)``."""
        out_data = np.logaddexp(0.0, self.data)

        def backward(grad: np.ndarray, self_t=self) -> None:
            sig = 1.0 / (1.0 + np.exp(-np.clip(self_t.data, -60.0, 60.0)))
            out._send(self_t, grad * sig)

        out = Tensor._make(out_data, (self,), backward)
        return _tape_record(out, "softplus", (self,))

    def cos(self) -> "Tensor":
        """Elementwise cosine."""
        out_data = np.cos(self.data)

        def backward(grad: np.ndarray, self_t=self) -> None:
            out._send(self_t, -grad * np.sin(self_t.data))

        out = Tensor._make(out_data, (self,), backward)
        return _tape_record(out, "cos", (self,))

    def sin(self) -> "Tensor":
        """Elementwise sine."""
        out_data = np.sin(self.data)

        def backward(grad: np.ndarray, self_t=self) -> None:
            out._send(self_t, grad * np.cos(self_t.data))

        out = Tensor._make(out_data, (self,), backward)
        return _tape_record(out, "sin", (self,))

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values to ``[low, high]`` (gradient is zero outside)."""
        out_data = np.clip(self.data, low, high)

        def backward(grad: np.ndarray, self_t=self, lo=low, hi=high) -> None:
            mask = (self_t.data >= lo) & (self_t.data <= hi)
            out._send(self_t, grad * mask)

        out = Tensor._make(out_data, (self,), backward)
        return _tape_record(out, "clip", (self,), {"low": low, "high": high})

    def maximum(self, other: ArrayLike) -> "Tensor":
        """Elementwise maximum with ``other``."""
        other_t = as_tensor(other)
        out_data = np.maximum(self.data, other_t.data)

        def backward(grad: np.ndarray, a=self, b=other_t) -> None:
            mask = a.data >= b.data
            out._send(a, grad * mask)
            out._send(b, grad * (~mask))

        out = Tensor._make(out_data, (self, other_t), backward)
        return _tape_record(out, "maximum", (self, other_t))

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape: int) -> "Tensor":
        """Reshaped tensor over the same data."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray, self_t=self) -> None:
            out._send(self_t, grad.reshape(self_t.data.shape))

        out = Tensor._make(out_data, (self,), backward)
        return _tape_record(out, "reshape", (self,))

    def transpose(self, axes: Optional[Tuple[int, ...]] = None) -> "Tensor":
        """Axes-permuted tensor (axes reversed when ``None``)."""
        out_data = self.data.transpose(axes)

        def backward(grad: np.ndarray, self_t=self, ax=axes) -> None:
            if ax is None:
                out._send(self_t, grad.transpose())
            else:
                inverse = np.argsort(ax)
                out._send(self_t, grad.transpose(inverse))

        out = Tensor._make(out_data, (self,), backward)
        return _tape_record(out, "transpose", (self,), {"axes": axes})

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray, self_t=self, idx=index) -> None:
            full = np.zeros_like(self_t.data)
            np.add.at(full, idx, grad)
            out._send(self_t, full)

        out = Tensor._make(out_data, (self,), backward)
        return _tape_record(out, "getitem", (self,), {"index": index})


def _matmul_vjp(
    grad: np.ndarray, a_data: np.ndarray, b_data: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """VJP of ``a @ b`` for 1-D/2-D operands (shared with the fused ops)."""
    if a_data.ndim == 1 and b_data.ndim == 1:
        return grad * b_data, grad * a_data
    a2 = a_data if a_data.ndim > 1 else a_data[None, :]
    b2 = b_data if b_data.ndim > 1 else b_data[:, None]
    g2 = grad
    if a_data.ndim == 1:
        g2 = g2[None, ...]
    if b_data.ndim == 1:
        g2 = g2[..., None]
    grad_a = g2 @ np.swapaxes(b2, -1, -2)
    grad_b = np.swapaxes(a2, -1, -2) @ g2
    if a_data.ndim == 1:
        grad_a = grad_a.reshape(a_data.shape)
    if b_data.ndim == 1:
        grad_b = grad_b.reshape(b_data.shape)
    return grad_a, grad_b


def as_tensor(value: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Coerce ``value`` into a :class:`Tensor` (no copy when already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad)


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing to each input."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(start, stop)
            out._send(tensor, grad[tuple(slicer)])

    out = Tensor._make(out_data, tuple(tensors), backward)
    return _tape_record(out, "concatenate", tuple(tensors), {"axis": axis})


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        split = np.moveaxis(grad, axis, 0)
        for tensor, piece in zip(tensors, split):
            out._send(tensor, piece)

    out = Tensor._make(out_data, tuple(tensors), backward)
    return _tape_record(out, "stack", tuple(tensors), {"axis": axis})
