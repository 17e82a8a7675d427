"""Reverse-mode automatic differentiation over NumPy arrays.

The paper's reference implementation uses TensorFlow 1.15.  That dependency
is not available in this environment, so the repository ships its own small
but complete autodiff engine.  This module holds its execution core:

* :class:`Tensor` and its operator methods (broadcasting arithmetic, matrix
  multiplication, reductions, elementwise non-linearities, reshape /
  transpose / slicing) plus :func:`concatenate` and :func:`stack`;
* :func:`_apply`, the one eager execution path.  Every op method is a thin
  wrapper that prepares and validates its arguments and calls ``_apply``,
  which runs the op's forward kernel from :mod:`repro.nn.kernels` into a
  fresh output and keeps one graph node ``(op, attrs, ctx, needs)``;
* :meth:`Tensor.backward`, which walks the graph in reverse topological order
  and calls each node's VJP kernel from the same table.

No op's forward formula or VJP is written here: each exists once, in
:mod:`repro.nn.kernels`, shared with graph replay (:mod:`repro.nn.tape`).

The engine is tuned for the training hot path:

* **dtype policy** — tensors are created in the default dtype of the calling
  thread (:func:`set_default_dtype` / :class:`dtype_scope`).  ``float64`` is
  the default for bit-compatibility with the finite-difference gradient
  checks and the golden-regression suite; ``float32`` halves memory traffic
  for opt-in fast training (``TrainingConfig.dtype``).
* **per-thread state** — the grad mode, the dtype policy, the allocation
  counter and the tape hook are thread-local, so concurrent fits and
  predictions on different threads never see each other's settings.
* **zero-copy backprop** — gradient buffers are allocated once per graph
  edge fan-in and then accumulated in place (``np.add(..., out=...)``)
  whenever the buffer is owned by the backward pass; no defensive
  ``asarray``/``copy`` per hop.
* **graph release** — after :meth:`Tensor.backward` the nodes and parent
  links are dropped (unless ``retain_graph=True``), so step N's activations
  are freed before step N+1 allocates.

Gradients are validated against central finite differences in
``tests/test_nn_tensor.py`` and the hypothesis suite.
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .kernels import _FORWARD, _SHAPE, _VIEW, _VJP

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


class _GradMode(threading.local):
    """Per-thread switch used by :func:`no_grad`."""

    def __init__(self) -> None:
        self.enabled = True


_GRAD_MODE = _GradMode()


class no_grad:
    """Context manager disabling graph construction (inference mode)."""

    def __enter__(self) -> "no_grad":
        self._previous = _GRAD_MODE.enabled
        _GRAD_MODE.enabled = False
        return self

    def __exit__(self, *exc_info) -> None:
        _GRAD_MODE.enabled = self._previous


def is_grad_enabled() -> bool:
    """Return whether new operations on this thread are recorded onto the graph."""
    return _GRAD_MODE.enabled


# --------------------------------------------------------------------------- #
# Dtype policy
# --------------------------------------------------------------------------- #
class _DtypePolicy(threading.local):
    """Per-thread default dtype for newly constructed tensors."""

    def __init__(self) -> None:
        self.dtype = np.float64


_DTYPE_POLICY = _DtypePolicy()

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
    """The dtype new tensors on this thread are created with (``np.float64`` by default)."""
    return _DTYPE_POLICY.dtype


def set_default_dtype(dtype) -> None:
    """Set this thread's tensor dtype (``"float32"`` or ``"float64"``)."""
    _DTYPE_POLICY.dtype = _coerce_dtype(dtype)


class dtype_scope:
    """Context manager temporarily switching the default tensor dtype.

    Used by the training engine to honour ``TrainingConfig.dtype`` without
    leaking the policy into evaluation code, which always runs in float64.
    """

    def __init__(self, dtype) -> None:
        self._dtype = _coerce_dtype(dtype)

    def __enter__(self) -> "dtype_scope":
        self._previous = _DTYPE_POLICY.dtype
        _DTYPE_POLICY.dtype = self._dtype
        return self

    def __exit__(self, *exc_info) -> None:
        _DTYPE_POLICY.dtype = self._previous


# --------------------------------------------------------------------------- #
# Instrumentation (used by ``repro bench-autodiff``)
# --------------------------------------------------------------------------- #
class _AllocStats(threading.local):
    """Per-thread counter of Tensor constructions (one per recorded op)."""

    def __init__(self) -> None:
        self.tensors = 0


_ALLOC_STATS = _AllocStats()


def tensor_alloc_count() -> int:
    """Monotonic count of :class:`Tensor` objects constructed on this thread.

    The difference of two readings brackets the allocation cost of a code
    region — every NumPy op on tensors allocates exactly one node, so this
    is the graph-size metric the fused-kernel benchmarks report.
    """
    return _ALLOC_STATS.tensors


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
    from an op's VJP are never owned — the same array may have been sent to
    a sibling parent, be a read-only broadcast view, or be kernel scratch.
    """

    __slots__ = ("grads", "owned")

    def __init__(self) -> None:
        self.grads: dict = {}
        self.owned: set = set()

    def send(self, parent: "Tensor", grad: np.ndarray) -> None:
        """Accumulate ``grad`` for ``parent`` during backprop (zero-copy).

        The first gradient reaching a parent is stored as-is; fan-in
        accumulation allocates once and every further contribution is added
        in place into that owned buffer.
        """
        unbroadcast = _unbroadcast(grad, parent.data.shape)
        key = id(parent)
        existing = self.grads.get(key)
        if existing is None:
            self.grads[key] = unbroadcast
            if unbroadcast is not grad:
                self.owned.add(key)  # the reduction allocated a fresh buffer
        elif key in self.owned:
            np.add(existing, unbroadcast, out=existing)
        else:
            self.grads[key] = existing + unbroadcast
            self.owned.add(key)


#: Stands in for the node record of a released graph (see :meth:`Tensor.backward`).
_RELEASED = object()


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

_NO_ATTRS: dict = {}


def _apply(op: str, parents: Tuple["Tensor", ...], attrs: dict = _NO_ATTRS) -> "Tensor":
    """Run ``op``'s kernel now and keep the node: the eager execution path.

    Allocates the output from the op's shape rule (view ops return their
    view instead), runs the forward kernel into it with a fresh ``ctx``, and
    — when gradients can flow — stores the node record ``(op, attrs, ctx,
    needs)`` that :meth:`Tensor.backward` hands to the op's VJP kernel.  An
    active :class:`~repro.nn.tape.TapeRecorder` is notified of every op.
    """
    ins = tuple([parent.data for parent in parents])
    ctx: dict = {}
    view = _VIEW.get(op)
    if view is None:
        data = np.empty(_SHAPE[op](ins, attrs), dtype=_DTYPE_POLICY.dtype)
        _FORWARD[op](data, ins, attrs, ctx)
    else:
        data = view(ins[0], attrs)
    out = Tensor(data)
    if _GRAD_MODE.enabled:
        needs = tuple([parent.requires_grad for parent in parents])
        if True in needs:
            out.requires_grad = True
            out._parents = parents
            out._backward = (op, attrs, ctx, needs)
    rec = _TAPE.recorder
    if rec is not None:
        rec.record(out, op, parents, attrs)
    return out


class Tensor:
    """A NumPy-backed tensor participating in reverse-mode autodiff.

    Parameters
    ----------
    data:
        Any array-like value.  Stored in the calling thread's default dtype
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
    # ``_backward`` holds the node record ``(op, attrs, ctx, needs)`` of an
    # op output, ``None`` for a leaf.
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name", "_version", "__weakref__")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        name: Optional[str] = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=_DTYPE_POLICY.dtype)
        self.requires_grad = bool(requires_grad) and _GRAD_MODE.enabled
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[tuple] = None
        # Retaining parents on a grad-free tensor would keep whole subgraphs
        # alive under no_grad(); only record them when gradients can flow.
        self._parents: Tuple[Tensor, ...] = _parents if self.requires_grad else ()
        self.name = name
        _ALLOC_STATS.tensors += 1

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
        afterwards: node records and parent links are dropped so the forward
        activations they hold can be freed immediately.  A second
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
                record = node._backward
                if record is None:
                    if node.requires_grad:
                        # Leaf (or explicitly retained parameter-like node).
                        node._accumulate(node_grad, owned=owned)
                    continue
                if record is _RELEASED:
                    raise RuntimeError(
                        "backward() through a graph that has already been freed; pass "
                        "retain_graph=True to the first backward() call to keep the graph"
                    )
                op, attrs, ctx, needs = record
                parents = node._parents
                ins = tuple([parent.data for parent in parents])
                grads = _VJP[op](node_grad, ins, node.data, attrs, ctx, needs)
                for parent, need, parent_grad in zip(parents, needs, grads):
                    if need and parent_grad is not None:
                        state.send(parent, parent_grad)
        finally:
            if not retain_graph:
                for node in topo:
                    if node._backward is not None:
                        node._backward = _RELEASED
                        node._parents = ()

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        return _apply("add", (self, as_tensor(other)))

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return _apply("neg", (self,))

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        return _apply("mul", (self, as_tensor(other)))

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        return _apply("div", (self, as_tensor(other)))

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("Tensor.__pow__ only supports scalar exponents")
        return _apply("pow", (self,), {"exponent": float(exponent)})

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return self.matmul(other)

    def matmul(self, other: ArrayLike) -> "Tensor":
        """Matrix multiplication with gradient support for 1-D and 2-D operands."""
        return _apply("matmul", (self, as_tensor(other)))

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        """Sum over ``axis`` (all elements when ``None``)."""
        return _apply("sum", (self,), {"axis": axis, "keepdims": keepdims})

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
        return _apply("exp", (self,))

    def log(self) -> "Tensor":
        """Elementwise natural logarithm."""
        return _apply("log", (self,))

    def sqrt(self) -> "Tensor":
        """Elementwise square root."""
        return _apply("sqrt", (self,))

    def abs(self) -> "Tensor":
        """Elementwise absolute value."""
        return _apply("abs", (self,))

    def tanh(self) -> "Tensor":
        """Elementwise hyperbolic tangent."""
        return _apply("tanh", (self,))

    def sigmoid(self) -> "Tensor":
        """Elementwise logistic sigmoid (input clipped to +/-60)."""
        return _apply("sigmoid", (self,))

    def relu(self) -> "Tensor":
        """Elementwise ``max(x, 0)``."""
        return _apply("relu", (self,))

    def elu(self, alpha: float = 1.0) -> "Tensor":
        """Elementwise ELU with slope ``alpha`` on the negative side."""
        return _apply("elu", (self,), {"alpha": float(alpha)})

    def softplus(self) -> "Tensor":
        """Elementwise ``log(1 + e**x)``."""
        return _apply("softplus", (self,))

    def cos(self) -> "Tensor":
        """Elementwise cosine."""
        return _apply("cos", (self,))

    def sin(self) -> "Tensor":
        """Elementwise sine."""
        return _apply("sin", (self,))

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values to ``[low, high]`` (gradient is zero outside).

        Either bound may be ``None``; an absent bound clamps nothing.
        """
        return _apply("clip", (self,), {"low": low, "high": high})

    def maximum(self, other: ArrayLike) -> "Tensor":
        """Elementwise maximum with ``other``."""
        return _apply("maximum", (self, as_tensor(other)))

    # ------------------------------------------------------------------ #
    # Shape manipulation (views of the input, like their NumPy counterparts)
    # ------------------------------------------------------------------ #
    def reshape(self, *shape: int) -> "Tensor":
        """Reshaped tensor over the same data."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return _apply("reshape", (self,), {"shape": shape})

    def transpose(self, axes: Optional[Tuple[int, ...]] = None) -> "Tensor":
        """Axes-permuted tensor (axes reversed when ``None``)."""
        return _apply("transpose", (self,), {"axes": axes})

    def __getitem__(self, index) -> "Tensor":
        return _apply("getitem", (self,), {"index": index})


def as_tensor(value: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Coerce ``value`` into a :class:`Tensor` (no copy when already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad)


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing to each input."""
    return _apply("concatenate", tuple([as_tensor(t) for t in tensors]), {"axis": axis})


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis."""
    return _apply("stack", tuple([as_tensor(t) for t in tensors]), {"axis": axis})
