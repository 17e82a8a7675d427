"""Per-kernel tests for the single op table in :mod:`repro.nn.kernels`.

Eager execution and graph replay run the same ``fwd``/``vjp`` kernels, but
through different buffer management: eager allocates a fresh output and
``ctx`` per op and routes gradients through ``Tensor.backward``; replay keeps
buffers and ``ctx`` across runs and routes through its precomputed
schedule.  These tests pin the two paths to each other bit for bit for
every registered op, in float64 and float32, including the ops no golden
run reaches, and check that every public op records a registered kernel.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.kernels import _FORWARD, _VJP
from repro.nn.tape import TapeRecorder
from repro.nn.tensor import Tensor, concatenate, dtype_scope, stack


def _normal(*shape):
    return lambda rng: rng.normal(size=shape)


def _positive(*shape):
    return lambda rng: np.abs(rng.normal(size=shape)) + 0.5


def _unit(*shape):
    return lambda rng: rng.uniform(0.05, 0.95, size=shape)


def _with_zero(*shape):
    def make(rng):
        values = np.abs(rng.normal(size=shape)) + 0.1
        values.flat[0] = 0.0
        return values

    return make


def _off_zero(*shape):
    def make(rng):
        values = rng.normal(size=shape)
        return np.where(np.abs(values) < 0.1, 0.5, values)

    return make


#: case id -> (builder over requires_grad leaves, input makers).  Every
#: registered kernel must be reached by at least one case (checked below).
CASES = {
    "add": (lambda a, b: a + b, [_normal(4, 3), _normal(3)]),
    "neg": (lambda a: -a, [_normal(4, 3)]),
    "mul": (lambda a, b: a * b, [_normal(4, 3), _normal(4, 1)]),
    "div": (lambda a, b: a / b, [_normal(4, 3), _positive(4, 3)]),
    "pow-3": (lambda a: a ** 3, [_normal(4, 3)]),
    "pow-0.5": (lambda a: a ** 0.5, [_with_zero(4, 3)]),
    "pow-1.5": (lambda a: a ** 1.5, [_positive(4, 3)]),
    "matmul": (lambda a, b: a @ b, [_normal(4, 3), _normal(3, 2)]),
    "matmul-vec-mat": (lambda a, b: a @ b, [_normal(3), _normal(3, 2)]),
    "matmul-mat-vec": (lambda a, b: a @ b, [_normal(4, 3), _normal(3)]),
    "matmul-vec-vec": (lambda a, b: a @ b, [_normal(3), _normal(3)]),
    "linear": (F.linear, [_normal(4, 3), _normal(3, 2), _normal(2)]),
    "linear-no-bias": (F.linear, [_normal(4, 3), _normal(3, 2)]),
    "sum": (lambda a: a.sum(), [_normal(4, 3)]),
    "sum-axis": (lambda a: a.sum(axis=1), [_normal(4, 3)]),
    "sum-keepdims": (lambda a: a.sum(axis=0, keepdims=True), [_normal(4, 3)]),
    "exp": (lambda a: a.exp(), [_normal(4, 3)]),
    "log": (lambda a: a.log(), [_positive(4, 3)]),
    "sqrt": (lambda a: a.sqrt(), [_positive(4, 3)]),
    "abs": (lambda a: a.abs(), [_off_zero(4, 3)]),
    "tanh": (lambda a: a.tanh(), [_normal(4, 3)]),
    "sigmoid": (lambda a: a.sigmoid(), [_normal(4, 3)]),
    "relu": (lambda a: a.relu(), [_off_zero(4, 3)]),
    "elu": (lambda a: a.elu(), [_off_zero(4, 3)]),
    "elu-alpha": (lambda a: a.elu(1.3), [_off_zero(4, 3)]),
    "softplus": (lambda a: a.softplus(), [_normal(4, 3)]),
    "cos": (lambda a: a.cos(), [_normal(4, 3)]),
    "sin": (lambda a: a.sin(), [_normal(4, 3)]),
    "clip": (lambda a: a.clip(-0.5, 0.5), [_normal(4, 3)]),
    "clip-upper-only": (lambda a: a.clip(None, 0.5), [_normal(4, 3)]),
    "clip-lower-only": (lambda a: a.clip(-0.5, None), [_normal(4, 3)]),
    "maximum": (lambda a, b: a.maximum(b), [_normal(4, 3), _normal(4, 3)]),
    "reshape": (lambda a: a.reshape(3, 4) * 2.0, [_normal(4, 3)]),
    "transpose": (lambda a: a.T * 2.0, [_normal(4, 3)]),
    "transpose-axes": (lambda a: a.transpose((1, 0, 2)) * 2.0, [_normal(2, 3, 2)]),
    "getitem": (lambda a: a[1:3] * 2.0, [_normal(4, 3)]),
    "getitem-fancy": (lambda a: a[np.array([0, 2, 2, 3])], [_normal(4, 3)]),
    "concatenate": (lambda a, b: concatenate([a, b], axis=1), [_normal(4, 3), _normal(4, 2)]),
    "stack": (lambda a, b: stack([a, b], axis=1), [_normal(4, 3), _normal(4, 3)]),
    "pairwise_sq_dists": (F.pairwise_sq_dists, [_normal(5, 3), _normal(4, 3)]),
    "rbf_kernel": (lambda a, b: F.rbf_kernel(a, b, 1.5), [_normal(5, 3), _normal(4, 3)]),
    "bce_with_logits": (F.bce_with_logits, [_normal(6, 1), _unit(6, 1)]),
    "bce_with_logits-weighted": (F.bce_with_logits, [_normal(6, 1), _unit(6, 1), _positive(6, 1)]),
    "mse_loss": (F.mse_loss, [_normal(6, 1), _normal(6, 1)]),
    "weighted_mse_loss": (F.weighted_mse_loss, [_normal(6, 1), _normal(6, 1), _positive(6)]),
    "bce": (F.binary_cross_entropy, [_unit(6, 1), _unit(6, 1)]),
    "bce-weighted": (F.weighted_binary_cross_entropy, [_unit(6, 1), _unit(6, 1), _positive(6, 1)]),
    "l2_penalty": (lambda a, b: F.l2_penalty([a, b]), [_normal(4, 3), _normal(3)]),
    "normalize_rows": (F.normalize_rows, [_normal(4, 3)]),
    "rff_features": (
        lambda v: F.rff_features(v, np.array([0.3, -1.2, 2.0]), np.array([0.1, 1.0, 2.5])),
        [_normal(6, 1)],
    ),
    "weighted_sq_cross_cov": (F.weighted_sq_cross_cov, [_normal(6, 3), _normal(6, 2), _unit(6, 1)]),
    "weighted_rbf_mmd_term": (
        lambda a, b, wa, wb: F.weighted_rbf_mmd_term(a, b, wa, wb, 1.3),
        [_normal(5, 3), _normal(4, 3), _unit(5), _unit(4)],
    ),
    "weighted_rbf_mmd_term-same-operand": (
        lambda a, w: F.weighted_rbf_mmd_term(a, a, w, w, 1.3),
        [_normal(5, 3), _unit(5)],
    ),
}

DTYPES = ("float64", "float32")


def _graph_ops(root: Tensor) -> set:
    ops, seen, todo = set(), set(), [root]
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward is not None:
            ops.add(node._backward[0])
        todo.extend(node._parents)
    return ops


def _projected_loss(case: str, leaves):
    """``case`` on ``leaves``, contracted by a fixed projection so every
    output element's gradient is exercised."""
    out = CASES[case][0](*leaves)
    projection = np.random.default_rng(99).normal(size=out.shape)
    return out, (out * Tensor(projection)).sum()


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_eager_equals_replay_bitwise(case, dtype):
    """Replaying the recorded op on new leaf values equals eager on them."""
    rng = np.random.default_rng(sorted(CASES).index(case))
    with dtype_scope(dtype):
        recorded = [np.asarray(make(rng), dtype=dtype) for make in CASES[case][1]]
        fresh = [np.asarray(make(rng), dtype=dtype) for make in CASES[case][1]]

        leaves = [Tensor(values, requires_grad=True) for values in recorded]
        recorder = TapeRecorder()
        with recorder:
            out, loss = _projected_loss(case, leaves)
            loss.backward()
        program = recorder.finalize(loss)
        assert program is not None, recorder.aborted
        for leaf, values in zip(leaves, fresh):
            np.copyto(leaf.data, values)  # in place, as an optimizer step does
        program.run()  # a second run reuses every buffer and ctx
        replayed_loss = program.run()

        eager_leaves = [Tensor(values, requires_grad=True) for values in fresh]
        eager_out, eager_loss = _projected_loss(case, eager_leaves)
        eager_loss.backward()
    assert replayed_loss == float(eager_loss.data)
    if not np.shares_memory(out.data, leaves[0].data):
        # View outputs alias their leaf; replay skips them by design.
        assert out.data.dtype == eager_out.data.dtype
        assert np.array_equal(out.data, eager_out.data)
    for leaf, eager_leaf in zip(leaves, eager_leaves):
        assert leaf.grad.dtype == eager_leaf.grad.dtype == np.dtype(dtype)
        assert np.array_equal(leaf.grad, eager_leaf.grad)


def test_cases_cover_every_kernel():
    rng = np.random.default_rng(0)
    reached = set()
    for build, makers in CASES.values():
        leaves = [Tensor(make(rng), requires_grad=True) for make in makers]
        reached |= _graph_ops(build(*leaves))
    assert reached == set(_FORWARD)


def test_cross_cov_vjp_weights_only_matches_full():
    """With detached features only ``d_p`` is formed, bitwise as in a full call."""
    rng = np.random.default_rng(3)
    ins = (rng.normal(size=(9, 5)), rng.normal(size=(9, 4)), rng.uniform(0.05, 0.2, size=(9, 1)))
    out, ctx = np.empty(()), {}
    _FORWARD["weighted_sq_cross_cov"](out, ins, {}, ctx)
    grad = np.asarray(0.7)
    full = _VJP["weighted_sq_cross_cov"](grad, ins, out, {}, ctx, (True, True, True))
    weights_only = _VJP["weighted_sq_cross_cov"](grad, ins, out, {}, ctx, (False, False, True))
    assert weights_only[0] is None and weights_only[1] is None
    assert np.array_equal(weights_only[2], full[2])


#: Tensor attributes that are not ops (introspection, graph control).
_NON_OPS = {"__init__", "__len__", "__repr__", "numpy", "item", "detach", "backward", "zero_grad"}


def _public_tensor_ops() -> set:
    names = set()
    for name, member in vars(Tensor).items():
        if not callable(member) or name in _NON_OPS:
            continue
        if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
            continue
        names.add(name)
    return names | {"T"}


def _x():
    return Tensor(np.random.default_rng(1).normal(size=(4, 3)), requires_grad=True)


def _p():
    return Tensor(np.random.default_rng(2).uniform(0.1, 0.9, size=(4, 1)), requires_grad=True)


PUBLIC_OPS = {
    # Tensor methods and operators
    "__add__": lambda: _x() + 1.0,
    "__radd__": lambda: 1.0 + _x(),
    "__neg__": lambda: -_x(),
    "__sub__": lambda: _x() - 1.0,
    "__rsub__": lambda: 1.0 - _x(),
    "__mul__": lambda: _x() * 2.0,
    "__rmul__": lambda: 2.0 * _x(),
    "__truediv__": lambda: _x() / 2.0,
    "__rtruediv__": lambda: 2.0 / _x(),
    "__pow__": lambda: _x() ** 2,
    "__matmul__": lambda: _x() @ np.ones(3),
    "__getitem__": lambda: _x()[0],
    "matmul": lambda: _x().matmul(np.ones((3, 2))),
    "sum": lambda: _x().sum(axis=0),
    "mean": lambda: _x().mean(),
    "var": lambda: _x().var(axis=0),
    "exp": lambda: _x().exp(),
    "log": lambda: _p().log(),
    "sqrt": lambda: _p().sqrt(),
    "abs": lambda: _x().abs(),
    "tanh": lambda: _x().tanh(),
    "sigmoid": lambda: _x().sigmoid(),
    "relu": lambda: _x().relu(),
    "elu": lambda: _x().elu(),
    "softplus": lambda: _x().softplus(),
    "cos": lambda: _x().cos(),
    "sin": lambda: _x().sin(),
    "clip": lambda: _x().clip(-0.5, 0.5),
    "maximum": lambda: _x().maximum(0.0),
    "reshape": lambda: _x().reshape(-1),
    "transpose": lambda: _x().transpose(),
    "T": lambda: _x().T,
    # module-level tensor ops
    "concatenate": lambda: concatenate([_x(), _x()]),
    "stack": lambda: stack([_x(), _x()]),
    # repro.nn.functional
    "elu_fn": lambda: F.elu(_x()),
    "relu_fn": lambda: F.relu(_x()),
    "sigmoid_fn": lambda: F.sigmoid(_x()),
    "tanh_fn": lambda: F.tanh(_x()),
    "softplus_fn": lambda: F.softplus(_x()),
    "linear_fn": lambda: F.linear(_x(), _x().T, np.zeros(4)),
    "pairwise_sq_dists_fn": lambda: F.pairwise_sq_dists(_x(), _x()),
    "rbf_kernel_fn": lambda: F.rbf_kernel(_x(), _x()),
    "bce_with_logits_fn": lambda: F.bce_with_logits(_x(), np.ones((4, 3))),
    "mse_loss_fn": lambda: F.mse_loss(_x(), np.zeros((4, 3))),
    "weighted_mse_loss_fn": lambda: F.weighted_mse_loss(_x(), np.zeros((4, 3)), _p()),
    "binary_cross_entropy_fn": lambda: F.binary_cross_entropy(_p(), np.ones((4, 1))),
    "weighted_binary_cross_entropy_fn": lambda: F.weighted_binary_cross_entropy(
        _p(), np.ones((4, 1)), _p()
    ),
    "l2_penalty_fn": lambda: F.l2_penalty([_x(), _p()]),
    "normalize_rows_fn": lambda: F.normalize_rows(_x()),
    "rff_features_fn": lambda: F.rff_features(_p(), np.ones(3), np.zeros(3)),
    "weighted_sq_cross_cov_fn": lambda: F.weighted_sq_cross_cov(_x(), _x(), _p()),
    "weighted_rbf_mmd_term_fn": lambda: F.weighted_rbf_mmd_term(
        _x(), _x(), _p().reshape(-1), _p().reshape(-1)
    ),
}


def test_public_op_table_is_complete():
    """Every public op of Tensor, the tensor module and functional is listed."""
    expected = _public_tensor_ops() | {"concatenate", "stack"}
    expected |= {f"{name}_fn" for name in F.__all__}
    assert set(PUBLIC_OPS) == expected


@pytest.mark.parametrize("name", sorted(PUBLIC_OPS))
def test_public_op_records_a_registered_kernel(name):
    out = PUBLIC_OPS[name]()
    assert out._backward is not None, "a public op must record a graph node"
    assert _graph_ops(out) <= set(_FORWARD)
    assert out._backward[0] in _FORWARD
