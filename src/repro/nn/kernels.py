"""The autodiff op table: every op's forward, VJP and output shape, defined once.

Each op of the engine — the broadcasting arithmetic and non-linearities of
:class:`repro.nn.tensor.Tensor` and the fused kernels of
:mod:`repro.nn.functional` — is registered here exactly once, together with
its vector-Jacobian product (the HIPS-autograd "primitive + VJP" idiom).  Both
execution paths read this table:

* **eager** (:func:`repro.nn.tensor._apply`) allocates the output from the
  op's shape rule, runs ``fwd`` into it with a fresh ``ctx`` and keeps one
  node; :meth:`Tensor.backward` later calls the op's ``vjp`` with that
  ``ctx``;
* **replay** (:mod:`repro.nn.tape`) runs the same ``fwd``/``vjp`` over
  preallocated buffers, keeping each instruction's ``ctx`` across runs.

Kernel signatures::

    fwd(out, ins, attrs, ctx)            writes the op result into ``out``
    vjp(grad, ins, out, attrs, ctx, needs)
                                         per-parent gradients (``None`` where
                                         ``needs`` is False); never mutates
                                         ``grad`` (replay reuses the seed)
    shape(ins, attrs)                    output shape (eager allocation)

``ctx`` holds scratch buffers (reused across replay runs) and intermediates
the VJP needs.  The view ops (reshape, transpose, basic-index getitem)
register a ``view(x, attrs)`` rule instead of a shape rule: eagerly their
result *is* a view of the input, which replay relies on to skip them.

Every forward is an in-place ufunc sequence IEEE-identical to the plain
NumPy expression it replaces (noted beside each kernel where not obvious),
so results are bit-for-bit those of the expression.  The one exception is
``weighted_rbf_mmd_term``, which trades that for GEMM-form arithmetic and
matches its expression to rounding.  This module depends on NumPy alone.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np
from numpy.lib.array_utils import normalize_axis_index, normalize_axis_tuple


class TapeStale(RuntimeError):
    """A replayed program's assumptions no longer hold; re-record the step."""


_FORWARD: Dict[str, Callable] = {}
_VJP: Dict[str, Callable] = {}
_SHAPE: Dict[str, Callable] = {}
_VIEW: Dict[str, Callable] = {}


def _register(name: str, fwd: Callable, vjp: Callable, shape=None, view=None) -> None:
    """Add op ``name`` with its shape rule, or with its eager view rule."""
    _FORWARD[name] = fwd
    _VJP[name] = vjp
    if view is None:
        _SHAPE[name] = shape
    else:
        _VIEW[name] = view


def _scratch(ctx: dict, key, shape, dtype) -> np.ndarray:
    buf = ctx.get(key)
    if buf is None or buf.shape != tuple(shape) or buf.dtype != dtype:
        buf = ctx[key] = np.empty(shape, dtype=dtype)
    return buf


# --------------------------------------------------------------------------- #
# Output-shape rules
# --------------------------------------------------------------------------- #
def _broadcast_pair(shape, other):
    """``np.broadcast_shapes`` of two shapes in pure Python.

    NumPy's version costs more than most eager ops at training sizes; it
    only runs here to raise NumPy's error on a mismatch.
    """
    if other == shape or not other:
        return shape
    if not shape:
        return other
    ndim = max(len(shape), len(other))
    merged = []
    for x, y in zip((1,) * (ndim - len(shape)) + shape, (1,) * (ndim - len(other)) + other):
        if x != y and x != 1 and y != 1:
            np.broadcast_shapes(shape, other)
        merged.append(y if x == 1 else x)
    return tuple(merged)


def _broadcast(ins, attrs):
    shape = ins[0].shape
    for arr in ins[1:]:
        shape = _broadcast_pair(shape, arr.shape)
    return shape


def _scalar(ins, attrs):
    return ()


def _matmul(ins, attrs):
    """``a @ b`` (plus an optional bias operand, broadcast against it)."""
    a, b = ins[0].shape, ins[1].shape
    if len(a) == 2 and len(b) == 2:
        shape = (a[0], b[1])
    else:
        batch = np.broadcast_shapes(a[:-2], b[:-2])
        shape = batch + a[-2:-1] + (b[-1:] if len(b) > 1 else ())
    if len(ins) == 3:
        shape = _broadcast_pair(shape, ins[2].shape)
    return shape


def _reduce(ins, attrs):
    shape = ins[0].shape
    axis = attrs["axis"]
    if axis is None:
        return (1,) * len(shape) if attrs["keepdims"] else ()
    axes = normalize_axis_tuple(axis, len(shape))
    if attrs["keepdims"]:
        return tuple(1 if i in axes else size for i, size in enumerate(shape))
    return tuple(size for i, size in enumerate(shape) if i not in axes)


def _pairwise(ins, attrs):
    return (ins[0].shape[0], ins[1].shape[0])


# --------------------------------------------------------------------------- #
# Arithmetic
# --------------------------------------------------------------------------- #
def _add_fwd(out, ins, attrs, ctx):
    np.add(ins[0], ins[1], out=out)


def _add_vjp(grad, ins, out, attrs, ctx, needs):
    return (grad, grad)


_register("add", _add_fwd, _add_vjp, _broadcast)


def _neg_fwd(out, ins, attrs, ctx):
    np.negative(ins[0], out=out)


def _neg_vjp(grad, ins, out, attrs, ctx, needs):
    return (-grad,)


_register("neg", _neg_fwd, _neg_vjp, _broadcast)


def _mul_fwd(out, ins, attrs, ctx):
    np.multiply(ins[0], ins[1], out=out)


def _mul_vjp(grad, ins, out, attrs, ctx, needs):
    a, b = ins
    return (grad * b if needs[0] else None, grad * a if needs[1] else None)


_register("mul", _mul_fwd, _mul_vjp, _broadcast)


def _div_fwd(out, ins, attrs, ctx):
    np.divide(ins[0], ins[1], out=out)


def _div_vjp(grad, ins, out, attrs, ctx, needs):
    a, b = ins
    ga = grad / b if needs[0] else None
    gb = -grad * a / (b ** 2) if needs[1] else None
    return (ga, gb)


_register("div", _div_fwd, _div_vjp, _broadcast)


def _pow_fwd(out, ins, attrs, ctx):
    np.power(ins[0], attrs["exponent"], out=out)


def _pow_vjp(grad, ins, out, attrs, ctx, needs):
    p = attrs["exponent"]
    base = ins[0]
    if p < 1.0:
        # x**(p-1) diverges at x == 0 for p < 1; use the zero subgradient
        # there instead of emitting inf/nan.
        with np.errstate(divide="ignore", invalid="ignore"):
            local = p * base ** (p - 1.0)
        local = np.where(base == 0.0, 0.0, local)
    else:
        local = p * (base ** (p - 1.0))
    return (grad * local,)


_register("pow", _pow_fwd, _pow_vjp, _broadcast)


def _matmul_vjp(grad, a, b, ctx, needs):
    """VJP of ``a @ b``: in-place 2-D fast path, rank promotion for 1-D."""
    ga = gb = None
    if a.ndim == 2 and b.ndim == 2 and grad.ndim == 2:
        if needs[0]:
            ga = _scratch(ctx, "ga", a.shape, a.dtype)
            np.matmul(grad, b.T, out=ga)
        if needs[1]:
            gb = _scratch(ctx, "gw", b.shape, b.dtype)
            np.matmul(a.T, grad, out=gb)
        return ga, gb
    if a.ndim == 1 and b.ndim == 1:
        return (grad * b if needs[0] else None, grad * a if needs[1] else None)
    a2 = a if a.ndim > 1 else a[None, :]
    b2 = b if b.ndim > 1 else b[:, None]
    g2 = grad
    if a.ndim == 1:
        g2 = g2[None, ...]
    if b.ndim == 1:
        g2 = g2[..., None]
    if needs[0]:
        ga = g2 @ np.swapaxes(b2, -1, -2)
        if a.ndim == 1:
            ga = ga.reshape(a.shape)
    if needs[1]:
        gb = np.swapaxes(a2, -1, -2) @ g2
        if b.ndim == 1:
            gb = gb.reshape(b.shape)
    return ga, gb


def _linear_fwd(out, ins, attrs, ctx):
    x, w = ins[0], ins[1]
    if x.ndim == 2 and w.ndim == 2:
        np.matmul(x, w, out=out)
        if len(ins) == 3:
            np.add(out, ins[2], out=out)
    else:
        out[...] = x @ w if len(ins) == 2 else (x @ w) + ins[2]


def _linear_vjp(grad, ins, out, attrs, ctx, needs):
    ga, gw = _matmul_vjp(grad, ins[0], ins[1], ctx, needs)
    if len(ins) == 2:
        return (ga, gw)
    return (ga, gw, grad if needs[2] else None)


# matmul is linear without a bias; both names stay, as replay and the
# stacked program key their batched fast path on them.
_register("matmul", _linear_fwd, _linear_vjp, _matmul)
_register("linear", _linear_fwd, _linear_vjp, _matmul)


def _sum_fwd(out, ins, attrs, ctx):
    ins[0].sum(axis=attrs["axis"], keepdims=attrs["keepdims"], out=out)


def _sum_vjp(grad, ins, out, attrs, ctx, needs):
    ax = attrs["axis"]
    if ax is not None and not attrs["keepdims"]:
        grad = np.expand_dims(grad, ax)
    return (np.broadcast_to(grad, ins[0].shape),)


_register("sum", _sum_fwd, _sum_vjp, _reduce)


# --------------------------------------------------------------------------- #
# Elementwise non-linearities
# --------------------------------------------------------------------------- #
def _ufunc_fwd(ufunc):
    def fwd(out, ins, attrs, ctx):
        ufunc(ins[0], out=out)

    return fwd


def _exp_vjp(grad, ins, out, attrs, ctx, needs):
    g = _scratch(ctx, "g", out.shape, out.dtype)
    np.multiply(grad, out, out=g)
    return (g,)


def _log_vjp(grad, ins, out, attrs, ctx, needs):
    g = _scratch(ctx, "g", out.shape, out.dtype)
    np.divide(grad, ins[0], out=g)
    return (g,)


def _sqrt_vjp(grad, ins, out, attrs, ctx, needs):
    # grad * 0.5 / np.maximum(out, 1e-12)
    g = _scratch(ctx, "g", out.shape, out.dtype)
    t = _scratch(ctx, "t", out.shape, out.dtype)
    np.maximum(out, 1e-12, out=t)
    np.multiply(grad, 0.5, out=g)
    np.divide(g, t, out=g)
    return (g,)


def _abs_vjp(grad, ins, out, attrs, ctx, needs):
    g = _scratch(ctx, "g", out.shape, out.dtype)
    np.sign(ins[0], out=g)
    np.multiply(grad, g, out=g)
    return (g,)


def _tanh_vjp(grad, ins, out, attrs, ctx, needs):
    # grad * (1.0 - out ** 2); out ** 2 is np.square, i.e. out * out
    g = _scratch(ctx, "g", out.shape, out.dtype)
    np.square(out, out=g)
    np.subtract(1.0, g, out=g)
    np.multiply(grad, g, out=g)
    return (g,)


def _cos_vjp(grad, ins, out, attrs, ctx, needs):
    # -grad * np.sin(x) == -(grad * np.sin(x)) bitwise (sign flip)
    g = _scratch(ctx, "g", out.shape, out.dtype)
    np.sin(ins[0], out=g)
    np.multiply(grad, g, out=g)
    np.negative(g, out=g)
    return (g,)


def _sin_vjp(grad, ins, out, attrs, ctx, needs):
    g = _scratch(ctx, "g", out.shape, out.dtype)
    np.cos(ins[0], out=g)
    np.multiply(grad, g, out=g)
    return (g,)


def _relu_fwd(out, ins, attrs, ctx):
    np.maximum(ins[0], 0.0, out=out)


def _relu_vjp(grad, ins, out, attrs, ctx, needs):
    m = _scratch(ctx, "m", out.shape, np.dtype(bool))
    np.greater(ins[0], 0.0, out=m)
    return (grad * m,)


_register("exp", _ufunc_fwd(np.exp), _exp_vjp, _broadcast)
_register("log", _ufunc_fwd(np.log), _log_vjp, _broadcast)
_register("sqrt", _ufunc_fwd(np.sqrt), _sqrt_vjp, _broadcast)
_register("abs", _ufunc_fwd(np.absolute), _abs_vjp, _broadcast)
_register("tanh", _ufunc_fwd(np.tanh), _tanh_vjp, _broadcast)
_register("cos", _ufunc_fwd(np.cos), _cos_vjp, _broadcast)
_register("sin", _ufunc_fwd(np.sin), _sin_vjp, _broadcast)
_register("relu", _relu_fwd, _relu_vjp, _broadcast)


def _sigmoid_into(t, x):
    """t <- 1 / (1 + exp(-clip(x, -60, 60))), the stable logistic sigmoid.

    minimum(maximum(x, lo), hi) is np.clip's definition — same values with
    none of the np.clip wrapper's Python dispatch overhead.
    """
    np.maximum(x, -60.0, out=t)
    np.minimum(t, 60.0, out=t)
    np.negative(t, out=t)
    np.exp(t, out=t)
    np.add(t, 1.0, out=t)
    np.divide(1.0, t, out=t)
    return t


def _sigmoid_fwd(out, ins, attrs, ctx):
    _sigmoid_into(out, ins[0])


def _sigmoid_vjp(grad, ins, out, attrs, ctx, needs):
    # grad * out * (1 - out), evaluated left to right
    g = _scratch(ctx, "g", out.shape, out.dtype)
    t = _scratch(ctx, "t", out.shape, out.dtype)
    np.subtract(1.0, out, out=t)
    np.multiply(grad, out, out=g)
    np.multiply(g, t, out=g)
    return (g,)


_register("sigmoid", _sigmoid_fwd, _sigmoid_vjp, _broadcast)


def _elu_fwd(out, ins, attrs, ctx):
    # where(x > 0, x, alpha * (exp(minimum(x, 0)) - 1))
    x = ins[0]
    pos = _scratch(ctx, "pos", x.shape, np.dtype(bool))
    np.greater(x, 0.0, out=pos)
    t = _scratch(ctx, "t", x.shape, x.dtype)
    np.minimum(x, 0.0, out=t)
    np.exp(t, out=t)
    np.subtract(t, 1.0, out=t)
    if attrs["alpha"] != 1.0:  # x * 1.0 is a bitwise no-op
        np.multiply(t, attrs["alpha"], out=t)
    # np.where picks values untouched (bitwise), and beats a masked copyto
    # by ~1.4x at training shapes.
    out[...] = np.where(pos, x, t)


def _elu_vjp(grad, ins, out, attrs, ctx, needs):
    # grad * where(pos, 1.0, out + alpha)
    t = _scratch(ctx, "t", out.shape, out.dtype)
    np.add(out, attrs["alpha"], out=t)
    local = np.where(ctx["pos"], 1.0, t)
    g = _scratch(ctx, "g", out.shape, out.dtype)
    np.multiply(grad, local, out=g)
    return (g,)


_register("elu", _elu_fwd, _elu_vjp, _broadcast)


def _softplus_fwd(out, ins, attrs, ctx):
    np.logaddexp(0.0, ins[0], out=out)


def _softplus_vjp(grad, ins, out, attrs, ctx, needs):
    t = _scratch(ctx, "t", out.shape, out.dtype)
    _sigmoid_into(t, ins[0])
    g = _scratch(ctx, "g", out.shape, out.dtype)
    np.multiply(grad, t, out=g)
    return (g,)


_register("softplus", _softplus_fwd, _softplus_vjp, _broadcast)


def _clip_fwd(out, ins, attrs, ctx):
    # minimum(maximum(x, lo), hi): np.clip's definition without its Python
    # wrapper overhead (either bound may be absent).
    low, high = attrs["low"], attrs["high"]
    if low is not None:
        np.maximum(ins[0], low, out=out)
        if high is not None:
            np.minimum(out, high, out=out)
    elif high is not None:
        np.minimum(ins[0], high, out=out)
    else:
        np.copyto(out, ins[0])


def _clip_vjp(grad, ins, out, attrs, ctx, needs):
    # The gradient is zero outside the band; an absent bound masks nothing.
    x = ins[0]
    low, high = attrs["low"], attrs["high"]
    mask = None if low is None else x >= low
    if high is not None:
        mask = x <= high if mask is None else mask & (x <= high)
    return (grad if mask is None else grad * mask,)


_register("clip", _clip_fwd, _clip_vjp, _broadcast)


def _maximum_fwd(out, ins, attrs, ctx):
    np.maximum(ins[0], ins[1], out=out)


def _maximum_vjp(grad, ins, out, attrs, ctx, needs):
    mask = ins[0] >= ins[1]
    ga = grad * mask if needs[0] else None
    gb = grad * (~mask) if needs[1] else None
    return (ga, gb)


_register("maximum", _maximum_fwd, _maximum_vjp, _broadcast)


# --------------------------------------------------------------------------- #
# Shape manipulation
# --------------------------------------------------------------------------- #
def _reshape_fwd(out, ins, attrs, ctx):
    out[...] = ins[0].reshape(out.shape)


def _reshape_vjp(grad, ins, out, attrs, ctx, needs):
    return (grad.reshape(ins[0].shape),)


_register("reshape", _reshape_fwd, _reshape_vjp, view=lambda x, attrs: x.reshape(attrs["shape"]))


def _transpose_fwd(out, ins, attrs, ctx):
    out[...] = ins[0].transpose(attrs["axes"])


def _transpose_vjp(grad, ins, out, attrs, ctx, needs):
    ax = attrs["axes"]
    if ax is None:
        return (grad.transpose(),)
    return (grad.transpose(np.argsort(ax)),)


_register("transpose", _transpose_fwd, _transpose_vjp, view=lambda x, attrs: x.transpose(attrs["axes"]))


def _getitem_fwd(out, ins, attrs, ctx):
    result = ins[0][attrs["index"]]
    if result.shape != out.shape:
        raise TapeStale("getitem result changed shape since recording")
    np.copyto(out, result)


def _getitem_vjp(grad, ins, out, attrs, ctx, needs):
    full = _scratch(ctx, "full", ins[0].shape, ins[0].dtype)
    full.fill(0.0)
    np.add.at(full, attrs["index"], grad)
    return (full,)


_register("getitem", _getitem_fwd, _getitem_vjp, view=lambda x, attrs: x[attrs["index"]])


def _concatenate_shape(ins, attrs):
    if not ins:
        raise ValueError("need at least one array to concatenate")
    axis = normalize_axis_index(attrs["axis"], ins[0].ndim)
    shape = list(ins[0].shape)
    shape[axis] = sum(arr.shape[axis] for arr in ins)
    return tuple(shape)


def _concatenate_fwd(out, ins, attrs, ctx):
    np.concatenate(ins, axis=attrs["axis"], out=out)


def _concatenate_vjp(grad, ins, out, attrs, ctx, needs):
    axis = attrs["axis"]
    grads = []
    start = 0
    for piece in ins:
        stop = start + piece.shape[axis]
        slicer = [slice(None)] * grad.ndim
        slicer[axis] = slice(start, stop)
        grads.append(grad[tuple(slicer)])
        start = stop
    return tuple(grads)


_register("concatenate", _concatenate_fwd, _concatenate_vjp, _concatenate_shape)


def _stack_shape(ins, attrs):
    if not ins:
        raise ValueError("need at least one array to stack")
    shape = ins[0].shape
    axis = normalize_axis_index(attrs["axis"], len(shape) + 1)
    return shape[:axis] + (len(ins),) + shape[axis:]


def _stack_fwd(out, ins, attrs, ctx):
    np.stack(ins, axis=attrs["axis"], out=out)


def _stack_vjp(grad, ins, out, attrs, ctx, needs):
    split = np.moveaxis(grad, attrs["axis"], 0)
    return tuple(split[i] for i in range(len(ins)))


_register("stack", _stack_fwd, _stack_vjp, _stack_shape)


# --------------------------------------------------------------------------- #
# Fused kernel primitives (one node per RBF-MMD / HSIC building block)
# --------------------------------------------------------------------------- #
def _pairwise_fwd(out, ins, attrs, ctx):
    """out <- ||a_i - b_j||^2 = |a_i|^2 + |b_j|^2 - 2 a_i.b_j."""
    a, b = ins
    ta = _scratch(ctx, "aa", a.shape, a.dtype)
    np.multiply(a, a, out=ta)
    ra = _scratch(ctx, "ra", (a.shape[0],), a.dtype)
    ta.sum(axis=1, out=ra)
    tb = _scratch(ctx, "bb", b.shape, b.dtype)
    np.multiply(b, b, out=tb)
    rb = _scratch(ctx, "rb", (b.shape[0],), b.dtype)
    tb.sum(axis=1, out=rb)
    ab = _scratch(ctx, "ab", out.shape, out.dtype)
    np.matmul(a, b.T, out=ab)
    np.add(ra[:, None], rb[None, :], out=out)
    np.multiply(ab, 2.0, out=ab)
    np.subtract(out, ab, out=out)


def _pairwise_vjp(grad, ins, out, attrs, ctx, needs):
    a, b = ins
    ga = 2.0 * a * grad.sum(axis=1, keepdims=True) - 2.0 * (grad @ b) if needs[0] else None
    gb = 2.0 * b * grad.sum(axis=0)[:, None] - 2.0 * (grad.T @ a) if needs[1] else None
    return (ga, gb)


_register("pairwise_sq_dists", _pairwise_fwd, _pairwise_vjp, _pairwise)


def _rbf_fwd(out, ins, attrs, ctx):
    # exp(pairwise_sq_dists(a, b) * scale)
    _pairwise_fwd(out, ins, attrs, ctx)
    np.multiply(out, attrs["scale"], out=out)
    np.exp(out, out=out)


def _rbf_vjp(grad, ins, out, attrs, ctx, needs):
    # grad_sq = grad * out * scale, evaluated left to right
    g = _scratch(ctx, "g", out.shape, out.dtype)
    np.multiply(grad, out, out=g)
    np.multiply(g, attrs["scale"], out=g)
    return _pairwise_vjp(g, ins, out, attrs, ctx, needs)


_register("rbf_kernel", _rbf_fwd, _rbf_vjp, _pairwise)


def _bce_logits_fwd(out, ins, attrs, ctx):
    # mean(w * (softplus(z) - t * z))
    z, t = ins[0], ins[1]
    shape = _broadcast(ins[:2], attrs)
    losses = _scratch(ctx, "losses", shape, z.dtype)
    np.logaddexp(0.0, z, out=losses)
    tz = _scratch(ctx, "tz", shape, z.dtype)
    np.multiply(t, z, out=tz)
    np.subtract(losses, tz, out=losses)
    if len(ins) == 3:
        arr = _scratch(ctx, "arr", _broadcast(ins, attrs), z.dtype)
        np.multiply(ins[2], losses, out=arr)
    else:
        arr = losses
    ctx["n"] = arr.size
    out[...] = arr.mean()


def _bce_logits_vjp(grad, ins, out, attrs, ctx, needs):
    # w * (sigmoid(z) - t) / n: no probability clipping needed
    z, t = ins[0], ins[1]
    w = ins[2] if len(ins) == 3 else None
    scale = grad / ctx["n"]
    sig = _sigmoid_into(_scratch(ctx, "sig", z.shape, z.dtype), z)
    weighted_scale = scale if w is None else scale * w
    gz = weighted_scale * (sig - t) if needs[0] else None
    gt = -weighted_scale * z if needs[1] else None
    if w is None:
        return (gz, gt)
    # d/dw spans the full broadcast shape; unbroadcasting sums it to w's.
    gw = np.broadcast_to(scale * ctx["losses"], _broadcast(ins, attrs)) if needs[2] else None
    return (gz, gt, gw)


_register("bce_with_logits", _bce_logits_fwd, _bce_logits_vjp, _scalar)


def _mse_fwd(out, ins, attrs, ctx):
    # mean((p - t) * (p - t))
    p, t = ins
    shape = _broadcast(ins, attrs)
    diff = _scratch(ctx, "diff", shape, p.dtype)
    np.subtract(p, t, out=diff)
    arr = _scratch(ctx, "arr", shape, p.dtype)
    np.multiply(diff, diff, out=arr)
    ctx["n"] = arr.size
    out[...] = arr.mean()


def _mse_vjp(grad, ins, out, attrs, ctx, needs):
    grad_p = (2.0 * (grad / ctx["n"])) * ctx["diff"]
    return (grad_p if needs[0] else None, -grad_p if needs[1] else None)


_register("mse_loss", _mse_fwd, _mse_vjp, _scalar)


def _weighted_mse_fwd(out, ins, attrs, ctx):
    # mean(w * diff * diff), diff = p - t
    p, t, w = ins
    full = _broadcast(ins, attrs)
    diff = _scratch(ctx, "diff", _broadcast(ins[:2], attrs), p.dtype)
    np.subtract(p, t, out=diff)
    wd = _scratch(ctx, "wd", full, p.dtype)
    np.multiply(w, diff, out=wd)
    arr = _scratch(ctx, "arr", full, p.dtype)
    np.multiply(wd, diff, out=arr)
    ctx["n"] = arr.size
    out[...] = arr.mean()


def _weighted_mse_vjp(grad, ins, out, attrs, ctx, needs):
    diff = ctx["diff"]
    scale = grad / ctx["n"]
    # (2.0 * scale) * (w * diff); ctx["wd"] holds w * diff
    grad_p = (2.0 * scale) * ctx["wd"] if (needs[0] or needs[1]) else None
    # d/dw spans the full broadcast shape; unbroadcasting sums it to w's.
    gw = np.broadcast_to(scale * (diff * diff), ctx["wd"].shape) if needs[2] else None
    return (grad_p if needs[0] else None, -grad_p if needs[1] else None, gw)


_register("weighted_mse_loss", _weighted_mse_fwd, _weighted_mse_vjp, _scalar)


def _bce_fwd(out, ins, attrs, ctx):
    # mean(w * -(t * log(pc) + (1 - t) * log(1 - pc))), pc = clip(p, eps, 1 - eps)
    p, t = ins[0], ins[1]
    eps = attrs["eps"]
    shape = _broadcast(ins[:2], attrs)
    pc = _scratch(ctx, "pc", p.shape, p.dtype)
    np.maximum(p, eps, out=pc)
    np.minimum(pc, 1.0 - eps, out=pc)
    log_p = _scratch(ctx, "log_p", p.shape, p.dtype)
    np.log(pc, out=log_p)
    log_1m = _scratch(ctx, "log_1m", p.shape, p.dtype)
    np.subtract(1.0, pc, out=log_1m)
    np.log(log_1m, out=log_1m)
    losses = _scratch(ctx, "losses", shape, p.dtype)
    np.multiply(t, log_p, out=losses)
    omt = _scratch(ctx, "omt", shape, p.dtype)
    np.subtract(1.0, t, out=omt)
    np.multiply(omt, log_1m, out=omt)
    np.add(losses, omt, out=losses)
    np.negative(losses, out=losses)
    if len(ins) == 3:
        arr = _scratch(ctx, "arr", _broadcast(ins, attrs), p.dtype)
        np.multiply(ins[2], losses, out=arr)
    else:
        arr = losses
    ctx["n"] = arr.size
    out[...] = arr.mean()


def _bce_vjp(grad, ins, out, attrs, ctx, needs):
    p, t = ins[0], ins[1]
    w = ins[2] if len(ins) == 3 else None
    eps = attrs["eps"]
    pc = ctx["pc"]
    scale = grad / ctx["n"]
    weighted_scale = scale if w is None else scale * w
    in_band = (p >= eps) & (p <= 1.0 - eps)
    local = (1.0 - t) / (1.0 - pc) - t / pc
    gp = weighted_scale * local * in_band if needs[0] else None
    gt = weighted_scale * (ctx["log_1m"] - ctx["log_p"]) if needs[1] else None
    if w is None:
        return (gp, gt)
    # d/dw spans the full broadcast shape; unbroadcasting sums it to w's.
    gw = np.broadcast_to(scale * ctx["losses"], _broadcast(ins, attrs)) if needs[2] else None
    return (gp, gt, gw)


_register("bce", _bce_fwd, _bce_vjp, _scalar)


def _l2_fwd(out, ins, attrs, ctx):
    # sum over params of sum(param * param), accumulated from a 0-d start
    total = np.asarray(0.0, dtype=attrs["dtype"])
    for i, param in enumerate(ins):
        sq = _scratch(ctx, ("sq", i), param.shape, param.dtype)
        np.multiply(param, param, out=sq)
        total = total + sq.sum()
    out[...] = total


def _l2_vjp(grad, ins, out, attrs, ctx, needs):
    g2 = 2.0 * grad
    grads = []
    for i, param in enumerate(ins):
        if not needs[i]:
            grads.append(None)
            continue
        g = _scratch(ctx, ("g", i), param.shape, param.dtype)
        np.multiply(param, g2, out=g)
        grads.append(g)
    return tuple(grads)


_register("l2_penalty", _l2_fwd, _l2_vjp, _scalar)


def _normalize_rows_fwd(out, ins, attrs, ctx):
    # x / (sqrt(sum(x * x, axis=1, keepdims=True)) + eps)
    x = ins[0]
    sq = _scratch(ctx, "sq", x.shape, x.dtype)
    np.multiply(x, x, out=sq)
    sums = _scratch(ctx, "sums", (x.shape[0], 1), x.dtype)
    sq.sum(axis=1, keepdims=True, out=sums)
    roots = _scratch(ctx, "roots", sums.shape, x.dtype)
    np.sqrt(sums, out=roots)
    norms = _scratch(ctx, "norms", sums.shape, x.dtype)
    np.add(roots, attrs["eps"], out=norms)
    np.divide(x, norms, out=out)


def _normalize_rows_vjp(grad, ins, out, attrs, ctx, needs):
    # the sum/sqrt/divide chain's VJP, with its 1e-12 guard on the root
    x = ins[0]
    roots, norms = ctx["roots"], ctx["norms"]
    grad_norm = (-grad * x / (norms ** 2)).sum(axis=1, keepdims=True)
    grad_sq = grad_norm * (0.5 / np.maximum(roots, 1e-12))
    return (grad / norms + (2.0 * grad_sq) * x,)


_register("normalize_rows", _normalize_rows_fwd, _normalize_rows_vjp, _broadcast)


def _rff_fwd(out, ins, attrs, ctx):
    # cos(v[:, None] * frequencies + phis) * sqrt2
    column = ins[0].reshape(-1, 1)
    inner = _scratch(ctx, "inner", out.shape, out.dtype)
    np.multiply(column, attrs["frequencies"], out=inner)
    np.add(inner, attrs["phis"], out=inner)
    np.cos(inner, out=out)
    np.multiply(out, attrs["sqrt2"], out=out)


def _rff_vjp(grad, ins, out, attrs, ctx, needs):
    d_inner = grad * (-np.sin(ctx["inner"])) * attrs["sqrt2"]
    return ((d_inner * attrs["frequencies"]).sum(axis=1).reshape(ins[0].shape),)


_register(
    "rff_features", _rff_fwd, _rff_vjp, lambda ins, attrs: (ins[0].size, attrs["frequencies"].shape[1])
)


def _cross_cov_fwd(out, ins, attrs, ctx):
    # ||C_w||^2 with C_w = (p * (u - E_p u))^T (v - E_p v)
    u, v, p = ins
    mean_u = (p * u).sum(axis=0, keepdims=True)
    mean_v = (p * v).sum(axis=0, keepdims=True)
    uc = u - mean_u
    vc = v - mean_v
    pu = p * uc
    cc = pu.T @ vc
    ctx["uc"], ctx["vc"], ctx["pu"], ctx["cc"] = uc, vc, pu, cc
    out[...] = (cc * cc).sum()


def _cross_cov_vjp(grad, ins, out, attrs, ctx, needs):
    u, v, p = ins
    uc, vc, pu, cc = ctx["uc"], ctx["vc"], ctx["pu"], ctx["cc"]
    d_cc = (2.0 * grad) * cc
    d_pu = vc @ d_cc.T
    d_vc = pu @ d_cc
    # pu = p * uc
    d_uc = p * d_pu
    # uc = u - mean_u ; mean_u = sum_i p_i u_i  (likewise for v)
    d_mean_u = -d_uc.sum(axis=0, keepdims=True)
    d_mean_v = -d_vc.sum(axis=0, keepdims=True)
    d_u = d_uc + p * d_mean_u if needs[0] else None
    d_v = d_vc + p * d_mean_v if needs[1] else None
    d_p = None
    if needs[2]:
        d_p = (d_pu * uc).sum(axis=1, keepdims=True)
        d_p = d_p + (u * d_mean_u).sum(axis=1, keepdims=True)
        d_p = d_p + (v * d_mean_v).sum(axis=1, keepdims=True)
        d_p = d_p.reshape(p.shape)
    return (d_u, d_v, d_p)


_register("weighted_sq_cross_cov", _cross_cov_fwd, _cross_cov_vjp, _scalar)


#: Rows of ``a`` per block of :func:`_rbf_mmd_fwd`: a 128-row slice of the
#: kernel matrix stays cache-resident while it is exponentiated and reduced.
_MMD_BLOCK_ROWS = 128


def _rbf_mmd_fwd(out, ins, attrs, ctx):
    # sum_ij wa_i K_ij wb_j, K = exp(s ||a_i - b_j||^2), one row block at a
    # time.  s ||a_i - b_j||^2 = [-2s a_i, s |a_i|^2, s] . [b_j, 1, |b_j|^2]
    # is one GEMM, so K matches rbf_kernel (and the sum, taken as
    # wa . (K wb), the elementwise composition) to rounding only.  K and
    # K wb stay in ctx for the VJP.
    a, b, wa, wb = ins
    scale = attrs["scale"]
    n_a, n_b, d = a.shape[0], b.shape[0], a.shape[1]
    left = _scratch(ctx, "left", (n_a, d + 2), a.dtype)
    np.multiply(a, -2.0 * scale, out=left[:, :d])
    np.multiply((a * a).sum(axis=1), scale, out=left[:, d])
    left[:, d + 1] = scale
    right = _scratch(ctx, "right", (n_b, d + 2), b.dtype)
    right[:, :d] = b
    right[:, d] = 1.0
    (b * b).sum(axis=1, out=right[:, d + 1])
    k = _scratch(ctx, "k", (n_a, n_b), a.dtype)
    kwb = _scratch(ctx, "kwb", (n_a,), a.dtype)
    for lo in range(0, n_a, _MMD_BLOCK_ROWS):
        kb = k[lo : lo + _MMD_BLOCK_ROWS]
        np.matmul(left[lo : lo + _MMD_BLOCK_ROWS], right.T, out=kb)
        np.exp(kb, out=kb)
        np.matmul(kb, wb, out=kwb[lo : lo + _MMD_BLOCK_ROWS])
    out[...] = np.dot(wa, kwb)


def _rbf_mmd_vjp(grad, ins, out, attrs, ctx, needs):
    # Matmul form, no n_a x n_b gradient matrix (s = scale):
    #   g_wa = grad K wb                g_a = 2s grad wa * (a * K wb - K (wb * b))
    #   g_wb = grad K^T wa              g_b = 2s grad wb * (b * K^T wa - K^T (wa * a))
    a, b, wa, wb = ins
    k, kwb = ctx["k"], ctx["kwb"]
    ga = gb = None
    if needs[1] or needs[3]:
        ktwa = _scratch(ctx, "ktwa", wb.shape, wb.dtype)
        np.matmul(wa, k, out=ktwa)
    if needs[0] or needs[1]:
        step = (2.0 * attrs["scale"]) * grad
    if needs[0]:
        ga = _scratch(ctx, "ga", a.shape, a.dtype)
        np.matmul(k, wb[:, None] * b, out=ga)
        np.subtract(a * kwb[:, None], ga, out=ga)
        np.multiply(ga, (step * wa)[:, None], out=ga)
    if needs[1]:
        gb = _scratch(ctx, "gb", b.shape, b.dtype)
        np.matmul(k.T, wa[:, None] * a, out=gb)
        np.subtract(b * ktwa[:, None], gb, out=gb)
        np.multiply(gb, (step * wb)[:, None], out=gb)
    gwa = grad * kwb if needs[2] else None
    gwb = grad * ktwa if needs[3] else None
    return (ga, gb, gwa, gwb)


_register("weighted_rbf_mmd_term", _rbf_mmd_fwd, _rbf_mmd_vjp, _scalar)
