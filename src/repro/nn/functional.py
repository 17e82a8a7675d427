"""Functional interface over :class:`repro.nn.tensor.Tensor`.

Provides activations, loss functions and **fused kernels** used by the
SBRL-HAP backbones.  All functions accept tensors or array-likes and return
tensors, so they can be dropped into both training graphs and pure NumPy
evaluation code.

The fused kernels (:func:`linear`, :func:`pairwise_sq_dists`,
:func:`rbf_kernel`, :func:`bce_with_logits`, the weighted losses,
:func:`rff_features`, :func:`weighted_sq_cross_cov`,
:func:`bilinear_weighted_sum`) record a *single* graph node with a
closed-form vector-Jacobian product instead of composing dozens of broadcast
primitives.  That collapses the per-step node count of the RBF-MMD / HSIC
regularizer graphs by an order of magnitude (see ``repro bench-autodiff``)
while computing bit-identical forward values, so the golden-regression
suite pins them to the unfused history.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from .tensor import ArrayLike, Tensor, _matmul_vjp, _tape_record, as_tensor, get_default_dtype

__all__ = [
    "elu",
    "relu",
    "sigmoid",
    "tanh",
    "softplus",
    "linear",
    "pairwise_sq_dists",
    "rbf_kernel",
    "bce_with_logits",
    "mse_loss",
    "weighted_mse_loss",
    "binary_cross_entropy",
    "weighted_binary_cross_entropy",
    "l2_penalty",
    "normalize_rows",
    "rff_features",
    "weighted_sq_cross_cov",
    "bilinear_weighted_sum",
]


def elu(x: ArrayLike, alpha: float = 1.0) -> Tensor:
    """Exponential linear unit, the activation used throughout the paper."""
    return as_tensor(x).elu(alpha)


def relu(x: ArrayLike) -> Tensor:
    """Rectified linear unit."""
    return as_tensor(x).relu()


def sigmoid(x: ArrayLike) -> Tensor:
    """Logistic sigmoid."""
    return as_tensor(x).sigmoid()


def tanh(x: ArrayLike) -> Tensor:
    """Hyperbolic tangent."""
    return as_tensor(x).tanh()


def softplus(x: ArrayLike) -> Tensor:
    """Numerically stable ``log(1 + exp(x))``."""
    return as_tensor(x).softplus()


# --------------------------------------------------------------------------- #
# Fused affine / kernel primitives
# --------------------------------------------------------------------------- #
def linear(x: ArrayLike, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight + bias`` as one fused graph node.

    Supports the same 1-D/2-D operand ranks as :meth:`Tensor.matmul`; the
    bias gradient is reduced over broadcast dimensions.
    """
    x_t = as_tensor(x)
    w_t = as_tensor(weight)
    if bias is None:
        out_data = x_t.data @ w_t.data

        def backward(grad: np.ndarray, a=x_t, w=w_t) -> None:
            grad_a, grad_w = _matmul_vjp(grad, a.data, w.data)
            out._send(a, grad_a)
            out._send(w, grad_w)

        out = Tensor._make(out_data, (x_t, w_t), backward)
        return _tape_record(out, "linear", (x_t, w_t))

    b_t = as_tensor(bias)
    out_data = (x_t.data @ w_t.data) + b_t.data

    def backward(grad: np.ndarray, a=x_t, w=w_t, b=b_t) -> None:
        grad_a, grad_w = _matmul_vjp(grad, a.data, w.data)
        out._send(a, grad_a)
        out._send(w, grad_w)
        out._send(b, grad)

    out = Tensor._make(out_data, (x_t, w_t, b_t), backward)
    return _tape_record(out, "linear", (x_t, w_t, b_t))


def _pairwise_sq_data(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :] - 2.0 * (a @ b.T)


def _pairwise_sq_vjp(
    grad: np.ndarray, a: np.ndarray, b: np.ndarray
) -> tuple:
    grad_a = 2.0 * a * grad.sum(axis=1, keepdims=True) - 2.0 * (grad @ b)
    grad_b = 2.0 * b * grad.sum(axis=0)[:, None] - 2.0 * (grad.T @ a)
    return grad_a, grad_b


def pairwise_sq_dists(a: ArrayLike, b: ArrayLike) -> Tensor:
    """All-pairs squared Euclidean distances ``D[i, j] = ||a_i - b_j||²``.

    One fused node replacing the sum/broadcast/matmul chain the kernel IPMs
    used to build; inputs must be 2-D ``(n, d)`` / ``(m, d)``.
    """
    a_t = as_tensor(a)
    b_t = as_tensor(b)
    if a_t.ndim != 2 or b_t.ndim != 2:
        raise ValueError("pairwise_sq_dists expects 2-D (rows, features) inputs")
    out_data = _pairwise_sq_data(a_t.data, b_t.data)

    def backward(grad: np.ndarray, at=a_t, bt=b_t) -> None:
        grad_a, grad_b = _pairwise_sq_vjp(grad, at.data, bt.data)
        out._send(at, grad_a)
        out._send(bt, grad_b)

    out = Tensor._make(out_data, (a_t, b_t), backward)
    return _tape_record(out, "pairwise_sq_dists", (a_t, b_t))


def rbf_kernel(a: ArrayLike, b: ArrayLike, sigma: float = 1.0) -> Tensor:
    """RBF (Gaussian) kernel matrix ``exp(-||a_i - b_j||² / (2σ²))``, fused.

    The pairwise distances and the exponential are one graph node with an
    analytic VJP, so an RBF-MMD term contributes three nodes to the graph
    instead of ~36.
    """
    a_t = as_tensor(a)
    b_t = as_tensor(b)
    if a_t.ndim != 2 or b_t.ndim != 2:
        raise ValueError("rbf_kernel expects 2-D (rows, features) inputs")
    scale = -1.0 / (2.0 * sigma ** 2)
    out_data = np.exp(_pairwise_sq_data(a_t.data, b_t.data) * scale)

    def backward(grad: np.ndarray, at=a_t, bt=b_t, s=scale) -> None:
        grad_sq = grad * out.data * s
        grad_a, grad_b = _pairwise_sq_vjp(grad_sq, at.data, bt.data)
        out._send(at, grad_a)
        out._send(bt, grad_b)

    out = Tensor._make(out_data, (a_t, b_t), backward)
    return _tape_record(out, "rbf_kernel", (a_t, b_t), {"scale": scale})


def bce_with_logits(
    logits: ArrayLike, target: ArrayLike, weights: Optional[ArrayLike] = None
) -> Tensor:
    """Numerically stable (weighted) binary cross-entropy on raw logits.

    Computes ``mean(w * (softplus(z) - t * z))`` as a single fused node —
    no intermediate sigmoid, no probability clipping, and the classic
    well-conditioned gradient ``w * (sigmoid(z) - t) / n``.
    """
    z_t = as_tensor(logits)
    t_t = as_tensor(target)
    losses = np.logaddexp(0.0, z_t.data) - t_t.data * z_t.data
    if weights is None:
        arr = losses
        parents: tuple = (z_t, t_t)
        w_t = None
    else:
        w_t = as_tensor(weights)
        arr = w_t.data * losses
        parents = (z_t, t_t, w_t)
    count = arr.size

    def backward(grad: np.ndarray, z=z_t, t=t_t, w=w_t, losses=losses, n=count) -> None:
        scale = grad / n
        sig = 1.0 / (1.0 + np.exp(-np.clip(z.data, -60.0, 60.0)))
        weighted_scale = scale if w is None else scale * w.data
        out._send(z, weighted_scale * (sig - t.data))
        out._send(t, -weighted_scale * z.data)
        if w is not None:
            out._send(w, scale * losses)

    out = Tensor._make(np.asarray(arr.mean(), dtype=arr.dtype), parents, backward)
    return _tape_record(out, "bce_with_logits", parents)


# --------------------------------------------------------------------------- #
# Fused losses (bit-identical to the historical op compositions)
# --------------------------------------------------------------------------- #
def mse_loss(prediction: ArrayLike, target: ArrayLike) -> Tensor:
    """Mean squared error (fused single node)."""
    p_t = as_tensor(prediction)
    t_t = as_tensor(target)
    diff = p_t.data - t_t.data
    arr = diff * diff
    count = arr.size

    def backward(grad: np.ndarray, p=p_t, t=t_t, diff=diff, n=count) -> None:
        grad_p = (2.0 * (grad / n)) * diff
        out._send(p, grad_p)
        out._send(t, -grad_p)

    out = Tensor._make(np.asarray(arr.mean(), dtype=arr.dtype), (p_t, t_t), backward)
    return _tape_record(out, "mse_loss", (p_t, t_t))


def weighted_mse_loss(prediction: ArrayLike, target: ArrayLike, weights: ArrayLike) -> Tensor:
    """Sample-weighted mean squared error, Eq. (13) of the paper (fused).

    ``weights`` are not assumed to sum to ``n``; the loss divides by ``n`` so
    the scale matches the unweighted loss when all weights are one.
    """
    p_t = as_tensor(prediction)
    t_t = as_tensor(target)
    w_t = as_tensor(weights)
    diff = p_t.data - t_t.data
    arr = w_t.data * diff * diff
    count = arr.size

    def backward(grad: np.ndarray, p=p_t, t=t_t, w=w_t, diff=diff, n=count) -> None:
        scale = grad / n
        grad_p = (2.0 * scale) * (w.data * diff)
        out._send(p, grad_p)
        out._send(t, -grad_p)
        out._send(w, scale * (diff * diff))

    out = Tensor._make(np.asarray(arr.mean(), dtype=arr.dtype), (p_t, t_t, w_t), backward)
    return _tape_record(out, "weighted_mse_loss", (p_t, t_t, w_t))


def _bce_fused(
    prediction: Tensor, target: Tensor, weights: Optional[Tensor], eps: float
) -> Tensor:
    clipped = np.clip(prediction.data, eps, 1.0 - eps)
    log_p = np.log(clipped)
    log_1m = np.log(1.0 - clipped)
    losses = -(target.data * log_p + (1.0 - target.data) * log_1m)
    arr = losses if weights is None else weights.data * losses
    count = arr.size

    def backward(
        grad: np.ndarray,
        p=prediction,
        t=target,
        w=weights,
        pc=clipped,
        log_p=log_p,
        log_1m=log_1m,
        losses=losses,
        lo=eps,
        hi=1.0 - eps,
        n=count,
    ) -> None:
        scale = grad / n
        weighted_scale = scale if w is None else scale * w.data
        in_band = (p.data >= lo) & (p.data <= hi)
        local = (1.0 - t.data) / (1.0 - pc) - t.data / pc
        out._send(p, weighted_scale * local * in_band)
        out._send(t, weighted_scale * (log_1m - log_p))
        if w is not None:
            out._send(w, scale * losses)

    parents = (prediction, target) if weights is None else (prediction, target, weights)
    out = Tensor._make(np.asarray(arr.mean(), dtype=arr.dtype), parents, backward)
    return _tape_record(out, "bce", parents, {"eps": eps})


def binary_cross_entropy(prediction: ArrayLike, target: ArrayLike, eps: float = 1e-7) -> Tensor:
    """Binary cross-entropy on probabilities in ``(0, 1)`` (fused node)."""
    return _bce_fused(as_tensor(prediction), as_tensor(target), None, eps)


def weighted_binary_cross_entropy(
    prediction: ArrayLike, target: ArrayLike, weights: ArrayLike, eps: float = 1e-7
) -> Tensor:
    """Sample-weighted binary cross-entropy (used for binary outcomes)."""
    return _bce_fused(as_tensor(prediction), as_tensor(target), as_tensor(weights), eps)


def l2_penalty(parameters) -> Tensor:
    """Sum of squared parameter values (the paper's ``R_l2`` term), fused."""
    params = [as_tensor(param) for param in parameters]
    total = np.asarray(0.0, dtype=get_default_dtype())
    for param in params:
        total = total + np.sum(param.data * param.data)

    def backward(grad: np.ndarray, params=params) -> None:
        for param in params:
            out._send(param, (2.0 * grad) * param.data)

    out = Tensor._make(np.asarray(total), tuple(params), backward)
    return _tape_record(out, "l2_penalty", tuple(params), {"dtype": total.dtype})


def normalize_rows(x: ArrayLike, eps: float = 1e-8) -> Tensor:
    """Project each row onto the unit sphere (the paper's ``rep_normalization``).

    Fused: one node computing ``x / (||x||_2 + eps)`` per row with the exact
    VJP of the historical sum/sqrt/divide chain (including its ``1e-12``
    guard on the square root).
    """
    x_t = as_tensor(x)
    data = x_t.data
    sq_norms = (data * data).sum(axis=1, keepdims=True)
    roots = np.sqrt(sq_norms)
    norms = roots + eps
    out_data = data / norms

    def backward(grad: np.ndarray, xt=x_t, roots=roots, norms=norms) -> None:
        data = xt.data
        grad_norm = (-grad * data / (norms ** 2)).sum(axis=1, keepdims=True)
        grad_sq = grad_norm * (0.5 / np.maximum(roots, 1e-12))
        out._send(xt, grad / norms + (2.0 * grad_sq) * data)

    out = Tensor._make(out_data, (x_t,), backward)
    return _tape_record(out, "normalize_rows", (x_t,), {"eps": eps})


# --------------------------------------------------------------------------- #
# Fused HSIC-RFF building blocks
# --------------------------------------------------------------------------- #
def rff_features(values: ArrayLike, frequencies: np.ndarray, phases: np.ndarray) -> Tensor:
    """Random-Fourier-feature map ``sqrt(2) * cos(v * w + phi)`` (fused).

    ``values`` is a column of ``n`` samples (any shape that ravels to ``n``);
    the output is ``(n, num_features)``.  ``frequencies`` / ``phases`` are
    constants of the draw and receive no gradient.
    """
    v_t = as_tensor(values)
    freqs = np.asarray(frequencies, dtype=v_t.data.dtype).reshape(1, -1)
    phis = np.asarray(phases, dtype=v_t.data.dtype).reshape(1, -1)
    column = v_t.data.reshape(-1, 1)
    inner = column * freqs + phis
    # Python-float sqrt(2): a NumPy float64 scalar would promote float32
    # inputs to float64 under NEP 50, defeating the dtype policy here.
    sqrt2 = 2.0 ** 0.5
    out_data = np.cos(inner) * sqrt2

    def backward(grad: np.ndarray, vt=v_t, inner=inner, freqs=freqs, sqrt2=sqrt2) -> None:
        d_inner = grad * (-np.sin(inner)) * sqrt2
        out._send(vt, (d_inner * freqs).sum(axis=1).reshape(vt.data.shape))

    out = Tensor._make(out_data, (v_t,), backward)
    return _tape_record(
        out, "rff_features", (v_t,), {"frequencies": freqs, "phis": phis, "sqrt2": sqrt2}
    )


def weighted_sq_cross_cov(u: ArrayLike, v: ArrayLike, probs: ArrayLike) -> Tensor:
    """Squared Frobenius norm of the weighted cross-covariance ``||C_w(u, v)||²``.

    ``u`` / ``v`` are ``(n, k)`` / ``(n, m)`` feature matrices and ``probs``
    a normalised ``(n, 1)`` weight column.  This one node replaces the ~20
    broadcast ops of the StableNet weighted-covariance construction
    ``C_w = (p ⊙ (u - E_p u))ᵀ (v - E_p v)`` and is the inner loop of the
    Independence Regularizer (Eq. 9).
    """
    u_t = as_tensor(u)
    v_t = as_tensor(v)
    p_t = as_tensor(probs)
    u_data, v_data, p_data = u_t.data, v_t.data, p_t.data
    mean_u = (p_data * u_data).sum(axis=0, keepdims=True)
    mean_v = (p_data * v_data).sum(axis=0, keepdims=True)
    u_centred = u_data - mean_u
    v_centred = v_data - mean_v
    weighted_u = p_data * u_centred
    cross_cov = weighted_u.T @ v_centred
    value = (cross_cov * cross_cov).sum()

    def backward(
        grad: np.ndarray,
        ut=u_t,
        vt=v_t,
        pt=p_t,
        uc=u_centred,
        vc=v_centred,
        pu=weighted_u,
        cc=cross_cov,
    ) -> None:
        d_cc = (2.0 * grad) * cc
        d_pu = vc @ d_cc.T
        d_vc = pu @ d_cc
        p_data = pt.data
        # pu = p * uc
        d_uc = p_data * d_pu
        d_p = (d_pu * uc).sum(axis=1, keepdims=True)
        # uc = u - mean_u ; mean_u = sum_i p_i u_i
        d_mean_u = -d_uc.sum(axis=0, keepdims=True)
        d_u = d_uc + p_data * d_mean_u
        d_p = d_p + (ut.data * d_mean_u).sum(axis=1, keepdims=True)
        # vc = v - mean_v ; mean_v = sum_i p_i v_i
        d_mean_v = -d_vc.sum(axis=0, keepdims=True)
        d_v = d_vc + p_data * d_mean_v
        d_p = d_p + (vt.data * d_mean_v).sum(axis=1, keepdims=True)
        out._send(ut, d_u)
        out._send(vt, d_v)
        out._send(pt, d_p.reshape(pt.data.shape))

    out = Tensor._make(np.asarray(value), (u_t, v_t, p_t), backward)
    return _tape_record(out, "weighted_sq_cross_cov", (u_t, v_t, p_t))


def bilinear_weighted_sum(
    weights_a: ArrayLike, kernel: ArrayLike, weights_b: ArrayLike
) -> Tensor:
    """Weighted bilinear form ``Σ_ij a_i K_ij b_j`` as one fused node.

    The three kernel expectations of a weighted MMD are exactly this shape;
    the forward matches ``(a[:, None] * K * b[None, :]).sum()`` bit-for-bit.
    """
    a_t = as_tensor(weights_a)
    k_t = as_tensor(kernel)
    b_t = as_tensor(weights_b)
    col = a_t.data.reshape(-1, 1)
    row = b_t.data.reshape(1, -1)
    weighted = col * k_t.data
    value = (weighted * row).sum()

    def backward(grad: np.ndarray, at=a_t, kt=k_t, bt=b_t, col=col, row=row, weighted=weighted) -> None:
        out._send(at, (grad * (kt.data * row).sum(axis=1)).reshape(at.data.shape))
        out._send(kt, grad * (col * row))
        out._send(bt, (grad * weighted.sum(axis=0)).reshape(bt.data.shape))

    out = Tensor._make(np.asarray(value), (a_t, k_t, b_t), backward)
    return _tape_record(out, "bilinear_weighted_sum", (a_t, k_t, b_t))
