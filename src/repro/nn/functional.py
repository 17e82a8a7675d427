"""Functional interface over :class:`repro.nn.tensor.Tensor`.

Provides activations, loss functions and **fused kernels** used by the
SBRL-HAP backbones.  All functions accept tensors or array-likes and return
tensors, so they can be dropped into both training graphs and pure NumPy
evaluation code.

The fused kernels (:func:`linear`, :func:`pairwise_sq_dists`,
:func:`rbf_kernel`, :func:`bce_with_logits`, the weighted losses,
:func:`rff_features`, :func:`weighted_sq_cross_cov`,
:func:`weighted_rbf_mmd_term`) record a *single* graph node with a
closed-form vector-Jacobian product instead of composing dozens of broadcast
primitives.  That collapses the per-step node count of the RBF-MMD / HSIC
regularizer graphs by an order of magnitude (see ``repro bench-autodiff``).
All but :func:`weighted_rbf_mmd_term` compute bit-identical forward values,
so the golden-regression suite pins them to the unfused history; that one
uses GEMM-form arithmetic and matches its composition to rounding.

Each function here only coerces and validates its arguments; the op's
forward and VJP are defined once, in :mod:`repro.nn.kernels`, and run
through the eager execution path :func:`repro.nn.tensor._apply`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .tensor import ArrayLike, Tensor, _apply, as_tensor, get_default_dtype

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
    "weighted_rbf_mmd_term",
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
    parents = (as_tensor(x), as_tensor(weight))
    if bias is not None:
        parents += (as_tensor(bias),)
    return _apply("linear", parents)


def pairwise_sq_dists(a: ArrayLike, b: ArrayLike) -> Tensor:
    """All-pairs squared Euclidean distances ``D[i, j] = ||a_i - b_j||²``.

    One fused node replacing the sum/broadcast/matmul chain the kernel IPMs
    used to build; inputs must be 2-D ``(n, d)`` / ``(m, d)``.
    """
    a_t = as_tensor(a)
    b_t = as_tensor(b)
    if a_t.ndim != 2 or b_t.ndim != 2:
        raise ValueError("pairwise_sq_dists expects 2-D (rows, features) inputs")
    return _apply("pairwise_sq_dists", (a_t, b_t))


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
    return _apply("rbf_kernel", (a_t, b_t), {"scale": -1.0 / (2.0 * sigma ** 2)})


def bce_with_logits(
    logits: ArrayLike, target: ArrayLike, weights: Optional[ArrayLike] = None
) -> Tensor:
    """Numerically stable (weighted) binary cross-entropy on raw logits.

    Computes ``mean(w * (softplus(z) - t * z))`` as a single fused node —
    no intermediate sigmoid, no probability clipping, and the classic
    well-conditioned gradient ``w * (sigmoid(z) - t) / n``.
    """
    parents = (as_tensor(logits), as_tensor(target))
    if weights is not None:
        parents += (as_tensor(weights),)
    return _apply("bce_with_logits", parents)


# --------------------------------------------------------------------------- #
# Fused losses (bit-identical to the historical op compositions)
# --------------------------------------------------------------------------- #
def mse_loss(prediction: ArrayLike, target: ArrayLike) -> Tensor:
    """Mean squared error (fused single node)."""
    return _apply("mse_loss", (as_tensor(prediction), as_tensor(target)))


def weighted_mse_loss(prediction: ArrayLike, target: ArrayLike, weights: ArrayLike) -> Tensor:
    """Sample-weighted mean squared error, Eq. (13) of the paper (fused).

    ``weights`` are not assumed to sum to ``n``; the loss divides by ``n`` so
    the scale matches the unweighted loss when all weights are one.
    """
    return _apply(
        "weighted_mse_loss", (as_tensor(prediction), as_tensor(target), as_tensor(weights))
    )


def binary_cross_entropy(prediction: ArrayLike, target: ArrayLike, eps: float = 1e-7) -> Tensor:
    """Binary cross-entropy on probabilities in ``(0, 1)`` (fused node)."""
    return _apply("bce", (as_tensor(prediction), as_tensor(target)), {"eps": eps})


def weighted_binary_cross_entropy(
    prediction: ArrayLike, target: ArrayLike, weights: ArrayLike, eps: float = 1e-7
) -> Tensor:
    """Sample-weighted binary cross-entropy (used for binary outcomes)."""
    parents = (as_tensor(prediction), as_tensor(target), as_tensor(weights))
    return _apply("bce", parents, {"eps": eps})


def l2_penalty(parameters) -> Tensor:
    """Sum of squared parameter values (the paper's ``R_l2`` term), fused."""
    params = tuple([as_tensor(param) for param in parameters])
    return _apply("l2_penalty", params, {"dtype": np.dtype(get_default_dtype())})


def normalize_rows(x: ArrayLike, eps: float = 1e-8) -> Tensor:
    """Project each row onto the unit sphere (the paper's ``rep_normalization``).

    Fused: one node computing ``x / (||x||_2 + eps)`` per row with the exact
    VJP of the historical sum/sqrt/divide chain (including its ``1e-12``
    guard on the square root).
    """
    return _apply("normalize_rows", (as_tensor(x),), {"eps": eps})


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
    # Python-float sqrt(2): a NumPy float64 scalar would promote float32
    # inputs to float64 under NEP 50, defeating the dtype policy here.
    return _apply(
        "rff_features", (v_t,), {"frequencies": freqs, "phis": phis, "sqrt2": 2.0 ** 0.5}
    )


def weighted_sq_cross_cov(u: ArrayLike, v: ArrayLike, probs: ArrayLike) -> Tensor:
    """Squared Frobenius norm of the weighted cross-covariance ``||C_w(u, v)||²``.

    ``u`` / ``v`` are ``(n, k)`` / ``(n, m)`` feature matrices and ``probs``
    a normalised ``(n, 1)`` weight column.  This one node replaces the ~20
    broadcast ops of the StableNet weighted-covariance construction
    ``C_w = (p ⊙ (u - E_p u))ᵀ (v - E_p v)`` and is the inner loop of the
    Independence Regularizer (Eq. 9).
    """
    return _apply("weighted_sq_cross_cov", (as_tensor(u), as_tensor(v), as_tensor(probs)))


def weighted_rbf_mmd_term(
    a: ArrayLike, b: ArrayLike, weights_a: ArrayLike, weights_b: ArrayLike, sigma: float = 1.0
) -> Tensor:
    """One weighted RBF-MMD kernel expectation ``Σ_ij wa_i K_ij wb_j`` as one node.

    ``K = exp(-||a_i - b_j||² / (2σ²))`` over the 2-D rows of ``a`` / ``b``;
    ``weights_a`` / ``weights_b`` are 1-D, one weight per row.  The kernel
    matrix is formed block by block and the VJP is in matmul form, so no
    ``n_a × n_b`` gradient matrix is ever built.  The value equals
    ``(wa[:, None] * rbf_kernel(a, b, σ) * wb[None, :]).sum()`` to rounding.
    """
    a_t, b_t = as_tensor(a), as_tensor(b)
    wa_t, wb_t = as_tensor(weights_a), as_tensor(weights_b)
    if a_t.ndim != 2 or b_t.ndim != 2:
        raise ValueError("weighted_rbf_mmd_term expects 2-D (rows, features) inputs")
    if wa_t.shape != (a_t.shape[0],) or wb_t.shape != (b_t.shape[0],):
        raise ValueError("weighted_rbf_mmd_term expects one 1-D weight per row")
    return _apply(
        "weighted_rbf_mmd_term", (a_t, b_t, wa_t, wb_t), {"scale": -1.0 / (2.0 * sigma ** 2)}
    )
