"""Spectral scaled Student prior on p x q matrices.

The unnormalized log-density is -((p+q+2)/2) log det(tau^2 I_p + B B^T),
which is a scaled Student density on each singular value and therefore
shrinks most singular values toward zero.
"""

from dataclasses import dataclass

import numpy as np

# the presets that tau_preset computes from a theorem's prescription
THEOREM_PRESETS = ("theorem1", "theorem3", "misspecified")


def tau_preset(preset, n, p, q, a, x_frob):
    """Prior scale tau prescribed by the consistency/concentration theorems."""
    if min(n, p, q) < 1 or a <= 0:
        raise ValueError("n, p, q must be >= 1 and a > 0")
    if x_frob <= 0:
        raise ValueError("x_frob must be positive")
    if preset == "theorem1":
        return float(np.sqrt(2.0 * a / (q * p * x_frob ** 2)))
    if preset == "theorem3":
        return float(np.sqrt(a / (q * p * x_frob ** 2)))
    if preset == "misspecified":
        return float(a / (2.0 * np.sqrt(n * q) * np.sqrt(p * q) * x_frob))
    raise ValueError(f"unknown preset {preset!r}")


@dataclass(frozen=True)
class PriorConfig:
    tau: float
    p: int
    q: int

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        if self.p < 1 or self.q < 1:
            raise ValueError("p and q must be positive")


@dataclass(frozen=True)
class PriorStack:
    """The priors of a stack of R matrices on one (p, q), one tau each:
    tau^2 and the p > q log-determinant term 2 (p - q) log tau, computed
    once per sampler run rather than once per evaluation."""

    p: int
    q: int
    tau_sq: np.ndarray            # (R,)
    logdet_shift: np.ndarray      # (R,)


def stack_priors(cfgs):
    """The PriorStack of a list of PriorConfig that share p and q."""
    p, q = cfgs[0].p, cfgs[0].q
    return PriorStack(p, q, np.array([c.tau ** 2 for c in cfgs]),
                      np.array([(p - q) * 2.0 * np.log(c.tau) for c in cfgs]))


def log_prior_and_grad(B, cfg):
    """Unnormalized log-density of the spectral scaled Student prior and its
    gradient -(p+q+2) (tau^2 I_p + B B^T)^{-1} B, for one (p, q) matrix or a
    stack (..., p, q) of them.  ``cfg`` is one PriorConfig for every matrix,
    or a PriorStack with one tau per matrix of an (R, p, q) stack.  One
    batched Cholesky factor on the smaller Gram side (push-through identity
    for p > q) gives the log-determinant and one batched solve the gradient.
    A Gram matrix that overflows or is not numerically positive definite,
    far out in the tails, gets a NaN value rather than stopping the other
    matrices of the stack."""
    if isinstance(cfg, PriorConfig):
        cfg = stack_priors([cfg])
    B = np.asarray(B, dtype=float)
    p, q = cfg.p, cfg.q
    if B.shape[-2:] != (p, q):
        raise ValueError(f"B has shape {B.shape}, expected (..., {p}, {q})")
    if not np.isfinite(B).all():
        raise ValueError("B has non-finite entries")
    k = min(p, q)
    W = B.reshape(-1, p, q)
    if p > q:
        W = W.transpose(0, 2, 1)
    M = W @ W.transpose(0, 2, 1)
    M.reshape(-1, k * k)[:, ::k + 1] += cfg.tau_sq[:, None]
    L, bad = _cholesky(M)
    if bad is not None:
        M[bad] = np.eye(k)      # its value is NaN; keep the solve finite
    sol = np.linalg.solve(M, W)
    logdet = 2.0 * np.log(L.reshape(-1, k * k)[:, ::k + 1]).sum(axis=1)
    if p > q:
        logdet += cfg.logdet_shift
    value = -0.5 * (p + q + 2) * logdet
    grad = -(p + q + 2) * (sol if p <= q else sol.transpose(0, 2, 1))
    return value.reshape(B.shape[:-2])[()], grad.reshape(B.shape)


def _cholesky(M):
    """Lower Cholesky factors of a stack of matrices, and the mask of the
    matrices that have non-finite entries or are not numerically positive
    definite, whose factor is NaN (None when there is no such matrix)."""
    try:
        if np.isfinite(M).all():
            return np.linalg.cholesky(M), None
    except np.linalg.LinAlgError:
        pass
    L = np.full_like(M, np.nan)
    for i, m in enumerate(M):
        try:
            if np.isfinite(m).all():
                L[i] = np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            pass
    return L, np.isnan(L[:, 0, 0])


def log_prior(B, cfg):
    """Unnormalized log-density of the spectral scaled Student prior."""
    return log_prior_and_grad(B, cfg)[0]


def grad_log_prior(B, cfg):
    """Gradient -(p+q+2) (tau^2 I_p + B B^T)^{-1} B of log_prior."""
    return log_prior_and_grad(B, cfg)[1]


def sample_prior(cfg, size, rng):
    """Exact draws from the prior via its matrix-Student representation.

    With k = min(p, q), S = G G^T for a k x (k+2) standard normal G is
    Wishart_k(k+2, I_k).  With S = L L^T and N a standard normal k x max(p,
    q) matrix, tau L^{-T} N has the prior density, as L^{-T} L^{-1} =
    S^{-1}; for p > q it is drawn on the q side and transposed.
    """
    p, q = cfg.p, cfg.q
    k, m = min(p, q), max(p, q)
    G = rng.standard_normal((size, k, k + 2))
    L = np.linalg.cholesky(G @ G.transpose(0, 2, 1))
    out = cfg.tau * np.linalg.solve(L.transpose(0, 2, 1),
                                    rng.standard_normal((size, k, m)))
    return out.transpose(0, 2, 1) if p > q else out
