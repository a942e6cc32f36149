"""Spectral scaled Student prior on p x q matrices.

The unnormalized log-density is -((p+q+2)/2) log det(tau^2 I_p + B B^T),
which is a scaled Student density on each singular value and therefore
shrinks most singular values toward zero.  Its value and gradient come
from one batched Cholesky factor per evaluation, with no solve.
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


def check_tau(tau):
    """ValueError unless tau is positive with a finite, nonzero square:
    tau^2 enters the Gram diagonal and 2 / tau^2 the prior's workspace, so
    a square that underflows to 0 or overflows gives a NaN prior at B = 0."""
    if not (tau > 0 and 0 < tau * tau < np.inf):
        raise ValueError(f"tau must be positive with a finite, nonzero "
                         f"square, not {tau!r}")


@dataclass(frozen=True)
class PriorConfig:
    tau: float
    p: int
    q: int

    def __post_init__(self):
        check_tau(self.tau)
        if self.p < 1 or self.q < 1:
            raise ValueError("p and q must be positive")


@dataclass(frozen=True)
class PriorStack:
    """The priors of R matrices on one (p, q), one tau each, and what a run
    computes once: tau^2, half the p > q log-determinant term, (p - q) log
    tau, and the workspace that each ``stack_log_prior_and_grad``
    overwrites, with views of its Gram block M and of M's diagonal."""

    p: int
    q: int
    tau_sq: np.ndarray            # (R,)
    half_logdet_shift: np.ndarray  # (R,)
    work: np.ndarray              # (R, 2k, 2k), k = min(p, q)
    gram: np.ndarray              # (R, k, k) view of work
    gram_diag: np.ndarray         # (R, k) view of work


def stack_priors(cfgs):
    """The PriorStack of a list of PriorConfig that share p and q."""
    p, q = cfgs[0].p, cfgs[0].q
    k, tau_sq = min(p, q), np.array([c.tau ** 2 for c in cfgs])
    work = np.zeros((len(cfgs), 2 * k, 2 * k))
    work[:, :k, k:] = work[:, k:, :k] = np.eye(k)
    work[:, k:, k:] = np.eye(k) * (2.0 / tau_sq[:, None, None])
    return PriorStack(p, q, tau_sq,
                      np.array([(p - q) * np.log(c.tau) for c in cfgs]), work,
                      work[:, :k, :k], _diagonal(work, k))


def _diagonal(F, k):
    """View of the diagonal of the top-left k x k block of each matrix of a
    C-contiguous stack F (R, 2k, 2k)."""
    return F.reshape(len(F), -1)[:, :2 * k * k:2 * k + 1]


def checked_stack(B, cfg):
    """B as a float array of finite (..., p, q) matrices, and their
    PriorStack: ``cfg`` itself, or a PriorConfig once per matrix."""
    B = np.asarray(B, dtype=float)
    if B.shape[-2:] != (cfg.p, cfg.q):
        raise ValueError(f"B has shape {B.shape}, expected (..., {cfg.p}, "
                         f"{cfg.q})")
    if not np.isfinite(B).all():
        raise ValueError("B has non-finite entries")
    count = B.size // (cfg.p * cfg.q)
    if isinstance(cfg, PriorConfig):
        cfg = stack_priors([cfg] * max(count, 1))
    if len(cfg.tau_sq) != count:
        raise ValueError(f"{count} matrices for {len(cfg.tau_sq)} priors")
    return B, cfg


def log_prior_and_grad(B, cfg):
    """Unnormalized log-density of the spectral scaled Student prior and its
    gradient -(p+q+2) (tau^2 I_p + B B^T)^{-1} B, for one (p, q) matrix or a
    stack (..., p, q) of them.  ``cfg`` is one PriorConfig for every matrix,
    or a PriorStack with one tau per matrix of an (R, p, q) stack."""
    return stack_log_prior_and_grad(*checked_stack(B, cfg))


def stack_log_prior_and_grad(B, prior):
    """``log_prior_and_grad`` unchecked, for B and its PriorStack.  With W
    = B on the smaller Gram side and M = tau^2 I + W W^T, one Cholesky
    factor of [[M, I], [I, (2 / tau^2) I]] gives both pieces: its top-left
    block is chol(M), and its lower-left block C = chol(M)^{-T} makes M^{-1}
    W = C (C^T W).  The factor exists whenever chol(M) does, as the Schur
    complement (2 / tau^2) I - M^{-1} is at least I / tau^2.  A Gram matrix
    that overflows or is not numerically positive definite, far out in the
    tails, gets a NaN value rather than stopping the other matrices."""
    p, q, k = prior.p, prior.q, min(prior.p, prior.q)
    W = B.reshape(-1, p, q)
    if p > q:
        W = W.transpose(0, 2, 1)
    np.matmul(W, W.transpose(0, 2, 1), out=prior.gram)
    np.add(prior.gram_diag, prior.tau_sq[:, None], out=prior.gram_diag)
    F = _cholesky(prior.work)
    half_logdet = np.log(_diagonal(F, k)).sum(axis=1)
    if p > q:
        half_logdet += prior.half_logdet_shift
    value = np.where(np.isfinite(half_logdet), -(p + q + 2) * half_logdet,
                     np.nan)
    C = F[:, k:, :k]
    grad = C @ (C.transpose(0, 2, 1) @ W)
    grad *= -(p + q + 2)
    if p > q:
        grad = grad.transpose(0, 2, 1)
    return value.reshape(B.shape[:-2])[()], grad.reshape(B.shape)


def _cholesky(M):
    """Lower Cholesky factors of a stack of matrices, NaN for one that is
    not numerically positive definite.  NumPy factors a matrix with
    infinite entries into non-finite entries, without raising."""
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return np.array([_cholesky(m) for m in M]) if M.ndim > 2 \
            else np.full_like(M, np.nan)


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
