"""Spectral scaled Student prior on p x q matrices.

The unnormalized log-density is -((p+q+2)/2) log det(tau^2 I_p + B B^T),
which is a scaled Student density on each singular value and therefore
shrinks most singular values toward zero.

Its value and gradient come from one batched Cholesky factor per
evaluation, with no solve.  A run allocates the factor once, in its
``PriorStack``, and the kernel writes it with one call of the LAPACK gufunc
``numpy.linalg._umath_linalg.cholesky_lo``, the one ``np.linalg.cholesky``
wraps, skipping that wrapper's per-call checks and fresh output.  The
log-determinant and the gradient computed from the factor are small fresh
arrays.  The gufunc sets a matrix it cannot factor to NaN, raises the
floating-point invalid flag and leaves the other matrices of the stack
alone, so a failed factor costs only its own matrix.  The unchecked kernel returns its
non-finite value as it is; the checked ``log_prior_and_grad`` ignores the
invalid and overflow flags and maps a non-finite value to NaN.
"""

from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

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
    """ValueError unless tau is positive with a finite, nonzero square and
    2 / tau^2 finite: tau^2 enters the Gram diagonal and 2 / tau^2 the
    prior's workspace, so a square that underflows to 0 or overflows, or
    one so small that 2 / tau^2 overflows, gives a NaN prior at B = 0."""
    t = float(tau)            # a Python float overflows without a warning
    if not (t > 0 and 0 < t * t < np.inf and 2.0 / (t * t) < np.inf):
        raise ValueError(f"tau must be positive with a finite, nonzero "
                         f"square and 2 / tau^2 finite, not {tau!r}")


@dataclass(frozen=True)
class PriorConfig:
    tau: float
    p: int
    q: int

    def __post_init__(self):
        check_tau(self.tau)
        if self.p < 1 or self.q < 1:
            raise ValueError("p and q must be positive")
        # the default step size is at most 0.5 / curvature; where that is 0
        # or subnormal no proposal moves
        if not 0.5 / self.curvature >= np.finfo(float).tiny:
            raise ValueError(
                f"tau = {self.tau!r} is too small for p + q + 2 = "
                f"{self.p + self.q + 2}: (p + q + 2) / tau^2 must be finite "
                f"and 0.5 tau^2 / (p + q + 2) a normal double")

    @property
    def curvature(self):
        """The prior's curvature at B = 0, (p + q + 2) / tau^2: the bound
        that ``posterior.default_step_size`` takes for it."""
        return (self.p + self.q + 2) / float(self.tau) ** 2


@dataclass(frozen=True)
class PriorStack:
    """The priors of R matrices on one (p, q), one tau each, and what a run
    computes once: tau^2 as a column, half the p > q log-determinant term,
    (p - q) log tau, and the two matrices that each
    ``stack_log_prior_and_grad`` overwrites.  With k = min(p, q) these are
    the matrix it factors, with views of its Gram block M and of M's
    diagonal, and the factor, with views of its top-left diagonal, of its
    lower-left block C = chol(M)^{-T} and of C^T."""

    p: int
    q: int
    tau_sq: np.ndarray            # (R, 1)
    half_logdet_shift: np.ndarray  # (R,)
    work: np.ndarray              # (R, 2k, 2k)
    gram: np.ndarray              # (R, k, k) view of work
    gram_diag: np.ndarray         # (R, k) view of work
    factor: np.ndarray            # (R, 2k, 2k)
    factor_diag: np.ndarray       # (R, k) view of factor
    lower: np.ndarray             # (R, k, k) view of factor, C
    lower_t: np.ndarray           # (R, k, k) view of factor, C^T


def stack_priors(cfgs):
    """The PriorStack of a list of PriorConfig that share p and q."""
    p, q = cfgs[0].p, cfgs[0].q
    R, k = len(cfgs), min(p, q)
    tau_sq = np.array([[c.tau ** 2] for c in cfgs])
    work = np.zeros((R, 2 * k, 2 * k))
    work[:, :k, k:] = work[:, k:, :k] = np.eye(k)
    work[:, k:, k:] = np.eye(k) * (2.0 / tau_sq[:, :, None])
    factor = np.zeros_like(work)
    lower = factor[:, k:, :k]
    return PriorStack(p, q, tau_sq,
                      np.array([(p - q) * np.log(c.tau) for c in cfgs]),
                      work, work[:, :k, :k], _diagonal(work, k), factor,
                      _diagonal(factor, k), lower, lower.transpose(0, 2, 1))


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
    or a PriorStack with one tau per matrix of an (R, p, q) stack.  A matrix
    whose factor fails, far out in the tails, gets a NaN value, without a
    warning."""
    B, cfg = checked_stack(B, cfg)
    with np.errstate(invalid="ignore", over="ignore"):
        value, grad = stack_log_prior_and_grad(B.reshape(-1, cfg.p, cfg.q),
                                               cfg)
    value = np.where(np.isfinite(value), value, np.nan)
    return value.reshape(B.shape[:-2])[()], grad.reshape(B.shape)


def stack_log_prior_and_grad(B, prior):
    """``log_prior_and_grad`` unchecked, for a stack B (R, p, q) and its
    PriorStack, as fresh arrays of shapes (R,) and (R, p, q).  With W = B
    on the smaller Gram side and M = tau^2 I + W W^T, one Cholesky factor
    of [[M, I], [I, (2 / tau^2) I]] gives both pieces: its top-left block is
    chol(M), and its lower-left block C = chol(M)^{-T} makes M^{-1} W = C
    (C^T W).  The factor exists whenever chol(M) does, as the Schur
    complement (2 / tau^2) I - M^{-1} is at least I / tau^2.  The factor is
    written into the stack's buffer by one gufunc call.  A Gram matrix that
    overflows or is not numerically positive definite gets a non-finite
    value, and raises the invalid or overflow flag, without touching the
    other matrices."""
    p, q = prior.p, prior.q
    W = B.transpose(0, 2, 1) if p > q else B
    np.matmul(W, B if p > q else B.transpose(0, 2, 1), out=prior.gram)
    np.add(prior.gram_diag, prior.tau_sq, out=prior.gram_diag)
    _umath_linalg.cholesky_lo(prior.work, out=prior.factor)
    value = np.add.reduce(np.log(prior.factor_diag), axis=1)
    if p > q:
        value += prior.half_logdet_shift
    value *= -(p + q + 2)
    grad = prior.lower @ (prior.lower_t @ W)
    grad *= -(p + q + 2)
    return value, grad.transpose(0, 2, 1) if p > q else grad


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
