"""Synthetic low-rank truths, design matrices and data generation.

A ``SyntheticTruth`` is frozen: ``calibrate_scale`` returns a rescaled copy.
``prediction_error`` works through X^T X, for one matrix or a stack.
"""

from dataclasses import dataclass, replace

import numpy as np

from .families import Dataset, sample_response, theta_from_eta

DESIGN_MODES = ("iid", "normalized")
ETA_CAP = 3.0                 # calibrate_scale's level of |eta|
ETA_QUANTILE = 0.99           # the quantile of |eta| set to ETA_CAP


@dataclass(frozen=True)
class SyntheticTruth:
    """Exact-rank true coefficient matrix and its rank."""

    b0: np.ndarray
    rank: int

    @property
    def frob(self):
        return float(np.linalg.norm(self.b0))


def make_low_rank_truth(p, q, r, scale, rng):
    """B0 = scale * U V^T with iid normal p x r and q x r factors.

    The result has exact rank r; degenerate draws are re-drawn.
    """
    if not 0 <= r <= min(p, q):
        raise ValueError(f"rank {r} invalid for a {p} x {q} matrix")
    if r == 0:
        return SyntheticTruth(np.zeros((p, q)), 0)
    for _ in range(100):
        U = rng.standard_normal((p, r))
        V = rng.standard_normal((q, r))
        B0 = scale * U @ V.T
        s = np.linalg.svd(B0, compute_uv=False)
        if s[r - 1] > 1e-10 * max(1.0, s[0]):
            return SyntheticTruth(B0, r)
    raise RuntimeError("could not draw a full-rank factor pair")


def make_design(n, p, mode, rng):
    """Design matrix: 'iid' standard normal or 'normalized' columns (norm sqrt(n))."""
    if n < 1 or p < 1:
        raise ValueError("n and p must be >= 1")
    if mode not in DESIGN_MODES:
        raise ValueError(f"unknown design mode {mode!r}")
    X = rng.standard_normal((n, p))
    if mode == "normalized":
        X *= np.sqrt(n) / np.linalg.norm(X, axis=0, keepdims=True)
    return X


def calibrate_scale(X, truth):
    """The truth rescaled so that |eta| <= ETA_CAP at quantile ETA_QUANTILE
    (itself when that quantile is 0, as for a rank-0 truth)."""
    level = np.quantile(np.abs(X @ truth.b0), ETA_QUANTILE)
    if not level > 0:
        return truth
    return replace(truth, b0=truth.b0 * (ETA_CAP / level))


def generate_dataset(X, truth, spec, rng):
    """Sample Y_ij from the family at the clipped theta(eta_ij)."""
    X = np.asarray(X, dtype=float)
    if X.shape[1] != truth.b0.shape[0]:
        raise ValueError("X and truth shapes do not conform")
    Y = sample_response(spec, theta_from_eta(spec, X @ truth.b0), rng)
    return Dataset(X=X, Y=Y, family=spec)


def compute_kappa(X):
    """Restricted eigenvalue constant sigma_min(X) / sqrt(n); 0 when n < p."""
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    if n < p:
        return 0.0
    s = np.linalg.svd(X, compute_uv=False)
    return float(s[-1] / np.sqrt(n))


def prediction_error(X, B, B0):
    """||X (B - B0)||_F^2 / (nq) of one (p, q) matrix B, as a float, or of
    each matrix of a stack (..., p, q), as an array; computed as
    <B - B0, X^T X (B - B0)>, so no n x q product is formed."""
    X = np.asarray(X, dtype=float)
    diff = np.asarray(B, dtype=float) - np.asarray(B0, dtype=float)
    if X.shape[1] != diff.shape[-2]:
        raise ValueError("shape mismatch")
    n, q = X.shape[0], diff.shape[-1]
    err = (((X.T @ X) @ diff) * diff).sum(axis=(-2, -1)) / (n * q)
    return float(err) if diff.ndim == 2 else err
