"""Synthetic low-rank truths, design matrices and data generation."""

import configparser
import os
from dataclasses import dataclass

import numpy as np

from .families import (Dataset, FamilySpec, sample_response,
                       theta_raw_from_eta)


@dataclass
class SyntheticTruth:
    """Exact-rank true coefficient matrix plus generation diagnostics."""

    b0: np.ndarray
    rank: int
    scale: float
    eta_min: float = np.nan
    eta_max: float = np.nan
    theta_clip_events: int = 0

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
        return SyntheticTruth(np.zeros((p, q)), 0, scale)
    for _ in range(100):
        U = rng.standard_normal((p, r))
        V = rng.standard_normal((q, r))
        B0 = scale * U @ V.T
        s = np.linalg.svd(B0, compute_uv=False)
        if s[r - 1] > 1e-10 * max(1.0, s[0]):
            return SyntheticTruth(B0, r, scale)
    raise RuntimeError("could not draw a full-rank factor pair")


def make_design(n, p, mode, rng):
    """Design matrix: 'iid' standard normal or 'normalized' columns (norm sqrt(n))."""
    if n < 1 or p < 1:
        raise ValueError("n and p must be >= 1")
    X = rng.standard_normal((n, p))
    if mode == "normalized":
        X *= np.sqrt(n) / np.linalg.norm(X, axis=0, keepdims=True)
    elif mode != "iid":
        raise ValueError(f"unknown design mode {mode!r}")
    return X


def calibrate_scale(X, truth, eta_cap=3.0, quantile=0.99):
    """Rescale the truth so that |eta| <= eta_cap at the given quantile."""
    if truth.rank == 0:
        return truth
    eta = X @ truth.b0
    level = np.quantile(np.abs(eta), quantile)
    if level > 0:
        factor = eta_cap / level
        truth.b0 = truth.b0 * factor
        truth.scale = truth.scale * factor
    return truth


def generate_dataset(X, truth, spec, rng):
    """Sample Y_ij from the family at theta(eta_ij), counting clip events."""
    X = np.asarray(X, dtype=float)
    if X.shape[1] != truth.b0.shape[0]:
        raise ValueError("X and truth shapes do not conform")
    eta = X @ truth.b0
    raw = theta_raw_from_eta(spec, eta)
    theta = np.clip(raw, spec.theta_min, spec.theta_max)
    truth.eta_min = float(eta.min())
    truth.eta_max = float(eta.max())
    truth.theta_clip_events = int(np.sum(raw != theta))
    Y = sample_response(spec, theta, rng)
    return Dataset(X=X, Y=Y, family=spec)


def compute_kappa(X):
    """Restricted eigenvalue constant sigma_min(X) / sqrt(n); 0 when n < p."""
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    if n < p:
        return 0.0
    s = np.linalg.svd(X, compute_uv=False)
    return float(s[-1] / np.sqrt(n))


def prediction_error(X, B_hat, B0):
    """||X (B_hat - B0)||_F^2 / (nq)."""
    X = np.asarray(X, dtype=float)
    diff = np.asarray(B_hat, dtype=float) - np.asarray(B0, dtype=float)
    if X.shape[1] != diff.shape[0]:
        raise ValueError("shape mismatch")
    n, q = X.shape[0], diff.shape[1]
    return float(np.sum((X @ diff) ** 2) / (n * q))


# ---------------------------------------------------------------------------
# dataset persistence: X.csv, Y.csv plus an INI meta file


def write_matrix(path, M):
    """One CSV line per row, each value as %.17g (round-trips float64)."""
    with open(path, "w") as fh:
        for row in np.atleast_2d(M):
            fh.write(",".join("%.17g" % v for v in row))
            fh.write("\n")


def _read_matrix(path):
    return np.loadtxt(path, delimiter=",", ndmin=2)


def save_dataset(dirpath, data, seed=None):
    os.makedirs(dirpath, exist_ok=True)
    write_matrix(os.path.join(dirpath, "X.csv"), data.X)
    write_matrix(os.path.join(dirpath, "Y.csv"), data.Y)
    meta = configparser.ConfigParser()
    spec = data.family
    meta["family"] = {
        "family": spec.family,
        "a": "%.17g" % spec.a,
        "k": "%.17g" % spec.k,
        "theta_lo": "%.17g" % spec.theta_lo,
        "theta_hi": "%.17g" % spec.theta_hi,
        "clip_margin": "%.17g" % spec.clip_margin,
    }
    if seed is not None:
        meta["provenance"] = {"seed": str(seed)}
    with open(os.path.join(dirpath, "meta.ini"), "w") as fh:
        meta.write(fh)


def load_dataset(dirpath):
    meta = configparser.ConfigParser()
    with open(os.path.join(dirpath, "meta.ini")) as fh:
        meta.read_file(fh)
    fam = meta["family"]
    spec = FamilySpec(
        family=fam["family"],
        a=float(fam["a"]),
        k=float(fam["k"]),
        theta_lo=float(fam["theta_lo"]),
        theta_hi=float(fam["theta_hi"]),
        clip_margin=float(fam["clip_margin"]),
    )
    X = _read_matrix(os.path.join(dirpath, "X.csv"))
    Y = _read_matrix(os.path.join(dirpath, "Y.csv"))
    return Dataset(X=X, Y=Y, family=spec)
