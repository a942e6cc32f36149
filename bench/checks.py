"""Output checks for the benchmark, computed apart from frrr.

Nothing here imports frrr: the log-posterior is recomputed from the paper's
formulas with NumPy/SciPy, and the chain file is parsed from its documented
layout.  Each check returns ``(problems, acceptance, failed)``: an empty
list means the outputs passed, and ``failed`` is the number of operations
(fit calls or replicate chains) that the problems fall on.
"""

import csv
import json
import os
import struct

import numpy as np
from scipy.special import log_ndtr

CHAIN_MAGIC = b"FRRRCHN1"
LOG_POST_RTOL = 1e-9
BHAT_RTOL = 1e-12
ACCEPTANCE_RANGE = (0.1, 0.9)
SLOPE_RANGE = (-1.2, -0.8)


def read_chain(path):
    """Samples (m, p, q) from a chain file: magic, int32 p, q, m, float64
    alpha, gamma, then the row-major float64 sample matrices."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:8] != CHAIN_MAGIC:
        raise ValueError(f"{path}: not a chain file")
    p, q, m = struct.unpack_from("<iii", raw, 8)
    return np.frombuffer(raw, dtype="<f8", count=m * p * q,
                         offset=36).reshape(m, p, q)


def log_posterior(family, X, Y, samples, alpha, a=1.0):
    """alpha * log-likelihood + spectral Student log-prior for each sample.

    Gaussian: sum(Y * XB - (XB)^2 / 2) / a.  Probit:
    sum(Y log Phi(XB) + (1 - Y) log Phi(-XB)).  Prior:
    -(p+q+2)/2 log det(tau^2 I_p + B B^T), with the theorem-1 scale
    tau^2 = 2a / (q p ||X||_F^2).
    """
    if family == "gaussian":
        def loglik(eta):
            return np.sum(Y * eta - eta ** 2 / 2.0) / a
    elif family == "bernoulli_probit":
        def loglik(eta):
            return np.sum(Y * log_ndtr(eta) + (1.0 - Y) * log_ndtr(-eta))
    else:
        raise ValueError(f"no reference log-likelihood for {family!r}")
    # One n x q predictor at a time, so that the check's own memory stays
    # far below the program's and does not set the process's peak RSS.
    ll = np.array([loglik(X @ B) for B in samples])
    p, q = samples.shape[1:]
    tau2 = 2.0 * a / (q * p * np.sum(X ** 2))
    gram = tau2 * np.eye(p) + samples @ samples.transpose(0, 2, 1)
    _, logdet = np.linalg.slogdet(gram)
    return alpha * ll - 0.5 * (p + q + 2) * logdet


def acceptance_problem(what, rate):
    lo, hi = ACCEPTANCE_RANGE
    if not lo < rate < hi:
        return f"{what}: acceptance {rate} outside ({lo}, {hi})"
    return None


def check_fit(out_dir, data_dir, family, alpha):
    """chain.bin, its sidecar log_post, bhat.csv and fit_summary.json."""
    X = np.loadtxt(os.path.join(data_dir, "X.csv"), delimiter=",", ndmin=2)
    Y = np.loadtxt(os.path.join(data_dir, "Y.csv"), delimiter=",", ndmin=2)
    samples = read_chain(os.path.join(out_dir, "chain.bin"))
    side = np.loadtxt(os.path.join(out_dir, "chain.bin.csv"), delimiter=",",
                      skiprows=1, ndmin=2)
    bhat = np.loadtxt(os.path.join(out_dir, "bhat.csv"), delimiter=",",
                      ndmin=2)
    with open(os.path.join(out_dir, "fit_summary.json")) as fh:
        summary = json.load(fh)

    problems = []
    m = len(samples)
    if m < 2 or side.shape[0] != m or summary.get("n_retained") != m:
        return [f"fit: {m} samples, {side.shape[0]} log_post rows, "
                f"n_retained {summary.get('n_retained')}"], float("nan"), 1
    want = log_posterior(family, X, Y, samples, alpha)
    err = np.max(np.abs(side[:, 1] - want) / np.maximum(1.0, np.abs(want)))
    if not err <= LOG_POST_RTOL:
        problems.append(f"fit: log_post differs from the formula by {err:.3g}")
    mean = samples.mean(axis=0)
    if bhat.shape != mean.shape or not np.all(
            np.abs(bhat - mean) <= BHAT_RTOL * (1.0 + np.max(np.abs(mean)))):
        problems.append("fit: bhat.csv is not the mean of the chain samples")
    acceptance = float(summary["acceptance_rate"])
    problems.append(acceptance_problem("fit", acceptance))
    if np.all(samples == samples[0]):
        problems.append("fit: all retained samples are identical")
    problems = [p for p in problems if p]
    return problems, acceptance, int(bool(problems))


def loglog_slope(ns, errs):
    x, y = np.log(ns), np.log(errs)
    return float(np.sum((x - x.mean()) * (y - y.mean()))
                 / np.sum((x - x.mean()) ** 2))


def check_rate_study(out_dir, n_grid, replications):
    """rate_cells.csv against the 1/n rate and the Proposition-1 bound."""
    chains = len(n_grid) * replications
    with open(os.path.join(out_dir, "rate_cells.csv")) as fh:
        rows = list(csv.DictReader(fh))
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    try:
        cells = {}
        for row in rows:
            cells.setdefault(int(row["n"]), []).append(row)
        pred = {n: np.array([float(r["pred_err"]) for r in rs])
                for n, rs in cells.items()}
        bound = {n: {float(r["prop1_bound"]) for r in rs}
                 for n, rs in cells.items()}
        acc = np.array([float(r["acceptance"]) for r in rows])
    except (KeyError, ValueError) as exc:
        return ([f"rate-study: unreadable rate_cells.csv: {exc}"],
                float("nan"), chains)
    counts = {n: len(rs) for n, rs in cells.items()}
    if counts != {n: replications for n in n_grid}:
        return ([f"rate-study: replicates per n {counts} instead of "
                 f"{replications} at each n in {n_grid}"], float("nan"),
                chains)

    problems = []
    ns = sorted(cells)
    means = [float(np.mean(pred[n])) for n in ns]
    if not all(np.isfinite(means)) or not all(
            b > a for a, b in zip(means[1:], means[:-1])):
        problems.append(f"rate-study: mean pred_err {means} does not fall "
                        f"strictly over n {ns}")
    slope = loglog_slope(ns, means)
    lo, hi = SLOPE_RANGE
    if not lo <= slope <= hi:
        problems.append(f"rate-study: log-log slope {slope:.3f} outside "
                        f"[{lo}, {hi}]")
    if not abs(float(summary["slope"]) - slope) <= 1e-9:
        problems.append(f"rate-study: summary slope {summary['slope']} "
                        f"differs from the cells' slope {slope}")
    for n, mean in zip(ns, means):
        (b,) = bound[n] if len(bound[n]) == 1 else (float("nan"),)
        if not mean <= b:
            problems.append(f"rate-study: n={n} mean pred_err {mean} above "
                            f"prop1_bound {sorted(bound[n])}")
    chain_problems = [acceptance_problem(f"rate-study chain {i}", rate)
                      for i, rate in enumerate(acc)]
    chain_problems = [p for p in chain_problems if p]
    # A study-wide problem fails every chain; otherwise only the chains
    # whose own acceptance is out of range fail.
    failed = chains if problems else len(chain_problems)
    return problems + chain_problems, float(np.mean(acc)), failed
