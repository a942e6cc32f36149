"""Brute-force oracles for the closed-form divergences of ``frrr.divergence``.

Each law is a frozen ``scipy.stats`` distribution whose mean comes from
``expit`` or ``exp`` of the natural parameter, never from frrr's cumulant
b(theta), so a closed form is checked against a computation that shares no
code with it: direct summation over a truncated outcome range for discrete
laws, a composite Gauss-Legendre rule for continuous ones.

``kl_bruteforce`` and ``renyi_bruteforce`` take m parameter pairs as two
1-D arrays and handle all of them in one call: one frozen law per side,
built on (m, 1) parameter columns, evaluated on one outcome range shared by
every pair (discrete) or on each pair's own quadrature nodes, an (m, 4096)
array (continuous).  ``renyi_bruteforce`` takes all orders at once as well.
"""

import itertools

import numpy as np
from scipy import stats
from scipy.special import expit

COUNT_TAIL = 1e-10        # outcome mass a truncated count support may miss
MAX_OUTCOMES = 1 << 14    # largest product outcome space tv_bruteforce sums
PANELS = NODES = 64       # Gauss-Legendre panels, and nodes per panel


def _entry_dist(spec, theta):
    """The family's frozen law at natural parameter(s) ``theta``."""
    f = spec.law
    if f == "bernoulli":
        return stats.bernoulli(expit(theta))
    if f == "poisson":
        return stats.poisson(np.exp(theta))
    if f == "negbin":
        return stats.nbinom(spec.k, 1.0 - np.exp(theta))
    if f == "gaussian":
        return stats.norm(theta, np.sqrt(spec.a))
    return stats.gamma(1.0 / spec.a, scale=-spec.a / theta)


def _count_support(spec, d1, d2):
    """One truncated outcome range certified to miss < COUNT_TAIL of every
    law in the frozen laws d1 and d2."""
    if spec.law == "bernoulli":
        return np.arange(2)
    top = 1.0 - COUNT_TAIL / 10
    hi = int(max(np.max(d1.ppf(top)), np.max(d2.ppf(top)))) + 10
    assert np.all(d1.sf(hi) < COUNT_TAIL) and np.all(d2.sf(hi) < COUNT_TAIL)
    return np.arange(hi + 1)


def _log_densities(spec, theta, zeta):
    """Both laws' log densities for each pair, one row per pair, and the
    weights that turn a row sum into a sum or an integral over outcomes.

    Discrete laws share one outcome range, with unit weights.  Continuous
    laws are evaluated at the nodes of each pair's composite Gauss-Legendre
    rule: PANELS equal panels of NODES nodes over the union of the two
    laws' 1e-14 to 1 - 1e-14 quantile ranges.
    """
    d1 = _entry_dist(spec, theta[:, None])
    d2 = _entry_dist(spec, zeta[:, None])
    if spec.is_discrete:
        ys = _count_support(spec, d1, d2)
        return d1.logpmf(ys), d2.logpmf(ys), np.ones(len(ys))
    lo = np.minimum(d1.ppf(1e-14), d2.ppf(1e-14))
    hi = np.maximum(d1.ppf(1.0 - 1e-14), d2.ppf(1.0 - 1e-14))
    x, w = np.polynomial.legendre.leggauss(NODES)
    half = 0.5 * (hi - lo) / PANELS
    y = lo + half * (2.0 * np.arange(PANELS)[:, None] + 1.0 + x).ravel()
    return d1.logpdf(y), d2.logpdf(y), half * np.tile(w, PANELS)


def kl_bruteforce(spec, theta, zeta):
    """Per-entry KL(P_theta || P_zeta) for each pair, by direct summation
    (discrete) or quadrature (continuous)."""
    log1, log2, w = _log_densities(spec, theta, zeta)
    p = np.exp(log1)
    return np.sum(w * np.where(p > 0, p * (log1 - log2), 0.0), axis=1)


def renyi_bruteforce(spec, theta, zeta, alphas):
    """Per-entry alpha-Renyi divergence for each pair at each order in
    ``alphas``, one row per order, by direct summation or quadrature; the
    orders share one evaluation of the densities."""
    log1, log2, w = _log_densities(spec, theta, zeta)
    al = np.asarray(alphas, dtype=float)[:, None, None]
    val = np.sum(w * np.exp(al * log1 + (1.0 - al) * log2), axis=-1)
    return np.log(val) / (al[:, 0] - 1.0)


def tv_bruteforce(spec, Theta, Zeta):
    """Total variation of the product law by outcome-space enumeration.

    Supported: discrete families with a product outcome space of at most
    MAX_OUTCOMES, and the single-cell gaussian closed form.  Anything else
    raises.
    """
    Theta = np.asarray(Theta, dtype=float).ravel()
    Zeta = np.asarray(Zeta, dtype=float).ravel()
    if spec.law == "gaussian":
        if Theta.size != 1:
            raise ValueError("gaussian TV supported only for a single cell")
        gap = abs(Theta[0] - Zeta[0]) / (2.0 * np.sqrt(spec.a))
        return float(2.0 * stats.norm.cdf(gap) - 1.0)
    if not spec.is_discrete:
        raise ValueError(f"TV enumeration unsupported for {spec.family}")
    laws = [(_entry_dist(spec, t), _entry_dist(spec, z))
            for t, z in zip(Theta, Zeta)]
    supports = [_count_support(spec, d1, d2) for d1, d2 in laws]
    total = np.prod([len(s) for s in supports])
    if total > MAX_OUTCOMES:
        raise ValueError(f"product outcome space too large ({total})")
    logp = [d1.logpmf(s) for (d1, _), s in zip(laws, supports)]
    logq = [d2.logpmf(s) for (_, d2), s in zip(laws, supports)]
    tv = 0.0
    for combo in itertools.product(*(range(len(s)) for s in supports)):
        lp = sum(logp[i][j] for i, j in enumerate(combo))
        lq = sum(logq[i][j] for i, j in enumerate(combo))
        tv += abs(np.exp(lp) - np.exp(lq))
    return float(0.5 * tv)
