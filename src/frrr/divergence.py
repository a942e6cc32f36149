"""Closed-form divergences, the lemma right-hand sides and rate formulas.

Per-entry KL and alpha-Renyi divergences have closed forms in the natural
parameter; product-measure divergences are their sums.  Theorem-facing
quantities use the per-entry-averaged convention (the 1/(nq) factor the
proofs insert); totals are exposed alongside.

The KL, the log-ratio second moment and the misspecified-KL left-hand side
share one per-entry core, ``_log_ratio_mean``; ``lemma_rhs`` alone writes
the lemma right-hand sides.  ``rate_formulas`` gives the rates the studies
compare with: epsilon_n of Theorems 1 and 3 and r_n of Theorem 2.

The test suite checks the closed forms against brute-force oracles built on
``scipy``'s frozen laws (``tests/oracles.py``); the library needs no such law.
"""

from dataclasses import dataclass

import numpy as np

from .families import b_prime, b_second, b_value, _check_domain

RENYI_ORDERS = (0.25, 0.5, 0.75)   # Renyi orders of reports and lemma sweeps


def _log_ratio_mean(spec, theta0, theta, zeta):
    """a E_theta0 log(p_theta / p_zeta) = b'(theta0)(theta - zeta) - b(theta) + b(zeta)."""
    theta, zeta = np.asarray(theta, dtype=float), np.asarray(zeta, dtype=float)
    return (b_prime(spec, theta0) * (theta - zeta)
            - b_value(spec, theta) + b_value(spec, zeta))


def kl_per_entry(spec, theta, zeta):
    """KL(P_theta || P_zeta) = [b'(theta)(theta - zeta) - b(theta) + b(zeta)] / a."""
    return np.maximum(_log_ratio_mean(spec, theta, theta, zeta) / spec.a, 0.0)


def renyi_per_entry(spec, theta, zeta, alpha):
    """alpha-Renyi divergence via convexity of b over the interval domain:

    D_alpha = [alpha b(theta) + (1-alpha) b(zeta) - b(alpha theta + (1-alpha) zeta)]
              / (a (1-alpha)).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    theta = _check_domain(spec, theta)
    zeta = _check_domain(spec, zeta)
    mix = alpha * theta + (1.0 - alpha) * zeta
    val = (alpha * b_value(spec, theta) + (1.0 - alpha) * b_value(spec, zeta)
           - b_value(spec, mix)) / (spec.a * (1.0 - alpha))
    return np.maximum(val, 0.0)


def hellinger_sq(d_half):
    """Squared Hellinger distance 2(1 - exp(-D_{1/2}/2)) from D_{1/2}."""
    return 2.0 * (1.0 - np.exp(-0.5 * d_half))


@dataclass
class DivergenceReport:
    """KL/Renyi/Hellinger/TV quantities in both normalizations.

    ``hellinger_sq`` is computed from the total D_{1/2} of the product law;
    TV bounds come from the scalar inequalities linking TV to D_alpha and H^2.
    """

    n_entries: int
    kl_avg: float
    kl_total: float
    renyi_avg: dict
    renyi_total: dict
    hellinger_sq: float
    tv_lower: float
    tv_upper: float


def divergence_report(spec, Theta, Zeta, alphas=RENYI_ORDERS):
    """Divergences between the product laws at parameter matrices Theta, Zeta,
    which must have the same shape, at least one entry and finite entries."""
    Theta = np.asarray(Theta, dtype=float)
    Zeta = np.asarray(Zeta, dtype=float)
    if Theta.shape != Zeta.shape:
        raise ValueError("Theta and Zeta shapes differ")
    if Theta.size == 0:
        raise ValueError("Theta and Zeta have no entries")
    if not (np.isfinite(Theta).all() and np.isfinite(Zeta).all()):
        raise ValueError("Theta and Zeta must have finite entries")
    m = Theta.size
    kl_tot = float(np.sum(kl_per_entry(spec, Theta, Zeta)))
    renyi_tot = {a: float(np.sum(renyi_per_entry(spec, Theta, Zeta, a)))
                 for a in alphas}
    d_half = renyi_tot.get(0.5)
    if d_half is None:
        d_half = float(np.sum(renyi_per_entry(spec, Theta, Zeta, 0.5)))
    hell_sq = hellinger_sq(d_half)
    tv_upper = min(1.0, min(np.sqrt(2.0 * renyi_tot[a] / a) for a in renyi_tot))
    tv_lower = hell_sq / 2.0
    return DivergenceReport(
        n_entries=m,
        kl_avg=kl_tot / m,
        kl_total=kl_tot,
        renyi_avg={a: v / m for a, v in renyi_tot.items()},
        renyi_total=renyi_tot,
        hellinger_sq=float(hell_sq),
        tv_lower=float(tv_lower),
        tv_upper=float(tv_upper),
    )


# ---------------------------------------------------------------------------
# lemma bound quantities


@dataclass(frozen=True)
class LemmaBounds:
    """Right-hand sides of the four divergence lemmas, averaged convention."""

    kl_upper: float            # (C_U / 2a) ||zeta - theta||_F^2 / (nq)
    renyi_lower: float         # (alpha C_L / 2a) ||theta - zeta||_F^2 / (nq)
    logsq_upper: float         # (C_U / a) ||theta - zeta||_F^2 / (nq)
                               # + (C_U^2 / 4a^2) ||zeta - theta||_F^4 / (nq)
    misspec_kl: float          # (2 U_1 / a) ||zeta - theta||_F / sqrt(nq)


def lemma_rhs(bounds, a, sq, m, alpha=1.0):
    """Lemma right-hand sides from the squared gap ``sq`` = ||zeta - theta||_F^2
    over ``m`` entries.  ``sq`` may be an array of per-trial gaps (m = 1).

    The Renyi lower bound carries the order alpha as a prefactor: strong
    convexity of b gives a Jensen gap of at least alpha(1-alpha) C_L d^2 / 2,
    so D_alpha >= alpha C_L d^2 / (2a), with equality for gaussian.  At
    alpha = 1 (the default) this reduces to the KL lower bound.
    """
    return LemmaBounds(
        kl_upper=bounds.c_u / (2.0 * a) * sq / m,
        renyi_lower=alpha * bounds.c_l / (2.0 * a) * sq / m,
        logsq_upper=(bounds.c_u / a * sq / m
                     + bounds.c_u ** 2 / (4.0 * a ** 2) * sq ** 2 / m),
        misspec_kl=2.0 * bounds.u_1 / a * np.sqrt(sq) / np.sqrt(m),
    )


def log_ratio_sq_per_entry(spec, theta, zeta):
    """Second moment of the log likelihood ratio under P_theta, per entry.

    Uses E Y^2 = b'(theta)^2 + a b''(theta), giving
    [a b''(theta) d^2 + (b'(theta) d - b(theta) + b(zeta))^2] / a^2
    with d = theta - zeta.
    """
    theta, zeta = np.asarray(theta, dtype=float), np.asarray(zeta, dtype=float)
    return (spec.a * b_second(spec, theta) * (theta - zeta) ** 2
            + _log_ratio_mean(spec, theta, theta, zeta) ** 2) / spec.a ** 2


def misspec_kl_per_entry(spec, theta0, theta_bar, zeta):
    """E_theta0 log(p_theta_bar / p_zeta) per entry, the misspecified-lemma LHS."""
    return _log_ratio_mean(spec, theta0, theta_bar, zeta) / spec.a


# ---------------------------------------------------------------------------
# rate formulas


def _log_term(r, p, q, scale, denom_sq):
    """2r (q+p+2) log(1 + scale / sqrt(denom_sq * r)), 0 at r = 0 by
    convention."""
    if r == 0:
        return 0.0
    return 2.0 * r * (q + p + 2) * np.log1p(scale / np.sqrt(denom_sq * r))


@dataclass(frozen=True)
class RateFormulas:
    epsilon_n_thm1: float
    epsilon_n_thm3: float
    r_n: float


def rate_formulas(n, p, q, r, a, bounds, x_frob, b_frob):
    """Contraction-rate quantities for the given problem constants.

    ``b_frob`` is the Frobenius norm of the true matrix (or of the KL
    minimizer for r_n), ``r`` its rank; ``bounds`` carries C_U and U_1.
    """
    if min(n, p, q) < 1 or r < 0 or a <= 0 or x_frob < 0 or b_frob < 0:
        raise ValueError("invalid rate-formula inputs")
    c_u, u_1 = bounds.c_u, bounds.u_1
    scale = x_frob * b_frob * np.sqrt(q * p)
    eps1 = c_u * _log_term(r, p, q, scale, 4.0 * a) / (n * q)
    eps3 = max(c_u ** 2 / (4.0 * n * q),
               c_u * _log_term(r, p, q, scale, 2.0 * a) / (n * q))
    rn_scale = x_frob * b_frob * 2.0 * np.sqrt(n * q) * np.sqrt(p * q) / a
    r_n = u_1 * _log_term(r, p, q, rn_scale, 2.0) / (n * q)
    return RateFormulas(
        epsilon_n_thm1=float(eps1),
        epsilon_n_thm3=float(eps3),
        r_n=float(r_n),
    )


def c_alpha(alpha):
    """Piecewise Hellinger constant: 2(1+a)/(1-a) on [0.5, 1), 2(1+a)/a below."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if alpha >= 0.5:
        return 2.0 * (alpha + 1.0) / (1.0 - alpha)
    return 2.0 * (alpha + 1.0) / alpha
