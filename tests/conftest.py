import numpy as np
import pytest

from frrr.families import FamilySpec


def bounded_specs():
    """One bounded-interval configuration per family, suitable for every
    lemma (finite C_U, positive C_L, finite U_1)."""
    return {
        "gaussian": FamilySpec("gaussian", theta_lo=-3.0, theta_hi=3.0),
        "bernoulli_logit": FamilySpec("bernoulli_logit",
                                      theta_lo=-2.0, theta_hi=2.0),
        "bernoulli_probit": FamilySpec("bernoulli_probit",
                                       theta_lo=-2.0, theta_hi=2.0),
        "poisson_log": FamilySpec("poisson_log", theta_lo=-1.0, theta_hi=1.0),
        "gamma_log": FamilySpec("gamma_log", a=0.5,
                                theta_lo=-5.0, theta_hi=-0.2),
        "negbin_log": FamilySpec("negbin_log", k=2.0,
                                 theta_lo=-3.0, theta_hi=-0.1),
    }


def default_specs():
    """Per-family specs on (mostly) unbounded intervals for link/gradient work."""
    return {
        "gaussian": FamilySpec("gaussian"),
        "bernoulli_logit": FamilySpec("bernoulli_logit"),
        "bernoulli_probit": FamilySpec("bernoulli_probit"),
        "poisson_log": FamilySpec("poisson_log"),
        "gamma_log": FamilySpec("gamma_log", a=0.5),
        "negbin_log": FamilySpec("negbin_log", k=2.0),
    }


def central_diff(f, x, h=1e-6):
    """Entrywise central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp, xm = x.copy(), x.copy()
        xp[idx] += h
        xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2.0 * h)
    return g


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
