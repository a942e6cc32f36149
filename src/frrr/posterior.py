"""Fractional log-posterior, Langevin samplers and the posterior mean.

The target is U(B) = alpha * log-likelihood(B) + log-prior(B) for a
fractional power alpha in (0, 1).  ULA iterates
B <- B + gamma grad U(B) + sqrt(2 gamma) xi; MALA adds a Metropolis-Hastings
correction with the asymmetric Gaussian proposal density.

One kernel, ``value_and_grad``, evaluates U and grad U together: one
eta = X @ B, one pass of the link (theta and d theta / d eta, zero on
clipped cells), one X^T S for the likelihood gradient, and one Cholesky
factor for the prior.  Each sampler step calls it once per proposal; the
separate value and gradient functions below are views of the same kernel.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .families import (b_prime, b_second, b_value, family_bounds,
                       linear_predictor, link_terms, theta_from_eta)
from .prior import log_prior_and_grad

CHAIN_MAGIC = b"FRRRCHN1"
LOG_POST_FLOOR = -1e12        # a lower log-posterior is a diverged chain


class SamplerDivergence(RuntimeError):
    """Log-posterior fell below the floor or became non-finite."""


@dataclass(frozen=True)
class FractionalConfig:
    alpha: float = 0.5
    step_size: float = None   # None -> inverse-smoothness heuristic
    n_steps: int = 10000
    burn_in: int = None       # None -> n_steps // 5
    thin: int = 10
    seed: int = 0
    algorithm: str = "mala"
    init: np.ndarray = None   # None -> zero matrix (the prior mode)

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.step_size is not None and not self.step_size > 0:
            raise ValueError("step_size must be positive")
        if self.n_steps < 1 or self.thin < 1:
            raise ValueError("n_steps and thin must be positive")
        burn = self.n_steps // 5 if self.burn_in is None else self.burn_in
        if not 0 <= burn < self.n_steps:
            raise ValueError("burn_in must satisfy 0 <= burn_in < n_steps")
        object.__setattr__(self, "burn_in", burn)
        if self.algorithm not in ("ula", "mala"):
            raise ValueError("algorithm must be 'ula' or 'mala'")


@dataclass
class Chain:
    """Retained sampler output; all lists share one length."""

    samples: np.ndarray           # (m, p, q)
    log_post: np.ndarray          # (m,)
    accept_flags: np.ndarray      # (m,) bool, all True for ULA
    config: FractionalConfig
    dataset_digest: str
    step_size: float = 0.0        # step size actually used after tuning
    acceptance_rate: float = 1.0

    def __post_init__(self):
        if not (len(self.samples) == len(self.log_post) == len(self.accept_flags)):
            raise ValueError("chain field lengths differ")
        if len(self.log_post) and not np.all(np.isfinite(self.log_post)):
            raise ValueError("non-finite log-posterior in retained samples")


def log_likelihood_and_grad(data, B):
    """Sum of (y theta - b(theta)) / a over all cells, dropping c(y, a), and
    its gradient X^T [(Y - b'(theta)) * dtheta/deta] / a."""
    spec = data.family
    theta, dtheta = link_terms(spec, linear_predictor(data.X, B))
    value = float(np.sum(data.Y * theta - b_value(spec, theta)) / spec.a)
    S = (data.Y - b_prime(spec, theta)) * dtheta
    return value, data.X.T @ S / spec.a


def value_and_grad(data, B, prior_cfg, alpha):
    """alpha * log-likelihood + log-prior and its gradient (alpha = 1 allowed
    for diagnostics)."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    lik, lik_grad = log_likelihood_and_grad(data, B)
    prior, prior_grad = log_prior_and_grad(B, prior_cfg)
    return alpha * lik + prior, alpha * lik_grad + prior_grad


def log_likelihood(data, B):
    """Value of log_likelihood_and_grad."""
    return log_likelihood_and_grad(data, B)[0]


def grad_log_likelihood(data, B):
    """Gradient of log_likelihood_and_grad."""
    return log_likelihood_and_grad(data, B)[1]


def log_fractional_posterior(data, B, prior_cfg, alpha):
    """Value of value_and_grad."""
    return value_and_grad(data, B, prior_cfg, alpha)[0]


def grad_log_fractional_posterior(data, B, prior_cfg, alpha):
    """Gradient of value_and_grad."""
    return value_and_grad(data, B, prior_cfg, alpha)[1]


def default_step_size(data, prior_cfg, alpha, B=None):
    """Conservative inverse of a smoothness bound on the target.

    Where b'' is unbounded on the interval (c_u = inf), its largest value at
    the start point B (the zero matrix by default) stands in for c_u.
    """
    spec = data.family
    c_u = family_bounds(spec).c_u
    if np.isinf(c_u):
        B = np.zeros((prior_cfg.p, prior_cfg.q)) if B is None else B
        theta = theta_from_eta(spec, linear_predictor(data.X, B))
        c_u = float(np.max(b_second(spec, theta), initial=0.0))
    lik_curv = alpha * c_u * np.sum(data.X ** 2) / spec.a
    prior_curv = (prior_cfg.p + prior_cfg.q + 2) / prior_cfg.tau ** 2
    return 0.5 / (lik_curv + prior_curv)


def run_sampler(data, prior_cfg, frac_cfg):
    """Run ULA or MALA on the fractional posterior; deterministic given seed.

    MALA step size is doubled/halved during burn-in targeting acceptance
    around 0.5, then frozen for the retained part of the chain.
    """
    cfg = frac_cfg
    rng = np.random.default_rng(cfg.seed)
    p, q = prior_cfg.p, prior_cfg.q
    B = np.zeros((p, q)) if cfg.init is None else np.array(cfg.init, dtype=float)
    if B.shape != (p, q):
        raise ValueError("init matrix has the wrong shape")

    gamma = cfg.step_size if cfg.step_size is not None else \
        default_step_size(data, prior_cfg, cfg.alpha, B)
    value, grad = value_and_grad(data, B, prior_cfg, cfg.alpha)

    mala = cfg.algorithm == "mala"
    retained, log_posts, flags = [], [], []
    n_acc = n_prop = 0
    window_acc = window_n = 0

    for step in range(cfg.n_steps):
        noise = rng.standard_normal((p, q))
        prop = B + gamma * grad + np.sqrt(2.0 * gamma) * noise
        prop_value, prop_grad = value_and_grad(data, prop, prior_cfg, cfg.alpha)
        if mala:
            fwd = -np.sum((prop - B - gamma * grad) ** 2) / (4.0 * gamma)
            bwd = -np.sum((B - prop - gamma * prop_grad) ** 2) / (4.0 * gamma)
            log_ratio = prop_value - value + bwd - fwd
            accepted = np.isfinite(prop_value) and \
                np.log(rng.random()) < log_ratio
            n_prop += 1
            window_n += 1
            if accepted:
                B, value, grad = prop, prop_value, prop_grad
                n_acc += 1
                window_acc += 1
        else:
            accepted = True
            B, value, grad = prop, prop_value, prop_grad

        if not np.isfinite(value) or value < LOG_POST_FLOOR:
            raise SamplerDivergence(
                f"log-posterior {value} at step {step} (floor {LOG_POST_FLOOR})")

        # step-size tuning, burn-in only so the retained chain has fixed gamma
        if mala and step < cfg.burn_in and window_n >= 50:
            rate = window_acc / window_n
            if rate > 0.6:
                gamma *= 2.0
            elif rate < 0.4:
                gamma *= 0.5
            window_acc = window_n = 0

        if step >= cfg.burn_in and (step - cfg.burn_in) % cfg.thin == 0:
            retained.append(B.copy())
            log_posts.append(value)
            flags.append(bool(accepted))

    m = len(retained)
    return Chain(
        samples=np.array(retained).reshape(m, p, q),
        log_post=np.array(log_posts, dtype=float),
        accept_flags=np.array(flags, dtype=bool),
        config=cfg,
        dataset_digest=data.digest(),
        step_size=gamma,
        acceptance_rate=(n_acc / n_prop) if n_prop else 1.0,
    )


def posterior_mean(chain):
    """Entrywise average of the retained samples."""
    if len(chain.samples) == 0:
        raise ValueError("empty chain")
    return chain.samples.mean(axis=0)


def effective_rank(B):
    """Number of singular values above 1e-3 times the largest."""
    s = np.linalg.svd(np.asarray(B, dtype=float), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > 1e-3 * s[0]))


def save_chain(path, chain):
    """Binary chain file: magic, p, q, count (int32 LE), alpha/gamma (f64),
    then row-major float64 sample matrices.  A sidecar CSV
    (step, log_post, accepted) is written next to it."""
    m = len(chain.samples)
    p, q = chain.samples.shape[1:] if m else (0, 0)
    with open(path, "wb") as fh:
        fh.write(CHAIN_MAGIC)
        fh.write(struct.pack("<iii", p, q, m))
        fh.write(struct.pack("<dd", chain.config.alpha, chain.step_size))
        fh.write(np.ascontiguousarray(chain.samples, dtype="<f8").tobytes())
    with open(str(path) + ".csv", "w") as fh:
        fh.write("step,log_post,accepted\n")
        for i in range(m):
            fh.write("%d,%.17g,%d\n" % (i, chain.log_post[i], chain.accept_flags[i]))


def load_chain(path):
    """Read a chain file and its sidecar CSV back; returns
    (samples, alpha, gamma, log_post, flags).  A missing sidecar raises
    OSError, one whose row count differs from the sample count ValueError."""
    with open(path, "rb") as fh:
        if fh.read(8) != CHAIN_MAGIC:
            raise ValueError("not a chain file")
        p, q, m = struct.unpack("<iii", fh.read(12))
        alpha, gamma = struct.unpack("<dd", fh.read(16))
        samples = np.frombuffer(fh.read(8 * m * p * q), dtype="<f8").reshape(m, p, q)
    side = np.loadtxt(str(path) + ".csv", delimiter=",", skiprows=1)
    side = side.reshape(-1, 3)
    if side.shape[0] != m:
        raise ValueError(f"chain sidecar has {side.shape[0]} rows, "
                         f"expected {m}")
    return samples.copy(), alpha, gamma, side[:, 1], side[:, 2].astype(bool)
