"""Fractional log-posterior, the batched MALA sampler and the posterior mean.

The target is U(B) = alpha * log-likelihood(B) + log-prior(B) for a
fractional power alpha in (0, 1).  MALA proposes
B' = B + gamma grad U(B) + sqrt(2 gamma) xi and accepts it with the
Metropolis-Hastings ratio of the asymmetric Gaussian proposal density.

One kernel, ``value_and_grad``, evaluates U and grad U together, for one
(p, q) matrix or a stack (R, p, q) of them, and names no family.  Where
``families.has_sufficient_statistics`` holds, it skips eta altogether: the
likelihood needs only X^T X and X^T Y, computed once per dataset, so a step
costs the same at every n.  Otherwise it makes one eta = X @ B per matrix,
one call of ``families.log_likelihood_terms`` for each cell's
log-likelihood and its eta-derivative S, and one X^T S for the gradient.
The prior takes one batched Cholesky factor and no solve.  The sampler
checks its start once and then calls the unchecked target ``_target``; the
separate value and gradient functions below are views of the same kernel.

``run_chains`` advances many chains together over an (R, p, q) state: a
study makes one sampler call for the replicates of all its cells, each
chain with its own dataset and prior.  ``run_sampler`` is its one-chain
call.  Each chain keeps its own random stream, step-size tuning,
acceptance count and divergence checks, and is bit-identical to its
one-chain run.
"""

from dataclasses import dataclass

import numpy as np

from .families import (FamilySpec, b_second, family_bounds,
                       has_sufficient_statistics, linear_predictor,
                       link_terms, log_likelihood_terms, theta_from_eta)
from .prior import checked_stack, stack_log_prior_and_grad, stack_priors

LOG_POST_FLOOR = -1e12        # a lower log-posterior is a diverged chain
# Largest n * q * chains that one block of the cell-wise kernel holds: a
# temporary above 128 KiB is mapped afresh on every allocation, and the page
# faults make a wider block slower per chain than a narrower one.
BLOCK_CELLS = 16384
TUNE_WINDOW = 50              # burn-in steps between step-size updates


class SamplerDivergence(RuntimeError):
    """Log-posterior fell below the floor or became non-finite, or a chain
    accepted no proposal after burn-in."""


@dataclass(frozen=True)
class FractionalConfig:
    alpha: float = 0.5
    step_size: float = None   # None -> inverse-smoothness heuristic
    n_steps: int = 10000
    burn_in: int = None       # None -> n_steps // 5
    thin: int = 10
    seed: int = 0
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


@dataclass
class Chain:
    """Retained sampler output; all lists share one length."""

    samples: np.ndarray           # (m, p, q)
    log_post: np.ndarray          # (m,)
    accept_flags: np.ndarray      # (m,) bool
    alpha: float                  # the fractional power sampled
    step_size: float = 0.0        # step size actually used after tuning
    acceptance_rate: float = 1.0

    def __post_init__(self):
        if not (len(self.samples) == len(self.log_post) == len(self.accept_flags)):
            raise ValueError("chain field lengths differ")
        if len(self.log_post) and not np.all(np.isfinite(self.log_post)):
            raise ValueError("non-finite log-posterior in retained samples")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("non-finite entries in retained samples")


@dataclass(frozen=True)
class DataStack:
    """What the likelihood kernel reads: the responses of R datasets of one
    family, unchecked against its support (the KL projection passes means).
    Cell-wise, the datasets share the design X.  Where the family has
    sufficient statistics, G_r = X_r^T X_r and C_r = X_r^T Y_r stand in for
    X and Y, so the designs may differ."""

    X: np.ndarray                 # (n, p); None with gram and cross
    Y: np.ndarray                 # (R, n, q) or (n, q); None with gram
    family: FamilySpec
    gram: np.ndarray = None       # (R, p, p)
    cross: np.ndarray = None      # (R, p, q)


def stack_datasets(datasets):
    """The kernel's view of datasets that share the family: the sufficient
    statistics of each where the family has them, else the shared X of the
    first and the stacked responses."""
    spec = datasets[0].family
    if has_sufficient_statistics(spec):
        return DataStack(None, None, spec,
                         np.stack([d.X.T @ d.X for d in datasets]),
                         np.stack([d.X.T @ d.Y for d in datasets]))
    return DataStack(datasets[0].X, np.stack([d.Y for d in datasets]), spec)


def log_likelihood_and_grad(data, B):
    """Sum of (y theta - b(theta)) / a over all cells, dropping c(y, a), and
    its gradient X^T [(Y - b'(theta)) * dtheta/deta] / a.

    B is one (p, q) matrix or a stack (R, p, q); the value then has shape
    (R,).  With sufficient statistics the value is [<B, C> - <B, G B> / 2]
    / a and the gradient (C - G B) / a.  Cell-wise, the per-cell forms come
    from ``families.log_likelihood_terms``, and each sum is divided by a
    once.
    """
    spec = data.family
    if getattr(data, "gram", None) is not None:
        GB = data.gram @ B
        value = (B * (data.cross - 0.5 * GB)).sum(axis=(-2, -1)) / spec.a
        return value, (data.cross - GB) / spec.a
    cell, slope = log_likelihood_terms(spec, data.Y,
                                       linear_predictor(data.X, B))
    return cell.sum(axis=(-2, -1)) / spec.a, data.X.T @ slope / spec.a


def fisher_information(data, B):
    """Expected information of ``log_likelihood_and_grad`` per column of B,
    X^T diag(b''(theta) (d theta / d eta)^2) X / a over the cells of column
    j, of shape (..., q, p, p) for B of shape (..., p, q).  Clipped cells
    add nothing.  With sufficient statistics it is G / a for every column.
    For a canonical link on unclipped cells it is minus the Hessian of the
    log-likelihood."""
    spec = data.family
    if getattr(data, "gram", None) is not None:
        R, p = data.gram.shape[:2]
        return np.broadcast_to(data.gram[:, None] / spec.a,
                               (R, B.shape[-1], p, p))
    theta, dtheta = link_terms(spec, linear_predictor(data.X, B))
    weight = b_second(spec, theta) * dtheta ** 2 / spec.a
    weighted = np.swapaxes(weight, -1, -2)[..., None] * data.X
    return np.swapaxes(weighted, -1, -2) @ data.X


def value_and_grad(data, B, prior_cfg, alpha):
    """alpha * log-likelihood + log-prior and its gradient (alpha = 1 allowed
    for diagnostics), for one matrix or a stack as in
    ``log_likelihood_and_grad``."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    return _target(data, *checked_stack(B, prior_cfg), alpha)


def _target(data, B, prior, alpha):
    """``value_and_grad`` without its checks, on a PriorStack for B."""
    lik, lik_grad = log_likelihood_and_grad(data, B)
    value, grad = stack_log_prior_and_grad(B, prior)
    return alpha * lik + value, alpha * lik_grad + grad


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
    """Run MALA on the fractional posterior; deterministic given the seed.
    The one-chain call of ``run_chains``."""
    return run_chains([data], [prior_cfg], [frac_cfg])[0]


def run_chains(datasets, prior_cfgs, frac_cfgs):
    """One MALA chain per (dataset, prior, config) triple, all advancing
    together.

    The datasets share the family and (p, q), and each prior matches its
    dataset's (p, q); the configs share alpha, n_steps, burn_in and thin,
    and differ in seed, init and step_size.  During burn-in each chain's
    step size is doubled (acceptance above 0.6) or halved (below 0.4) after
    every window of min(50, burn_in) steps, the last update only halving,
    then frozen for the retained part.  Proposals with a non-finite entry,
    value or gradient are rejected.  Raises SamplerDivergence when a
    chain's log-posterior falls below the floor or a chain accepts nothing
    after burn-in.

    A likelihood with sufficient statistics runs as one block across
    designs.  Cell-wise likelihoods run in blocks of consecutive datasets
    with equal X, each of at most BLOCK_CELLS cells.  Chain r is
    bit-identical to its one-chain run.
    """
    if not len(datasets) == len(prior_cfgs) == len(frac_cfgs) \
            or not datasets:
        raise ValueError("need one prior and one config per dataset")
    if len({(c.alpha, c.n_steps, c.burn_in, c.thin) for c in frac_cfgs}) > 1:
        raise ValueError("the chains of one call must share alpha, n_steps, "
                         "burn_in and thin")
    spec, p, q = datasets[0].family, datasets[0].p, datasets[0].q
    if any(d.family != spec or (d.p, d.q, c.p, c.q) != (p, q, p, q)
           for d, c in zip(datasets, prior_cfgs)):
        raise ValueError("the chains of one call must share the family and "
                         "(p, q)")
    blocks = [0, len(datasets)] if has_sufficient_statistics(spec) \
        else _cellwise_blocks(datasets)
    return [chain for i, j in zip(blocks, blocks[1:])
            for chain in _mala(datasets[i:j], prior_cfgs[i:j],
                               frac_cfgs[i:j])]


def _cellwise_blocks(datasets):
    """Block bounds [0, ..., R]: runs of consecutive datasets with equal X,
    each cut into pieces of at most BLOCK_CELLS cells."""
    bounds, start = [0], 0
    for i in range(1, len(datasets) + 1):
        if i < len(datasets) and np.array_equal(datasets[i].X,
                                                datasets[start].X):
            continue
        n, q = datasets[start].X.shape[0], datasets[start].q
        size = max(1, BLOCK_CELLS // max(1, n * q))
        bounds += list(range(start + size, i, size)) + [i]
        start = i
    return bounds


def _mala(datasets, prior_cfgs, cfgs):
    cfg = cfgs[0]
    data = stack_datasets(datasets)
    prior = stack_priors(prior_cfgs)
    R, p, q = len(cfgs), prior.p, prior.q
    B = np.array([np.zeros((p, q)) if c.init is None else c.init
                  for c in cfgs], dtype=float)
    if B.shape != (R, p, q):
        raise ValueError("init matrix has the wrong shape")
    rngs = [np.random.default_rng(c.seed) for c in cfgs]
    gamma = np.array([
        c.step_size if c.step_size is not None else
        default_step_size(d, pc, cfg.alpha, b)
        for c, d, pc, b in zip(cfgs, datasets, prior_cfgs, B)])
    value, grad = value_and_grad(data, B, prior, cfg.alpha)

    kept = range(cfg.burn_in, cfg.n_steps, cfg.thin)
    samples = np.empty((R, len(kept), p, q))
    log_post = np.empty((R, len(kept)))
    flags = np.empty((R, len(kept)), dtype=bool)
    noise = np.empty((R, p, q))
    n_acc = np.zeros(R, dtype=int)
    n_acc_kept = np.zeros(R, dtype=int)
    window = min(TUNE_WINDOW, cfg.burn_in)
    window_acc = np.zeros(R, dtype=int)

    _check_floor(value, None)
    g = gamma[:, None, None]
    scale = np.sqrt(2.0 * g)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for step in range(cfg.n_steps):
            for rng, z in zip(rngs, noise):
                rng.standard_normal(out=z)
            fwd = scale * noise
            drift = B + g * grad
            prop = drift + fwd
            finite = None
            if not np.isfinite(prop).all():
                finite = np.isfinite(prop).all(axis=(1, 2))
                prop[~finite] = B[~finite]      # evaluated, then rejected
            prop_value, prop_grad = _target(data, prop, prior, cfg.alpha)
            bwd = B - prop - g * prop_grad
            log_ratio = prop_value - value + (
                (fwd * fwd).sum(axis=(1, 2))
                - (bwd * bwd).sum(axis=(1, 2))) / (4.0 * gamma)
            # a non-finite value or gradient makes log_ratio non-finite; a
            # uniform is drawn only for a proposal that can be accepted
            ok = np.isfinite(log_ratio)
            if finite is not None:
                ok &= finite
            u = np.array([rng.random() if k else 1.0
                          for rng, k in zip(rngs, ok)])
            accepted = ok & (np.log(u) < log_ratio)
            if accepted.any():
                np.copyto(B, prop, where=accepted[:, None, None])
                np.copyto(grad, prop_grad, where=accepted[:, None, None])
                np.copyto(value, prop_value, where=accepted)
                n_acc += accepted
                _check_floor(value, step)

            # step-size tuning, burn-in only so the retained chain has fixed
            # gamma.  No later window can check the last update, and a chain
            # frozen on an untried larger step may never accept again, so the
            # last update only shrinks gamma.
            if step < cfg.burn_in:
                window_acc += accepted
                if (step + 1) % window == 0:
                    up = 2.0 if step + 1 + window <= cfg.burn_in else 1.0
                    rate = window_acc / window
                    gamma = np.where(rate > 0.6, up * gamma,
                                     np.where(rate < 0.4, 0.5 * gamma, gamma))
                    g = gamma[:, None, None]
                    scale = np.sqrt(2.0 * g)
                    window_acc[:] = 0
            else:
                n_acc_kept += accepted
                k, off = divmod(step - cfg.burn_in, cfg.thin)
                if off == 0:
                    samples[:, k] = B
                    log_post[:, k] = value
                    flags[:, k] = accepted

    stuck = np.flatnonzero(n_acc_kept == 0)
    if stuck.size:
        raise SamplerDivergence(
            f"chain {stuck[0]} accepted no proposal in "
            f"{cfg.n_steps - cfg.burn_in} steps after burn-in (step size "
            f"{gamma[stuck[0]]:.3g})")
    return [Chain(samples=samples[r], log_post=log_post[r],
                  accept_flags=flags[r], alpha=cfg.alpha,
                  step_size=float(gamma[r]),
                  acceptance_rate=int(n_acc[r]) / cfg.n_steps)
            for r in range(R)]


def _check_floor(value, step):
    """SamplerDivergence for the first chain whose log-posterior is below
    LOG_POST_FLOOR or not a number, at ``step`` (None: at the start)."""
    if not (value >= LOG_POST_FLOOR).all():
        r = np.flatnonzero(~(value >= LOG_POST_FLOOR))[0]
        when = "at the start" if step is None else f"at step {step}"
        raise SamplerDivergence(f"chain {r}: log-posterior {value[r]} {when} "
                                f"(floor {LOG_POST_FLOOR})")


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
