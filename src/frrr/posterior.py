"""Fractional log-posterior, the batched MALA sampler and the posterior mean.

The target is U(B) = alpha * log-likelihood(B) + log-prior(B) for a
fractional power alpha in (0, 1).  MALA proposes B' = B + gamma grad U(B)
+ xi, xi = sqrt(2 gamma) z, and accepts it with the Metropolis-Hastings
ratio of the Gaussian proposal density q, in closed form: with a = grad U(B)
+ grad U(B'), log q(B | B') - log q(B' | B) = -<xi + (gamma / 2) a, a> / 2.

One kernel, ``value_and_grad``, evaluates U and grad U together, for one
(p, q) matrix or a stack (R, p, q) of them, and names no family.  Where
``families.has_sufficient_statistics`` holds, it skips eta altogether: the
likelihood needs only X^T X and X^T Y, computed once per dataset, so a step
costs the same at every n.  Otherwise it makes one eta = X @ B per matrix,
one call of ``families.log_likelihood_terms`` for each cell's
log-likelihood and its eta-derivative S, and one X^T S for the gradient.
The prior takes one batched Cholesky factor and no solve.  Its unchecked
kernel returns minus its gradient, with p + q + 2 already folded into the
factor, and ``_target`` subtracts it from the likelihood's gradient.

A stack holds the dispersion its likelihood is taken at.  For an
exponential family with known dispersion a, alpha times the log-likelihood
at a is the log-likelihood at a / alpha, up to terms free of B; so the
sampler's target is the same kernel on a stack at dispersion a / alpha,
plus the prior, and no separate weight is applied.  With sufficient
statistics G and C are divided by the dispersion once, when the stack is
built; cell-wise, the sum and X^T S are divided by it once per call.  The
sampler checks its start once and then calls the unchecked target
``_target``.  The value and gradient functions below return fresh arrays.
A cell-wise stack holds what the family reads of its responses on every
call, ``families.cell_constants``, made once when the stack is built: for
unclipped probit the sign s = 2Y - 1, s / sqrt 2 and s / sqrt(2 pi), which
the family's CDF routine takes in place of the passes that would remake
them from Y on every call.

``run_chains`` advances many chains together over an (R, p, q) state: a
study makes one sampler call for the replicates of all its cells, each
chain with its own dataset and prior.  ``run_sampler`` is its one-chain
call.  Each chain keeps its own random stream, step-size tuning,
acceptance count and divergence checks, and is bit-identical to its
one-chain run; a SamplerDivergence names a chain by its position in the
call.  One rule rejects a proposal: a non-finite log-ratio, which a
non-finite entry, value or gradient of the proposal makes.  A step fills
buffers allocated once per block, in place, and holds each chain's gamma
and sqrt(2 gamma) as full (R, p, q) arrays, remade at each tuning window,
so no elementwise product broadcasts.  The log-ratio's inner product is
one batched matmul, whose rounding differs from a row sum's but is read
only by the accept test.  One pass over the chains draws each uniform,
for a finite log-ratio only, as a raw word of its PCG64 stream, the value
``Generator.random()`` would return.  A step on which every chain accepts
rebinds the state to the proposal.
"""

from dataclasses import dataclass, field

import numpy as np

from .families import (FamilySpec, b_second, cell_constants, family_bounds,
                       has_sufficient_statistics, linear_predictor,
                       link_terms, log_likelihood_terms, theta_from_eta)
from .prior import (checked_stack, log_prior_and_grad,
                    stack_log_prior_and_grad, stack_priors)

LOG_POST_FLOOR = -1e12        # a lower log-posterior is a diverged chain
# Largest n * q * chains in one block of the cell-wise kernel.  Without the
# split, unclipped probit stepped faster at n = 1600, R = 10 and slower at
# n = 6400, R = 4 (ROADMAP, measured dead ends), so the value stays.
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
        # the proposal's scale is sqrt(2 gamma)
        if self.step_size is not None \
                and not 0.0 < 2.0 * float(self.step_size) < np.inf:
            raise ValueError(f"step_size must be positive with 2 * step_size "
                             f"finite, not {self.step_size!r}")
        if self.n_steps < 1 or self.thin < 1:
            raise ValueError("n_steps and thin must be positive")
        burn = self.n_steps // 5 if self.burn_in is None else self.burn_in
        if not 0 <= burn < self.n_steps:
            raise ValueError("burn_in must satisfy 0 <= burn_in < n_steps")
        object.__setattr__(self, "burn_in", burn)


@dataclass
class Chain:
    """Retained sampler output; all lists share one length, at least 1."""

    samples: np.ndarray           # (m, p, q)
    log_post: np.ndarray          # (m,)
    accept_flags: np.ndarray      # (m,) bool
    alpha: float                  # the fractional power sampled
    step_size: float = 0.0        # step size actually used after tuning
    acceptance_rate: float = 1.0

    def __post_init__(self):
        if not (len(self.samples) == len(self.log_post) == len(self.accept_flags)):
            raise ValueError("chain field lengths differ")
        if len(self.samples) == 0:
            raise ValueError("empty chain")
        if not np.all(np.isfinite(self.log_post)):
            raise ValueError("non-finite log-posterior in retained samples")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("non-finite entries in retained samples")


@dataclass(frozen=True)
class DataStack:
    """What the likelihood kernel reads: the responses of R datasets of one
    family, unchecked against its support (the KL projection passes means),
    and the dispersion the likelihood is taken at, the family's a unless
    given.  Cell-wise, the datasets share the design X.  Where the family
    has sufficient statistics, G_r / d and C_r / d, with G_r = X_r^T X_r,
    C_r = X_r^T Y_r and d the dispersion, stand in for X and Y, so the
    designs may differ; otherwise the stack also holds the family's
    ``cell_constants`` of Y, made at build: for unclipped probit the three
    arrays s = 2Y - 1, s / sqrt 2 and s / sqrt(2 pi), else None."""

    X: np.ndarray                 # (n, p); None with gram and cross
    Y: np.ndarray                 # (R, n, q) or (n, q); None with gram
    family: FamilySpec
    gram: np.ndarray = None       # (R, p, p), divided by the dispersion
    cross: np.ndarray = None      # (R, p, q), divided by the dispersion
    dispersion: float = None      # None -> family.a
    cells: object = field(init=False, default=None)  # cell_constants(Y)

    def __post_init__(self):
        if self.dispersion is None:
            object.__setattr__(self, "dispersion", self.family.a)
        if self.X is not None:
            object.__setattr__(self, "cells",
                               cell_constants(self.family, self.Y))


def stack_datasets(datasets, dispersion=None):
    """The kernel's view of datasets that share the family, at
    ``dispersion`` (None: the family's a; the sampler passes a / alpha):
    the sufficient statistics of each, divided by the dispersion once,
    where the family has them, else the shared X and the stacked
    responses.  Raises ValueError unless every dataset has the first one's
    family and, cell-wise, an equal X."""
    spec, X = datasets[0].family, datasets[0].X
    if any(d.family != spec for d in datasets):
        raise ValueError("the datasets of one stack must share the family")
    if not has_sufficient_statistics(spec):
        if not all(np.array_equal(d.X, X) for d in datasets):
            raise ValueError("cell-wise datasets of one stack must share X")
        return DataStack(X, np.stack([d.Y for d in datasets]), spec,
                         dispersion=dispersion)
    scale = spec.a if dispersion is None else dispersion
    return DataStack(None, None, spec,
                     np.stack([d.X.T @ d.X for d in datasets]) / scale,
                     np.stack([d.X.T @ d.Y for d in datasets]) / scale, scale)


def log_likelihood_and_grad(data, B):
    """Sum of (y theta - b(theta)) / d over all cells, dropping c(y, d), and
    its gradient X^T [(Y - b'(theta)) * dtheta/deta] / d, as fresh arrays,
    at the stack's dispersion d (a bare ``Dataset``: the family's a).

    B is one (p, q) matrix or a stack (R, p, q); the value then has shape
    (R,).  With sufficient statistics the value is <B, C/d> - <B, G/d B> / 2
    and the gradient C/d - G/d B, from the stack's G/d and C/d.  Cell-wise,
    the per-cell forms come from ``families.log_likelihood_terms``, and each
    sum is divided by d once.
    """
    if getattr(data, "gram", None) is not None:
        GB = data.gram @ B
        value = np.add.reduce(B * (data.cross - 0.5 * GB), axis=(-2, -1))
        return value, np.subtract(data.cross, GB, out=GB)
    d = getattr(data, "dispersion", data.family.a)
    cell, slope = log_likelihood_terms(data.family, data.Y,
                                       linear_predictor(data.X, B),
                                       getattr(data, "cells", None))
    grad = data.X.T @ slope
    grad /= d
    return np.add.reduce(cell, axis=(-2, -1)) / d, grad


def fisher_information(data, B):
    """Expected information of ``log_likelihood_and_grad`` per column of B,
    X^T diag(b''(theta) (d theta / d eta)^2) X / d over the cells of column
    j, of shape (..., q, p, p) for B of shape (..., p, q), at the same
    dispersion d.  Clipped cells add nothing.  With sufficient statistics
    it is the stack's G / d for every column.  For a canonical link on
    unclipped cells it is minus the Hessian of the log-likelihood."""
    spec = data.family
    if getattr(data, "gram", None) is not None:
        R, p = data.gram.shape[:2]
        return np.broadcast_to(data.gram[:, None], (R, B.shape[-1], p, p))
    theta, dtheta = link_terms(spec, linear_predictor(data.X, B))
    d = getattr(data, "dispersion", spec.a)
    weight = b_second(spec, theta) * dtheta ** 2 / d
    weighted = np.swapaxes(weight, -1, -2)[..., None] * data.X
    return np.swapaxes(weighted, -1, -2) @ data.X


def value_and_grad(data, B, prior_cfg, alpha):
    """alpha * log-likelihood + log-prior and its gradient (alpha = 1 allowed
    for diagnostics), for one matrix or a stack as in
    ``log_likelihood_and_grad``, on a stack at the family's dispersion a:
    the checked reference for ``_target``."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    value, grad = log_prior_and_grad(B, prior_cfg)
    lik, lik_grad = log_likelihood_and_grad(data, np.asarray(B, dtype=float))
    return alpha * lik + value, alpha * lik_grad + grad


def _target(data, B, prior):
    """``value_and_grad`` without its checks, on a stack at dispersion
    a / alpha and a PriorStack for B: the likelihood's fresh arrays, with
    the prior added in place.  The prior kernel returns minus its gradient,
    which is subtracted."""
    value, grad = log_likelihood_and_grad(data, B)
    prior_value, minus_prior_grad = stack_log_prior_and_grad(B, prior)
    value += prior_value
    grad -= minus_prior_grad
    return value, grad


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


def default_step_size(data, prior_cfg, alpha, B):
    """Conservative inverse of a smoothness bound on the target.

    Where b'' is unbounded on the interval (c_u = inf), its largest value at
    the start point B stands in for c_u.
    """
    spec = data.family
    c_u = family_bounds(spec).c_u
    if np.isinf(c_u):
        theta = theta_from_eta(spec, linear_predictor(data.X, B))
        c_u = float(np.max(b_second(spec, theta), initial=0.0))
    lik_curv = alpha * c_u * np.sum(data.X ** 2) / spec.a
    return 0.5 / (lik_curv + prior_cfg.curvature)


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
    then frozen for the retained part.  One rule rejects a proposal with a
    non-finite entry, value or gradient: its Metropolis-Hastings log-ratio
    is not finite.  Raises SamplerDivergence when a chain's log-posterior
    falls below the floor or a chain accepts nothing after burn-in, naming
    the chain by its position in this call.

    A likelihood with sufficient statistics runs as one block across
    designs.  Cell-wise likelihoods run in blocks of consecutive datasets
    with equal X, each of at most BLOCK_CELLS cells.  Each block stacks its
    datasets at dispersion a / alpha, allocates its step buffers once, and
    per step takes the closed-form log-ratio, draws in one pass a chain's
    uniform from its stream's raw words, only for a finite log-ratio and
    in chain order, and rebinds the state when every chain accepts.  Chain
    r is bit-identical to its one-chain run.
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
                               frac_cfgs[i:j], i)]


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


def _mala(datasets, prior_cfgs, cfgs, first):
    """The chains of one block, whose first chain is chain ``first`` of the
    ``run_chains`` call.  A step fills the buffers allocated here: fwd
    holds the noise times sqrt(2 gamma); drift holds gamma grad, then the
    mean gradient h; prop the proposal; terms fwd + gamma h, whose inner
    product with h is one matmul of (R, 1, pq) and (R, pq, 1) views into
    ``dot``.  For PCG64, the bit generator of ``np.random.default_rng``,
    ``Generator.random()`` is the next raw word's top 53 bits times 2^-53,
    so a uniform is drawn as a raw word.  When every chain accepts, B
    swaps buffers with the proposal and takes its fresh value and gradient;
    tuning and the check after burn-in read differences of snapshots of
    the one per-step count, ``n_acc``."""
    cfg = cfgs[0]
    data = stack_datasets(datasets, datasets[0].family.a / cfg.alpha)
    R, p, q = len(cfgs), datasets[0].p, datasets[0].q
    B = np.array([np.zeros((p, q)) if c.init is None else c.init
                  for c in cfgs], dtype=float)
    if B.shape != (R, p, q):
        raise ValueError("init matrix has the wrong shape")
    B, prior = checked_stack(B, stack_priors(prior_cfgs))
    rngs = [np.random.default_rng(c.seed) for c in cfgs]
    draws = [rng.bit_generator.random_raw for rng in rngs]
    gamma = np.array([
        c.step_size if c.step_size is not None else
        default_step_size(d, pc, cfg.alpha, b)
        for c, d, pc, b in zip(cfgs, datasets, prior_cfgs, B)])

    kept = range(cfg.burn_in, cfg.n_steps, cfg.thin)
    samples = np.empty((R, len(kept), p, q))
    log_post = np.empty((R, len(kept)))
    flags = np.empty((R, len(kept)), dtype=bool)
    fwd, prop, terms, drift = (np.empty((R, p, q)) for _ in range(4))
    noise = list(fwd)             # each chain's view, made once
    terms_row, drift_col = terms.reshape(R, 1, p * q), drift.reshape(R, -1, 1)
    dot = np.empty((R, 1, 1))
    dot_flat, log_ratio = dot.reshape(R), np.empty(R)
    n_acc = np.zeros(R, dtype=int)
    n_acc_then = n_acc.copy()     # at the last window end, then at burn_in
    window = min(TUNE_WINDOW, cfg.burn_in)
    inf = np.inf

    g = gamma[:, None, None] * np.ones((p, q))
    scale = np.sqrt(2.0 * g)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        value, grad = _target(data, B, prior)
        _check_floor(value, None, first)
        for step in range(cfg.n_steps):
            for rng, z in zip(rngs, noise):
                rng.standard_normal(out=z)
            fwd *= scale
            np.multiply(g, grad, out=drift)
            np.add(B, drift, out=prop)
            prop += fwd
            prop_value, prop_grad = _target(data, prop, prior)
            # log q(B | B') - log q(B' | B) = -<fwd + gamma h, h> with h =
            # (grad + prop_grad) / 2, non-finite where the proposal's value
            # or gradient is, and so where an entry is (its prior is NaN); a
            # uniform is drawn only for a finite log-ratio, +inf elsewhere
            np.add(grad, prop_grad, out=drift)
            drift *= 0.5
            np.multiply(g, drift, out=terms)
            terms += fwd
            np.matmul(terms_row, drift_col, out=dot)
            np.subtract(prop_value, value, out=log_ratio)
            log_ratio -= dot_flat
            u = np.array([(draw() >> 11) * 2.0 ** -53 if -inf < x < inf
                          else inf
                          for draw, x in zip(draws, log_ratio.tolist())])
            accepted = np.log(u, out=u) < log_ratio
            n = np.count_nonzero(accepted)
            if n:
                if n == R:
                    B, prop = prop, B
                    value, grad = prop_value, prop_grad
                else:
                    np.copyto(B, prop, where=accepted[:, None, None])
                    np.copyto(grad, prop_grad, where=accepted[:, None, None])
                    np.copyto(value, prop_value, where=accepted)
                n_acc += accepted
                if np.minimum.reduce(value) < LOG_POST_FLOOR:
                    _check_floor(value, step, first)

            # step-size tuning, burn-in only so the retained chain has fixed
            # gamma.  No later window can check the last update, and a chain
            # frozen on an untried larger step may never accept again, so the
            # last update only shrinks gamma.
            if step < cfg.burn_in:
                if (step + 1) % window == 0:
                    up = 2.0 if step + 1 + window <= cfg.burn_in else 1.0
                    rate = (n_acc - n_acc_then) / window
                    gamma = np.where(rate > 0.6, up * gamma,
                                     np.where(rate < 0.4, 0.5 * gamma, gamma))
                    g = gamma[:, None, None] * np.ones((p, q))
                    scale = np.sqrt(2.0 * g)
                if (step + 1) % window == 0 or step + 1 == cfg.burn_in:
                    n_acc_then = n_acc.copy()
            else:
                k, off = divmod(step - cfg.burn_in, cfg.thin)
                if off == 0:
                    samples[:, k] = B
                    log_post[:, k] = value
                    flags[:, k] = accepted

    stuck = np.flatnonzero(n_acc == n_acc_then)
    if stuck.size:
        raise SamplerDivergence(
            f"chain {first + stuck[0]} accepted no proposal in "
            f"{cfg.n_steps - cfg.burn_in} steps after burn-in (step size "
            f"{gamma[stuck[0]]:.3g})")
    return [Chain(samples=samples[r], log_post=log_post[r],
                  accept_flags=flags[r], alpha=cfg.alpha,
                  step_size=float(gamma[r]),
                  acceptance_rate=int(n_acc[r]) / cfg.n_steps)
            for r in range(R)]


def _check_floor(value, step, first):
    """SamplerDivergence for the first chain whose log-posterior is below
    LOG_POST_FLOOR or not a number, at ``step`` (None: at the start), named
    as chain ``first`` + its index in ``value``."""
    if not (value >= LOG_POST_FLOOR).all():
        r = np.flatnonzero(~(value >= LOG_POST_FLOOR))[0]
        when = "at the start" if step is None else f"at step {step}"
        raise SamplerDivergence(f"chain {first + r}: log-posterior {value[r]} "
                                f"{when} (floor {LOG_POST_FLOOR})")


def posterior_mean(chain):
    """Entrywise average of the retained samples."""
    return chain.samples.mean(axis=0)


def effective_rank(B):
    """Number of singular values above 1e-3 times the largest."""
    s = np.linalg.svd(np.asarray(B, dtype=float), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > 1e-3 * s[0]))
