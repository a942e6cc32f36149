"""Verification harness: lemma sweeps, rate studies, misspecification study.

All theorem comparisons use exactly the constant prefactors of the stated
bounds; both sides are recorded.  Expectations over data are approximated by
replication averages with the design matrix and truth held fixed per cell,
and posterior integrals by averages over retained chain samples.

The lemma sweeps draw natural parameters in ``sampling_box``, the
configured interval cut to [-3, 3], and take C_L, C_U and U_1 over that box.

Both studies run the replicates of a cell the same way (``_cell_chains``):
draw each Y from the true family, start a MALA chain of the fitted model at
the likelihood ridge fit, and average D_alpha to the true law, given by its
family and B0, over each chain (``posterior_average_divergence``: through
X^T X where the fitted family has sufficient statistics and is the true
one, else from theta(B) of each sample, in blocks of cells).  A study makes
one sampler call for the chains of all its cells (``_run_cells``), then
summarises each cell from its slice of the chains.  The rate study computes
D_alpha at its fractional power alpha and at 1/2 (for the Hellinger check);
the misspecification study at alpha, and sets it against the KL floor at
the KL projection B_bar of the true law onto the fitted class
(``fit_kl_minimizer``, from the zero matrix and KL_RESTARTS random starts).
That study fixes its families: a MISSPEC_TRUE_FAMILY probit truth and a
MISSPEC_FIT_FAMILY logit fit on [-2, 2].  Both have the bernoulli law, so
the closed-form divergences of the fitted family apply to the pair.

The ridge start and the KL projection minimise the sampler's own likelihood
kernel, ``posterior.log_likelihood_and_grad``, through one damped
Fisher-scoring routine (``_fisher_scoring``) over a stack of starts, with
the kernel's curvature ``posterior.fisher_information``: the ridge start on
the replicates of a cell, the KL projection on the true means as responses
from all its starts at once.  Both free theta from the fitted family's
configured interval, so the objective has no kinks.
"""

from dataclasses import dataclass, replace

import numpy as np

from .divergence import (RENYI_ORDERS, c_alpha, hellinger_sq, kl_per_entry,
                         lemma_rhs, log_ratio_sq_per_entry,
                         misspec_kl_per_entry, rate_formulas, renyi_per_entry)
from .families import (Dataset, FamilySpec, b_prime, family_bounds,
                       has_sufficient_statistics, theta_from_eta)
from .posterior import (BLOCK_CELLS, DataStack, FractionalConfig,
                        fisher_information, log_likelihood_and_grad,
                        posterior_mean, run_chains, stack_datasets)
from .prior import THEOREM_PRESETS, PriorConfig, tau_preset
from .simulate import (DESIGN_MODES, calibrate_scale, compute_kappa,
                       generate_dataset, make_design, make_low_rank_truth,
                       prediction_error)

RIDGE = 1e-3                  # ridge penalty of the chain start
FIT_MAXITER = 100             # iterations and step halvings of a fit
FIT_RTOL = 1e-14              # squared Newton decrement over the objective
DIVERGENCE_SAMPLES = 40       # chain samples per posterior-average D_alpha
BOX_HALF_WIDTH = 3.0          # half-width of the lemma sweeps' theta box
MISSPEC_TRUE_FAMILY = FamilySpec("bernoulli_probit")  # misspec study truth
# the tight interval keeps the KL floor clear of the O(1/n) posterior
# spread, so the D_alpha plateau shows at desk-scale n
MISSPEC_FIT_FAMILY = FamilySpec("bernoulli_logit", theta_lo=-2.0,
                                theta_hi=2.0)
KL_RESTARTS = 10              # random starts of the misspec KL projection


# ---------------------------------------------------------------------------
# lemma-inequality sweeps


def sampling_box(spec):
    """Working interval for random natural parameters: the configured interval
    intersected with [-BOX_HALF_WIDTH, BOX_HALF_WIDTH] (so unbounded families
    still get a finite box)."""
    lo = max(spec.theta_lo, -BOX_HALF_WIDTH)
    hi = min(spec.theta_hi, BOX_HALF_WIDTH)
    if not lo < hi:
        raise ValueError("empty sampling box")
    return lo, hi


def verify_divergence_bounds(spec, trials, rng):
    """Check the four divergence lemmas on random parameter pairs in the
    sampling box, the Renyi lemma at each order of RENYI_ORDERS, with the
    constants C_L, C_U and U_1 taken over that box.

    Returns a dict of per-trial arrays (exact values, bound values and
    satisfied flags) plus satisfied fractions per lemma.
    """
    lo, hi = sampling_box(spec)
    bounds = family_bounds(replace(spec, theta_lo=lo, theta_hi=hi))
    theta = rng.uniform(lo, hi, size=trials)
    zeta = rng.uniform(lo, hi, size=trials)
    theta0 = rng.uniform(lo, hi, size=trials)

    diff_sq = (zeta - theta) ** 2
    rhs = lemma_rhs(bounds, spec.a, diff_sq, 1)
    kl_exact = kl_per_entry(spec, theta, zeta)
    renyi_lower = {al: lemma_rhs(bounds, spec.a, diff_sq, 1, al).renyi_lower
                   for al in RENYI_ORDERS}
    renyi_exact = {al: renyi_per_entry(spec, theta, zeta, al)
                   for al in RENYI_ORDERS}
    logsq_exact = log_ratio_sq_per_entry(spec, theta, zeta)
    mis_exact = misspec_kl_per_entry(spec, theta0, theta, zeta)

    tol = 1e-12
    sat = {
        "kl_upper": kl_exact <= rhs.kl_upper * (1 + 1e-9) + tol,
        "renyi_lower": np.all(
            [renyi_exact[al] >= renyi_lower[al] * (1 - 1e-9) - tol
             for al in RENYI_ORDERS],
            axis=0),
        "log_sq": logsq_exact <= rhs.logsq_upper * (1 + 1e-9) + tol,
        "misspec_kl": mis_exact <= rhs.misspec_kl * (1 + 1e-9) + tol,
    }
    return {
        "theta": theta, "zeta": zeta, "theta0": theta0,
        "kl_exact": kl_exact, "kl_bound": rhs.kl_upper,
        "renyi_exact": renyi_exact, "renyi_lower_bound": renyi_lower,
        "logsq_exact": logsq_exact, "logsq_bound": rhs.logsq_upper,
        "misspec_exact": mis_exact, "misspec_bound": rhs.misspec_kl,
        "satisfied": sat,
        "satisfied_fraction": {k: float(np.mean(v)) for k, v in sat.items()},
    }


# ---------------------------------------------------------------------------
# Fisher-scoring fits of the likelihood kernel: chain start and KL projection


def _fisher_scoring(data, B, ridge):
    """Minimise -log-likelihood + ridge ||B||^2 / 2 of the kernel from each
    start of the stack B (R, p, q); returns the minimisers, the objective
    values and the gradients.

    The objective separates by column, so each iteration solves the p x p
    Fisher-scoring system of every column and start at once.  A start whose
    squared Newton decrement -<gradient, step> is at most
    FIT_RTOL (1 + |objective|) takes its full step and stops; the others
    halve their step until it passes the Armijo test, and stop when no
    halving decreases the objective.  Each loop runs at most FIT_MAXITER
    times.
    """
    def objective(B):
        lik, grad = log_likelihood_and_grad(data, B)
        return (0.5 * ridge * (B * B).sum(axis=(-2, -1)) - lik,
                ridge * B - grad)

    B = np.array(B, dtype=float)
    f, g = objective(B)
    eye = ridge * np.eye(B.shape[-2])
    live = np.ones(len(B), dtype=bool)
    for _ in range(FIT_MAXITER):
        info = fisher_information(data, B) + eye
        step = -np.swapaxes(np.linalg.solve(
            info, np.swapaxes(g, -1, -2)[..., None])[..., 0], -1, -2)
        decrement = -(g * step).sum(axis=(-2, -1))
        done = live & (decrement <= FIT_RTOL * (1.0 + np.abs(f)))
        B[done] += step[done]
        live &= ~done
        if not live.any():
            break
        pending, t = live.copy(), 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(FIT_MAXITER):
                trial = B + t * step * pending[:, None, None]
                f_new, g_new = objective(trial)
                ok = pending & (f_new < f - 1e-4 * t * decrement)
                B[ok], f[ok], g[ok] = trial[ok], f_new[ok], g_new[ok]
                pending &= ~ok
                if not pending.any():
                    break
                t *= 0.5
        live &= ~pending
    return (B,) + objective(B)


def likelihood_ridge_fit(datasets):
    """Ridge-penalised maximum-likelihood points of datasets that share X
    and the family, as an (R, p, q) stack: the chain starts of a study
    cell.  The fit frees theta from the family's configured interval, so
    the objective is smooth; for an unclipped gaussian family one step
    gives the closed form (G/a + RIDGE I)^-1 C/a.  Raises ValueError on
    datasets of different families or, cell-wise, different X."""
    spec = datasets[0].family
    if any(d.family != spec for d in datasets):
        raise ValueError("the datasets of one fit must share the family")
    free = replace(spec, theta_lo=-np.inf, theta_hi=np.inf)
    data = stack_datasets([replace(d, family=free) for d in datasets])
    start = np.zeros((len(datasets), datasets[0].p, datasets[0].q))
    return _fisher_scoring(data, start, RIDGE)[0]


def posterior_average_divergence(spec, X, samples, ref_spec, B_ref, alphas):
    """Average per-entry-averaged D_alpha between theta(B) of ``spec`` and
    the reference theta(B_ref) of ``ref_spec`` over DIVERGENCE_SAMPLES
    evenly spaced retained chain samples (all of them if fewer).

    Where the family has sufficient statistics and is the reference's,
    theta(B) = X B and D_alpha per entry is (theta - zeta)^2 times
    alpha / (2a), so the average is that times the mean of
    ``prediction_error(X, B, B_ref)``, through X^T X with no n x q array
    per sample.  Otherwise the samples are evaluated in blocks of at most
    BLOCK_CELLS cells."""
    idx = np.linspace(0, len(samples) - 1,
                      min(DIVERGENCE_SAMPLES, len(samples))).astype(int)
    if has_sufficient_statistics(spec) and ref_spec == spec:
        sq = np.mean(prediction_error(X, samples[idx], B_ref))
        return {al: float(al / (2.0 * spec.a) * sq) for al in alphas}
    theta_ref = theta_from_eta(ref_spec, X @ B_ref)
    size = max(1, BLOCK_CELLS // theta_ref.size)
    vals = {al: [] for al in alphas}
    for i in range(0, len(idx), size):
        theta = theta_from_eta(spec, X @ samples[idx[i:i + size]])
        for al in alphas:
            vals[al].append(renyi_per_entry(spec, theta, theta_ref, al)
                            .mean(axis=(1, 2)))
    return {al: float(np.mean(np.concatenate(v))) for al, v in vals.items()}


def _cell_chains(cfg, cell_key, X, truth, true_spec, fit_spec, prior_cfg):
    """The chain inputs (datasets, priors, configs) of the replicates of one
    study cell.  Replicate ``rep`` draws Y from ``true_spec`` at the truth
    with the stream ``cell_key + [rep]``, starts a chain of the ``fit_spec``
    model at the likelihood ridge fit, and draws its chain seed from that
    stream after Y."""
    datasets, seeds = [], []
    for rep in range(cfg.replications):
        rep_rng = np.random.default_rng(cell_key + [rep])
        Y = generate_dataset(X, truth, true_spec, rep_rng).Y
        datasets.append(Dataset(X=X, Y=Y, family=fit_spec))
        seeds.append(int(rep_rng.integers(2 ** 63)))
    fracs = [FractionalConfig(alpha=cfg.alpha, n_steps=cfg.n_steps,
                              burn_in=cfg.burn_in, thin=cfg.thin, seed=seed,
                              init=init)
             for seed, init in zip(seeds, likelihood_ridge_fit(datasets))]
    return datasets, [prior_cfg] * len(datasets), fracs


def _run_cells(cells):
    """One sampler call over the chains of every cell.  Each cell is a pair
    (chain inputs from ``_cell_chains``, summary function of the cell's
    chains); returns the summaries in cell order."""
    datasets, priors, fracs = [], [], []
    for (d, p, f), _ in cells:
        datasets += d
        priors += p
        fracs += f
    chains = run_chains(datasets, priors, fracs)
    out, start = [], 0
    for (cell_data, _, _), summarize in cells:
        out.append(summarize(chains[start:start + len(cell_data)]))
        start += len(cell_data)
    return out


def _check_study(cfg, ranks=()):
    """ValueError unless the study has a p x q truth of a rank r (and each
    rank in ``ranks``) in [0, min(p, q)], replicates, an n grid of positive
    sizes, a known design mode and a valid sampler configuration."""
    if min(cfg.p, cfg.q) < 1:
        raise ValueError("p and q must be at least 1")
    bad = [r for r in (cfg.r, *ranks) if not 0 <= r <= min(cfg.p, cfg.q)]
    if bad:
        raise ValueError(f"rank {bad[0]} invalid for a {cfg.p} x {cfg.q} "
                         f"truth")
    if cfg.replications < 1:
        raise ValueError("replications must be at least 1")
    if not cfg.n_grid:
        raise ValueError("n_grid must not be empty")
    if min(cfg.n_grid) < 1:
        raise ValueError("each n_grid size must be at least 1")
    if cfg.design_mode not in DESIGN_MODES:
        raise ValueError(f"unknown design mode {cfg.design_mode!r}")
    FractionalConfig(alpha=cfg.alpha, n_steps=cfg.n_steps,
                     burn_in=cfg.burn_in, thin=cfg.thin)


# ---------------------------------------------------------------------------
# rate study


@dataclass
class RateStudyConfig:
    family: FamilySpec
    p: int = 8
    q: int = 6
    r: int = 2
    n_grid: tuple = (100, 200, 400)
    r_grid: tuple = ()          # extra ranks, run at n_ref
    n_ref: int = 400
    replications: int = 20
    alpha: float = 0.5
    tau_preset: str = "theorem1"
    design_mode: str = "iid"
    n_steps: int = 3500
    burn_in: int = 1000
    thin: int = 5
    seed: int = 0

    def __post_init__(self):
        _check_study(self, self.r_grid)
        if len({self.r, *self.r_grid}) <= len(self.r_grid):
            raise ValueError(f"each r_grid rank must differ from r = {self.r} "
                             f"and from the other r_grid ranks")
        if self.n_ref < 1:
            raise ValueError("n_ref must be at least 1")
        if self.tau_preset not in THEOREM_PRESETS:
            raise ValueError(f"rate study tau preset must be one of "
                             f"{', '.join(THEOREM_PRESETS)}, not "
                             f"{self.tau_preset!r}")
        bounds = family_bounds(self.family)
        if not (bounds.c_l > 0 and bounds.c_u < np.inf):
            raise ValueError("rate study requires a family with positive C_L "
                             "and finite C_U")


@dataclass
class RateCell:
    n: int
    r: int
    alpha: float
    tau: float
    kappa: float
    a: float
    c_l: float
    rates: object                 # RateFormulas at the cell's truth
    pred_err: np.ndarray          # per-rep ||X(Bhat - B0)||_F^2/(nq)
    pred_err_post: np.ndarray     # per-rep posterior-integrated version
    est_err: np.ndarray           # per-rep ||Bhat - B0||_F^2
    d_alpha: dict                 # {alpha, 1/2} -> per-rep posterior-avg D_alpha
    acceptance: np.ndarray

    @property
    def prop1_bound(self):
        al = self.alpha
        return (2.0 * self.a * (1 + al) / (self.c_l * (1 - al))
                * self.rates.epsilon_n_thm1)

    @property
    def bound_satisfied(self):
        return bool(np.mean(self.pred_err) <= self.prop1_bound)

    @property
    def thm3_threshold(self):
        return 2.0 * (1 + self.alpha) / (1 - self.alpha) * self.rates.epsilon_n_thm3

    @property
    def thm3_vacuous(self):
        return 2.0 / (self.n * self.rates.epsilon_n_thm3) >= 1.0

    @property
    def thm3_frequency(self):
        return float(np.mean(self.d_alpha[self.alpha] <= self.thm3_threshold))

    @property
    def thm3_required(self):
        return 1.0 - 2.0 / (self.n * self.rates.epsilon_n_thm3)


@dataclass
class RateStudyResult:
    config: RateStudyConfig
    cells: list
    slope: float = np.nan
    slope_se: float = np.nan

    def n_cells(self):
        return [c for c in self.cells if c.r == self.config.r]

    def summary(self):
        """The cells and the log-log slope, with None for a slope or
        standard error that is NaN (fewer than two or three sizes)."""
        return {
            "slope": self.slope if np.isfinite(self.slope) else None,
            "slope_se": self.slope_se if np.isfinite(self.slope_se) else None,
            "cells": [dict(
                n=c.n, r=c.r, tau=c.tau, kappa=c.kappa,
                mean_pred_err=float(np.mean(c.pred_err)),
                se_pred_err=float(np.std(c.pred_err) / np.sqrt(len(c.pred_err))),
                mean_est_err=float(np.mean(c.est_err)),
                epsilon_n_thm1=c.rates.epsilon_n_thm1,
                epsilon_n_thm3=c.rates.epsilon_n_thm3,
                prop1_bound=c.prop1_bound,
                bound_satisfied=c.bound_satisfied,
                thm3_vacuous=c.thm3_vacuous,
                thm3_frequency=c.thm3_frequency,
                thm3_required=c.thm3_required,
                mean_acceptance=float(np.mean(c.acceptance)),
            ) for c in self.cells],
        }


def _rate_cell(cfg, cell_index, n, r):
    """The chain inputs of one rate cell and the function that turns its
    chains into a RateCell."""
    spec = cfg.family
    rng = np.random.default_rng([cfg.seed, 7919, cell_index])
    X = make_design(n, cfg.p, cfg.design_mode, rng)
    truth = calibrate_scale(X, make_low_rank_truth(cfg.p, cfg.q, r, 1.0, rng))
    x_frob = float(np.linalg.norm(X))
    tau = tau_preset(cfg.tau_preset, n, cfg.p, cfg.q, spec.a, x_frob)
    prior_cfg = PriorConfig(tau=tau, p=cfg.p, q=cfg.q)
    fb = family_bounds(spec)
    rates = rate_formulas(n, cfg.p, cfg.q, truth.rank, spec.a, fb,
                          x_frob, truth.frob)

    orders = sorted({cfg.alpha, 0.5})

    def finish(chains):
        b_hat = np.array([posterior_mean(chain) for chain in chains])
        divs = [posterior_average_divergence(spec, X, chain.samples, spec,
                                             truth.b0, orders)
                for chain in chains]
        return RateCell(
            n=n, r=r, alpha=cfg.alpha, tau=tau, kappa=compute_kappa(X),
            a=spec.a, c_l=fb.c_l, rates=rates,
            pred_err=prediction_error(X, b_hat, truth.b0),
            pred_err_post=np.array([np.mean(prediction_error(
                X, chain.samples[::10], truth.b0)) for chain in chains]),
            est_err=((b_hat - truth.b0) ** 2).sum(axis=(1, 2)),
            d_alpha={al: np.array([d[al] for d in divs]) for al in orders},
            acceptance=np.array([chain.acceptance_rate for chain in chains]),
        )

    return _cell_chains(cfg, [cfg.seed, 7919, cell_index], X, truth, spec,
                        spec, prior_cfg), finish


def run_rate_study(cfg):
    """Replicated simulation across the (n, r) grid with theorem comparisons."""
    grid = [(n, cfg.r) for n in cfg.n_grid]
    grid += [(cfg.n_ref, r) for r in cfg.r_grid]
    cells = _run_cells([_rate_cell(cfg, i, n, r)
                        for i, (n, r) in enumerate(grid)])
    result = RateStudyResult(config=cfg, cells=cells)

    ncells = result.n_cells()
    if len(ncells) >= 2:
        x = np.log([c.n for c in ncells])
        y = np.log([np.mean(c.pred_err) for c in ncells])
        A = np.vstack([x, np.ones_like(x)]).T
        coef = np.linalg.lstsq(A, y, rcond=None)[0]
        result.slope = float(coef[0])
        if len(x) > 2:  # a two-point fit is exact: it has no standard error
            resid = y - A @ coef
            result.slope_se = float(np.sqrt(np.sum(resid ** 2) / (len(x) - 2)
                                            / np.sum((x - x.mean()) ** 2)))
    return result


def hellinger_consistency_check(result):
    """Hellinger and TV corollary bounds, per cell, averaged convention.

    H^2 = 2(1 - exp(-D_{1/2}/2)) applied to the per-entry-averaged posterior
    divergence is compared to c_alpha * eps_n; the TV-squared surrogate
    (2/alpha) D_alpha is compared to 2(1+alpha)/(alpha(1-alpha)) * eps_n.
    """
    rows = []
    for c in result.cells:
        al = c.alpha
        eps = c.rates.epsilon_n_thm1
        d_half = float(np.mean(c.d_alpha[0.5]))
        d_al = float(np.mean(c.d_alpha[al]))
        h_sq = hellinger_sq(d_half)
        h_bound = c_alpha(al) * eps
        tv_sq = 2.0 / al * d_al
        tv_bound = 2.0 * (1 + al) / (al * (1 - al)) * eps
        rows.append(dict(
            n=c.n, r=c.r, hellinger_sq=h_sq, hellinger_bound=h_bound,
            hellinger_ok=h_sq <= h_bound,
            tv_sq=tv_sq, tv_bound=tv_bound, tv_ok=tv_sq <= tv_bound))
    return rows


# ---------------------------------------------------------------------------
# misspecification study


@dataclass
class KLFit:
    b_bar: np.ndarray
    kl_value: float           # per-entry-averaged KL at the minimizer
    grad_norm: float
    restart_spread: float     # max distance between restart solutions


def fit_kl_minimizer(true_spec, B0, fit_spec, X, rng):
    """Numerical KL projection of the true law onto the fitted model class.

    B_bar maximises the fitted family's expected log-likelihood: the
    likelihood kernel with the true means mu0 as responses and theta free of
    the configured interval, so minus the kernel is the summed KL up to a
    B-free constant.  Fisher scoring runs from the zero matrix and from
    KL_RESTARTS standard normal starts drawn from ``rng``, all in one
    stack; the reported gradient norm is that of the per-entry average,
    whose scale does not grow with n.

    The two families must share the law, a and k, and may differ only in
    the link, so the KL has the fitted family's closed form.
    A bernoulli_probit fitted family is rejected: the one eta-space
    function, ``families.log_likelihood_terms``, takes the unclipped probit
    likelihood as log Phi((2y - 1) eta), which holds only for binary y, and
    mu0 lies strictly between 0 and 1.
    """
    if (true_spec.law, true_spec.a, true_spec.k) \
            != (fit_spec.law, fit_spec.a, fit_spec.k):
        raise ValueError("true and fitted families must share a law up to "
                         "the link")
    if fit_spec.family == "bernoulli_probit":
        raise ValueError("the KL projection cannot fit bernoulli_probit: its "
                         "likelihood kernel needs binary responses")
    X = np.asarray(X, dtype=float)
    B0 = np.asarray(B0, dtype=float)
    theta0 = theta_from_eta(true_spec, X @ B0)
    mu0 = b_prime(true_spec, theta0)
    core = DataStack(X, mu0, replace(fit_spec, theta_lo=-np.inf,
                                     theta_hi=np.inf))
    starts = np.concatenate([np.zeros((1,) + B0.shape),
                             rng.standard_normal((KL_RESTARTS,) + B0.shape)])
    sols, values, grads = _fisher_scoring(core, starts, 0.0)
    best_index = int(np.argmin(values))
    best = sols[best_index]
    spread = float(np.max(np.linalg.norm(sols - best, axis=(1, 2))))
    gnorm = float(np.linalg.norm(grads[best_index])) / mu0.size
    theta_bar = theta_from_eta(fit_spec, X @ best)
    return KLFit(
        b_bar=best,
        kl_value=float(np.mean(kl_per_entry(fit_spec, theta0, theta_bar))),
        grad_norm=gnorm,
        restart_spread=spread,
    )


@dataclass
class MisspecConfig:
    p: int = 6
    q: int = 4
    r: int = 2
    n_grid: tuple = (400,)
    replications: int = 10
    alpha: float = 0.5
    design_mode: str = "iid"
    n_steps: int = 3000
    burn_in: int = 800
    thin: int = 5
    seed: int = 0

    def __post_init__(self):
        _check_study(self)


@dataclass
class MisspecCell:
    n: int
    kl_floor: float               # avg KL(P_B0, P_Bbar)
    r_n: float
    rank_bar: int
    theorem2_rhs: float           # bound on posterior-avg D_alpha
    oracle_rhs: float             # Corollary-2 bound on avg prediction error
    lhs_pred: np.ndarray          # per-rep posterior-avg (1/nq)||X(B-B0)||^2
    d_alpha: np.ndarray           # per-rep posterior-avg divergence to truth
    fit: KLFit = None

    @property
    def oracle_satisfied_fraction(self):
        return float(np.mean(self.lhs_pred <= self.oracle_rhs))


@dataclass
class MisspecStudyResult:
    cells: list

    def summary(self):
        return {
            "cells": [dict(
                n=c.n, kl_floor=c.kl_floor, r_n=c.r_n, rank_bar=c.rank_bar,
                theorem2_rhs=c.theorem2_rhs, oracle_rhs=c.oracle_rhs,
                mean_lhs_pred=float(np.mean(c.lhs_pred)),
                mean_d_alpha=float(np.mean(c.d_alpha)),
                oracle_satisfied_fraction=c.oracle_satisfied_fraction,
                grad_norm=c.fit.grad_norm,
                restart_spread=c.fit.restart_spread,
            ) for c in self.cells],
        }


def _misspec_cell(cfg, ci, X, truth):
    """The chain inputs of the misspecification cell on the design X and the
    function that turns its chains into a MisspecCell."""
    fit_spec, al = MISSPEC_FIT_FAMILY, cfg.alpha
    fb = family_bounds(fit_spec)
    n = X.shape[0]
    fit = fit_kl_minimizer(MISSPEC_TRUE_FAMILY, truth.b0, fit_spec, X,
                           np.random.default_rng([cfg.seed, 104729, ci]))
    b_bar = fit.b_bar
    rank_bar = int(np.linalg.matrix_rank(b_bar))
    x_frob = float(np.linalg.norm(X))
    tau = tau_preset("misspecified", n, cfg.p, cfg.q, fit_spec.a, x_frob)
    prior_cfg = PriorConfig(tau=tau, p=cfg.p, q=cfg.q)
    rates = rate_formulas(n, cfg.p, cfg.q, rank_bar, fit_spec.a, fb,
                          x_frob, float(np.linalg.norm(b_bar)))
    r_n = rates.r_n
    thm2_rhs = al / (1 - al) * fit.kl_value + (1 + al) / (1 - al) * r_n
    a = fit_spec.a
    oracle_rhs = (fb.c_u / fb.c_l * al / (1 - al)
                  * prediction_error(X, b_bar, truth.b0)
                  # second Corollary term = 4a(1+alpha)/(C_L(1-alpha)) * r_n/2
                  + 4.0 * a * (1 + al) / (fb.c_l * (1 - al)) * r_n / 2.0)

    def finish(chains):
        return MisspecCell(
            n=n, kl_floor=fit.kl_value, r_n=r_n, rank_bar=rank_bar,
            theorem2_rhs=thm2_rhs, oracle_rhs=oracle_rhs,
            lhs_pred=np.array([np.mean(prediction_error(
                X, chain.samples, truth.b0)) for chain in chains]),
            d_alpha=np.array([posterior_average_divergence(
                fit_spec, X, chain.samples, MISSPEC_TRUE_FAMILY, truth.b0,
                (al,))[al] for chain in chains]),
            fit=fit)

    return _cell_chains(cfg, [cfg.seed, 104729, ci], X, truth,
                        MISSPEC_TRUE_FAMILY, fit_spec, prior_cfg), finish


def run_misspec_study(cfg):
    """Probit-truth / logit-fit study checking the oracle inequality."""
    # One design and one truth shared across the grid (each cell uses the
    # first n rows), so the KL floor is stable and only n varies.
    master = np.random.default_rng([cfg.seed, 104729])
    X_full = make_design(max(cfg.n_grid), cfg.p, cfg.design_mode, master)
    truth = calibrate_scale(
        X_full, make_low_rank_truth(cfg.p, cfg.q, cfg.r, 1.0, master))
    cells = _run_cells([_misspec_cell(cfg, ci, X_full[:n], truth)
                        for ci, n in enumerate(cfg.n_grid)])
    return MisspecStudyResult(cells=cells)
