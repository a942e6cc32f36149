"""Verification harness: lemma sweeps, rate studies, misspecification study.

All theorem comparisons use exactly the constant prefactors of the stated
bounds; both sides are recorded.  Expectations over data are approximated by
replication averages with the design matrix and truth held fixed per cell,
and posterior integrals by averages over retained chain samples.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize
from scipy.special import logit

from .divergence import (c_alpha, kl_per_entry, lemma_rhs,
                         log_ratio_sq_per_entry, misspec_kl_per_entry,
                         rate_formulas, renyi_per_entry)
from .families import (Dataset, FamilySpec, b_prime, b_value, dtheta_deta,
                       family_bounds, theta_from_eta, theta_raw_from_eta)
from .posterior import (FractionalConfig, log_likelihood_and_grad,
                        posterior_mean, run_sampler)
from .prior import PriorConfig, tau_preset
from .simulate import (calibrate_scale, compute_kappa, generate_dataset,
                       make_design, make_low_rank_truth, prediction_error)


# ---------------------------------------------------------------------------
# lemma-inequality sweeps


def sampling_box(spec, half_width=3.0):
    """Working interval for random natural parameters: the configured interval
    intersected with [-half_width, half_width] (so unbounded families still
    get a finite box)."""
    lo = max(spec.theta_min, -half_width)
    hi = min(spec.theta_max, half_width)
    if not lo < hi:
        raise ValueError("empty sampling box")
    return lo, hi


def verify_divergence_bounds(spec, trials, rng, alphas=(0.25, 0.5, 0.75)):
    """Check the four divergence lemmas on random clipped parameter pairs.

    Returns a dict of per-trial arrays (exact values, bound values and
    satisfied flags) plus satisfied fractions per lemma.
    """
    bounds = family_bounds(spec)
    lo, hi = sampling_box(spec)
    theta = rng.uniform(lo, hi, size=trials)
    zeta = rng.uniform(lo, hi, size=trials)
    theta0 = rng.uniform(lo, hi, size=trials)

    diff_sq = (zeta - theta) ** 2
    rhs = lemma_rhs(bounds, spec.a, diff_sq, 1)
    kl_exact = kl_per_entry(spec, theta, zeta)
    renyi_lower = {al: lemma_rhs(bounds, spec.a, diff_sq, 1, al).renyi_lower
                   for al in alphas}
    renyi_exact = {al: renyi_per_entry(spec, theta, zeta, al) for al in alphas}
    logsq_exact = log_ratio_sq_per_entry(spec, theta, zeta)
    mis_exact = misspec_kl_per_entry(spec, theta0, theta, zeta)

    tol = 1e-12
    sat = {
        "kl_upper": kl_exact <= rhs.kl_upper * (1 + 1e-9) + tol,
        "renyi_lower": np.all(
            [renyi_exact[al] >= renyi_lower[al] * (1 - 1e-9) - tol
             for al in alphas],
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
# generic likelihood-only initializer for the samplers


def likelihood_ridge_fit(data, ridge=1e-3, maxiter=300):
    """Quick ridge-penalized maximum-likelihood point, used as chain init."""
    p, q = data.p, data.q

    def fun(v):
        B = v.reshape(p, q)
        lik, grad = log_likelihood_and_grad(data, B)
        val = -lik + 0.5 * ridge * float(np.sum(B ** 2))
        return val, (ridge * B - grad).ravel()

    res = minimize(fun, np.zeros(p * q), jac=True, method="L-BFGS-B",
                   options={"maxiter": maxiter})
    return res.x.reshape(p, q)


def posterior_average_divergence(spec, X, samples, B_ref, alphas, subsample=40):
    """Average per-entry-averaged D_alpha between theta(B) and theta(B_ref)
    over (a subsample of) retained chain samples."""
    theta_ref = theta_from_eta(spec, X @ B_ref)
    idx = np.linspace(0, len(samples) - 1, min(subsample, len(samples))).astype(int)
    out = {}
    for al in alphas:
        vals = [float(np.mean(renyi_per_entry(
            spec, theta_from_eta(spec, X @ samples[i]), theta_ref, al)))
            for i in idx]
        out[al] = float(np.mean(vals))
    return out


# ---------------------------------------------------------------------------
# rate study


@dataclass
class RateStudyConfig:
    family: FamilySpec
    p: int = 8
    q: int = 6
    r: int = 2
    n_grid: tuple = (100, 200, 400, 800, 1600)
    r_grid: tuple = ()          # extra ranks, run at n_ref
    n_ref: int = 400
    replications: int = 20
    alpha: float = 0.5
    alphas_div: tuple = (0.25, 0.5, 0.75)
    tau_preset: str = "theorem1"
    design_mode: str = "iid"
    n_steps: int = 3500
    burn_in: int = 1000
    thin: int = 5
    seed: int = 0


@dataclass
class RateCell:
    n: int
    r: int
    alpha: float
    tau: float
    kappa: float
    x_frob: float
    b_frob: float
    c_l: float
    c_u: float
    rates: object                 # RateFormulas at the cell's truth
    pred_err: np.ndarray          # per-rep ||X(Bhat - B0)||_F^2/(nq)
    pred_err_post: np.ndarray     # per-rep posterior-integrated version
    est_err: np.ndarray           # per-rep ||Bhat - B0||_F^2
    d_alpha: dict                 # alpha -> per-rep posterior-avg divergence
    acceptance: np.ndarray
    failures: list = field(default_factory=list)

    @property
    def prop1_bound(self):
        a = self.rates.inputs["a"]
        al = self.alpha
        return 2.0 * a * (1 + al) / (self.c_l * (1 - al)) * self.rates.epsilon_n_thm1

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

    def to_rows(self):
        rows = []
        for c in self.cells:
            for i in range(len(c.pred_err)):
                rows.append(dict(
                    n=c.n, r=c.r, rep=i,
                    pred_err=c.pred_err[i], pred_err_post=c.pred_err_post[i],
                    est_err=c.est_err[i],
                    d_alpha=c.d_alpha[c.alpha][i],
                    prop1_bound=c.prop1_bound,
                    acceptance=c.acceptance[i]))
        return rows

    def summary(self):
        return {
            "slope": self.slope,
            "slope_se": self.slope_se,
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


def _run_rate_cell(cfg, cell_index, n, r):
    spec = cfg.family
    rng = np.random.default_rng([cfg.seed, 7919, cell_index])
    X = make_design(n, cfg.p, cfg.design_mode, rng)
    truth = calibrate_scale(X, make_low_rank_truth(cfg.p, cfg.q, r, 1.0, rng))
    x_frob = float(np.linalg.norm(X))
    tau = tau_preset(cfg.tau_preset, n, cfg.p, cfg.q, spec.a, x_frob)
    prior_cfg = PriorConfig(tau=tau, p=cfg.p, q=cfg.q, preset=cfg.tau_preset)
    fb = family_bounds(spec)
    rates = rate_formulas(n, cfg.p, cfg.q, truth.rank, spec.a, fb,
                          x_frob, truth.frob)

    def one_rep(rep):
        rep_rng = np.random.default_rng([cfg.seed, 7919, cell_index, rep])
        data = generate_dataset(X, truth, spec, rep_rng)
        init = likelihood_ridge_fit(data)
        frac = FractionalConfig(
            alpha=cfg.alpha, n_steps=cfg.n_steps, burn_in=cfg.burn_in,
            thin=cfg.thin, seed=int(rep_rng.integers(2 ** 63)),
            algorithm="mala", init=init)
        chain = run_sampler(data, prior_cfg, frac)
        b_hat = posterior_mean(chain)
        post_pe = float(np.mean([
            prediction_error(X, s, truth.b0) for s in chain.samples[::10]]))
        div = posterior_average_divergence(
            spec, X, chain.samples, truth.b0, cfg.alphas_div)
        return dict(
            pred_err=prediction_error(X, b_hat, truth.b0),
            pred_err_post=post_pe,
            est_err=float(np.sum((b_hat - truth.b0) ** 2)),
            d_alpha=div,
            acceptance=chain.acceptance_rate)

    reps = [one_rep(rep) for rep in range(cfg.replications)]
    return RateCell(
        n=n, r=r, alpha=cfg.alpha, tau=tau,
        kappa=compute_kappa(X), x_frob=x_frob, b_frob=truth.frob,
        c_l=fb.c_l, c_u=fb.c_u, rates=rates,
        pred_err=np.array([x["pred_err"] for x in reps]),
        pred_err_post=np.array([x["pred_err_post"] for x in reps]),
        est_err=np.array([x["est_err"] for x in reps]),
        d_alpha={al: np.array([x["d_alpha"][al] for x in reps])
                 for al in cfg.alphas_div},
        acceptance=np.array([x["acceptance"] for x in reps]),
    )


def run_rate_study(cfg):
    """Replicated simulation across the (n, r) grid with theorem comparisons."""
    if family_bounds(cfg.family).c_l <= 0:
        raise ValueError("rate study requires a family with positive C_L")
    grid = [(n, cfg.r) for n in cfg.n_grid]
    grid += [(cfg.n_ref, r) for r in cfg.r_grid if r != cfg.r]
    cells = [_run_rate_cell(cfg, i, n, r) for i, (n, r) in enumerate(grid)]
    result = RateStudyResult(config=cfg, cells=cells)

    ncells = result.n_cells()
    if len(ncells) >= 2:
        x = np.log([c.n for c in ncells])
        y = np.log([np.mean(c.pred_err) for c in ncells])
        A = np.vstack([x, np.ones_like(x)]).T
        coef, res_, *_ = np.linalg.lstsq(A, y, rcond=None)
        resid = y - A @ coef
        dof = max(1, len(x) - 2)
        sxx = np.sum((x - x.mean()) ** 2)
        result.slope = float(coef[0])
        result.slope_se = float(np.sqrt(np.sum(resid ** 2) / dof / sxx))
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
        h_sq = 2.0 * (1.0 - np.exp(-0.5 * d_half))
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


def _true_means(true_spec, X, B0):
    theta0 = theta_from_eta(true_spec, X @ B0)
    return b_prime(true_spec, theta0), theta0


def cross_kl_avg(true_spec, theta0, fit_spec, theta):
    """Per-entry-averaged KL from the true law to the fitted law.

    Exact for bernoulli/bernoulli pairs and for identical families;
    other cross-family combinations are not supported.
    """
    both_bern = (true_spec.family.startswith("bernoulli")
                 and fit_spec.family.startswith("bernoulli"))
    if both_bern:
        p0 = b_prime(true_spec, theta0)
        p1 = b_prime(fit_spec, theta)
        val = (p0 * (np.log(p0) - np.log(p1))
               + (1 - p0) * (np.log1p(-p0) - np.log1p(-p1)))
        return float(np.mean(val))
    if true_spec.family == fit_spec.family:
        return float(np.mean(kl_per_entry(true_spec, theta0, theta)))
    raise ValueError("cross-family KL only available for bernoulli pairs")


def cross_renyi_avg(true_spec, theta0, fit_spec, theta, alpha):
    """Per-entry-averaged D_alpha between fitted and true law (bernoulli pairs)."""
    both_bern = (true_spec.family.startswith("bernoulli")
                 and fit_spec.family.startswith("bernoulli"))
    if both_bern:
        p1 = b_prime(fit_spec, theta)
        p0 = b_prime(true_spec, theta0)
        integ = (p1 ** alpha * p0 ** (1 - alpha)
                 + (1 - p1) ** alpha * (1 - p0) ** (1 - alpha))
        return float(np.mean(np.log(integ) / (alpha - 1.0)))
    if true_spec.family == fit_spec.family:
        return float(np.mean(renyi_per_entry(true_spec, theta, theta0, alpha)))
    raise ValueError("cross-family Renyi only available for bernoulli pairs")


@dataclass
class KLFit:
    b_bar: np.ndarray
    kl_value: float           # per-entry-averaged KL at the minimizer
    grad_norm: float
    restart_spread: float     # max distance between restart solutions
    converged: bool


def fit_kl_minimizer(true_spec, B0, fit_spec, X, max_rank=None,
                     restarts=0, rng=None, gtol=1e-10):
    """Numerical KL projection of the true law onto the fitted model class.

    Minimizes the per-entry average of [b(theta_ij) - mu0_ij theta_ij]/a over
    B (the KL up to a B-free constant), chain-ruled through the fitted link;
    an optional rank cap is enforced by truncated-SVD projection steps.  The
    per-entry normalization keeps the gradient scale independent of n.
    """
    X = np.asarray(X, dtype=float)
    p, q = X.shape[1], np.asarray(B0).shape[1]
    mu0, _ = _true_means(true_spec, X, np.asarray(B0, dtype=float))
    a = fit_spec.a
    m = mu0.size

    def objective(B):
        eta = X @ B
        theta = theta_raw_from_eta(fit_spec, eta)
        val = float(np.sum(b_value(fit_spec, theta) - mu0 * theta) / (a * m))
        S = (b_prime(fit_spec, theta) - mu0) * dtheta_deta(fit_spec, eta)
        return val, X.T @ S / (a * m)

    def flat_objective(v):
        val, g = objective(v.reshape(p, q))
        return val, g.ravel()

    def solve_from(B_init):
        if max_rank is None:
            res = minimize(flat_objective, B_init.ravel(), jac=True,
                           method="L-BFGS-B",
                           options={"maxiter": 2000, "gtol": gtol, "ftol": 1e-15})
            return res.x.reshape(p, q)
        # projected gradient with Armijo backtracking
        B = _svd_truncate(B_init, max_rank)
        val, g = objective(B)
        step = m / max(1.0, np.linalg.norm(X) ** 2)
        for _ in range(5000):
            for _ in range(40):
                cand = _svd_truncate(B - step * g, max_rank)
                cval, cg = objective(cand)
                if cval <= val - 1e-12:
                    break
                step *= 0.5
            moved = np.linalg.norm(cand - B)
            B, val, g = cand, cval, cg
            step *= 1.5
            if moved < 1e-10:
                break
        return B

    # warm start: least-squares match of the fitted-link predictor to mu0
    eta_target = _link_predictor(fit_spec, mu0)
    starts = [np.linalg.lstsq(X, eta_target, rcond=None)[0]]
    if restarts and rng is not None:
        starts += [rng.standard_normal((p, q)) for _ in range(restarts)]
    sols = [solve_from(s) for s in starts]
    vals = [objective(s)[0] for s in sols]
    best = sols[int(np.argmin(vals))]
    spread = max((np.linalg.norm(s - best) for s in sols), default=0.0)

    _, g = objective(best)
    gnorm = float(np.linalg.norm(g))
    theta_bar = theta_from_eta(fit_spec, X @ best)
    theta0 = theta_from_eta(true_spec, X @ np.asarray(B0, dtype=float))
    return KLFit(
        b_bar=best,
        kl_value=cross_kl_avg(true_spec, theta0, fit_spec, theta_bar),
        grad_norm=gnorm,
        restart_spread=float(spread),
        converged=gnorm < 1e-6 or max_rank is not None,
    )


def _svd_truncate(B, r):
    U, s, Vt = np.linalg.svd(B, full_matrices=False)
    s[r:] = 0.0
    return (U * s) @ Vt


def _link_predictor(spec, mu):
    """eta with fitted mean mu: inverse of b' composed with the link."""
    f = spec.family
    mu = np.clip(mu, 1e-12, None)
    if f == "gaussian":
        return mu + 0.0
    if f == "bernoulli_logit":
        return logit(np.clip(mu, 1e-12, 1 - 1e-12))
    if f == "bernoulli_probit":
        from scipy.special import ndtri
        return ndtri(np.clip(mu, 1e-12, 1 - 1e-12))
    # log links
    return np.log(mu)


@dataclass
class MisspecConfig:
    true_family: FamilySpec = None
    fit_family: FamilySpec = None
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
    restarts: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.true_family is None:
            self.true_family = FamilySpec("bernoulli_probit")
        if self.fit_family is None:
            # The tight interval keeps the KL floor well separated from the
            # O(1/n) posterior-spread term, so the D_alpha plateau is visible
            # at desk-scale n.
            self.fit_family = FamilySpec("bernoulli_logit",
                                         theta_lo=-2.0, theta_hi=2.0)


@dataclass
class MisspecCell:
    n: int
    kl_floor: float               # avg KL(P_B0, P_Bbar)
    r_n: float
    rank_bar: int
    b_bar_frob: float
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
    config: MisspecConfig
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


def run_misspec_study(cfg):
    """Probit-truth / logit-fit study checking the oracle inequality."""
    fit_spec = cfg.fit_family
    fb = family_bounds(fit_spec)
    if not np.isfinite(fb.u_1) or fb.c_l <= 0 or not np.isfinite(fb.c_u):
        raise ValueError("fitted family needs finite U_1, C_U and positive C_L")
    al = cfg.alpha
    cells = []
    # One design and one truth shared across the grid (each cell uses the
    # first n rows), so the KL floor is stable and only n varies.
    master = np.random.default_rng([cfg.seed, 104729])
    X_full = make_design(max(cfg.n_grid), cfg.p, cfg.design_mode, master)
    truth = calibrate_scale(
        X_full, make_low_rank_truth(cfg.p, cfg.q, cfg.r, 1.0, master))
    for ci, n in enumerate(cfg.n_grid):
        rng = np.random.default_rng([cfg.seed, 104729, ci])
        X = X_full[:n]
        fit = fit_kl_minimizer(cfg.true_family, truth.b0, fit_spec, X,
                               restarts=cfg.restarts, rng=rng)
        b_bar = fit.b_bar
        rank_bar = int(np.linalg.matrix_rank(b_bar))
        x_frob = float(np.linalg.norm(X))
        tau = tau_preset("misspecified", n, cfg.p, cfg.q, fit_spec.a, x_frob)
        prior_cfg = PriorConfig(tau=tau, p=cfg.p, q=cfg.q, preset="misspecified")
        rates = rate_formulas(n, cfg.p, cfg.q, rank_bar, fit_spec.a, fb,
                              x_frob, float(np.linalg.norm(b_bar)))
        r_n = rates.r_n
        thm2_rhs = al / (1 - al) * fit.kl_value + (1 + al) / (1 - al) * r_n
        a = fit_spec.a
        oracle_rhs = (fb.c_u / fb.c_l * al / (1 - al)
                      * prediction_error(X, b_bar, truth.b0)
                      # second Corollary term = 4a(1+alpha)/(C_L(1-alpha)) * r_n/2
                      + 4.0 * a * (1 + al) / (fb.c_l * (1 - al)) * r_n / 2.0)

        def one_rep(rep):
            rep_rng = np.random.default_rng([cfg.seed, 104729, ci, rep])
            data_true = generate_dataset(X, truth, cfg.true_family, rep_rng)
            data = Dataset(X=X, Y=data_true.Y, family=fit_spec)
            init = likelihood_ridge_fit(data)
            frac = FractionalConfig(
                alpha=al, n_steps=cfg.n_steps, burn_in=cfg.burn_in,
                thin=cfg.thin, seed=int(rep_rng.integers(2 ** 63)),
                algorithm="mala", init=init)
            chain = run_sampler(data, prior_cfg, frac)
            lhs = float(np.mean([
                prediction_error(X, s, truth.b0) for s in chain.samples]))
            theta0 = theta_from_eta(cfg.true_family, X @ truth.b0)
            idx = np.linspace(0, len(chain.samples) - 1,
                              min(40, len(chain.samples))).astype(int)
            dvals = [cross_renyi_avg(
                cfg.true_family, theta0, fit_spec,
                theta_from_eta(fit_spec, X @ chain.samples[i]), al)
                for i in idx]
            return lhs, float(np.mean(dvals))

        reps = [one_rep(rep) for rep in range(cfg.replications)]
        cells.append(MisspecCell(
            n=n, kl_floor=fit.kl_value, r_n=r_n, rank_bar=rank_bar,
            b_bar_frob=float(np.linalg.norm(b_bar)),
            theorem2_rhs=thm2_rhs, oracle_rhs=oracle_rhs,
            lhs_pred=np.array([x[0] for x in reps]),
            d_alpha=np.array([x[1] for x in reps]),
            fit=fit))
    return MisspecStudyResult(config=cfg, cells=cells)
