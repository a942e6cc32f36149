from dataclasses import replace

import numpy as np
import pytest

from frrr import experiments
from frrr.experiments import (RIDGE, MisspecConfig, RateStudyConfig,
                              fit_kl_minimizer, hellinger_consistency_check,
                              likelihood_ridge_fit,
                              posterior_average_divergence, run_misspec_study,
                              run_rate_study, sampling_box,
                              verify_divergence_bounds)
from frrr.divergence import (expected_log_ratio_sq, kl_per_entry,
                             lemma_bounds, misspec_kl_lhs, renyi_per_entry)
from frrr.families import (Dataset, FamilySpec, b_prime, family_bounds,
                           theta_from_eta)
from frrr.posterior import BLOCK_CELLS, log_likelihood_and_grad
from frrr.simulate import (SyntheticTruth, calibrate_scale, generate_dataset,
                           make_design, make_low_rank_truth)

from conftest import bounded_specs


class TestVerifyDivergenceBounds:
    def test_gaussian_tight(self, rng):
        spec = bounded_specs()["gaussian"]
        res = verify_divergence_bounds(spec, 1000, rng)
        assert all(v == 1.0 for v in res["satisfied_fraction"].values())
        ratio = res["kl_exact"] / np.maximum(res["kl_bound"], 1e-300)
        gap = np.abs(res["theta"] - res["zeta"]) > 1e-6
        assert np.all(np.abs(ratio[gap] - 1.0) < 1e-9)

    def test_bernoulli_all_lemmas(self, rng):
        spec = bounded_specs()["bernoulli_logit"]
        res = verify_divergence_bounds(spec, 1000, rng)
        assert all(v == 1.0 for v in res["satisfied_fraction"].values())

    def test_zero_gap_rows(self):
        spec = bounded_specs()["poisson_log"]

        class FixedRng:
            def __init__(self):
                self.val = np.full(5, 0.3)

            def uniform(self, lo, hi, size):
                return self.val[:size]

        res = verify_divergence_bounds(spec, 5, FixedRng())
        assert np.all(res["kl_exact"] == 0)
        assert np.all(res["kl_bound"] == 0)

    @pytest.mark.parametrize("name", sorted(bounded_specs()))
    def test_columns_are_the_library_lemmas(self, name, rng):
        # The harness must check the exported formulas, not a copy of them.
        spec = bounded_specs()[name]
        fb = family_bounds(spec)
        res = verify_divergence_bounds(spec, 50, rng)
        for i in range(50):
            T, Z = np.array([[res["theta"][i]]]), np.array([[res["zeta"][i]]])
            T0 = np.array([[res["theta0"][i]]])
            lb = lemma_bounds(fb, spec.a, T, Z, alpha=0.5)
            assert res["kl_bound"][i] == lb.kl_upper
            assert res["logsq_bound"][i] == lb.logsq_upper
            assert res["misspec_bound"][i] == lb.misspec_kl
            assert res["renyi_lower_bound"][0.5][i] == lb.renyi_lower
            assert res["logsq_exact"][i] == expected_log_ratio_sq(spec, T, Z)
            assert res["misspec_exact"][i] == misspec_kl_lhs(spec, T0, T, Z)

    def test_sampling_box(self):
        spec = FamilySpec("gamma_log", a=0.5, k=2.0,
                          theta_lo=-5.0, theta_hi=-0.2)
        lo, hi = sampling_box(spec)
        assert lo == -3.0 and hi == -0.2


class TestLikelihoodRidgeFit:
    def test_recovers_gaussian_ols_direction(self, rng):
        spec = FamilySpec("gaussian")
        X = make_design(200, 3, "iid", rng)
        B0 = 0.5 * rng.standard_normal((3, 2))
        data = generate_dataset(X, SyntheticTruth(B0, 2, 0.5), spec, rng)
        fit = likelihood_ridge_fit([data])[0]
        assert np.linalg.norm(fit - B0) < 0.5

    @pytest.mark.parametrize("spec", [
        FamilySpec("gaussian", a=2.0),
        FamilySpec("gaussian", theta_lo=-0.5, theta_hi=0.5),
    ], ids=["a2", "clipped"])
    def test_gaussian_is_the_closed_form(self, spec, rng):
        """theta is free in the fit, so a clipped gaussian family has the
        unclipped closed form too."""
        X = make_design(80, 4, "iid", rng)
        B0 = rng.standard_normal((4, 3))
        datasets = [generate_dataset(X, SyntheticTruth(B0, 3, 1.0), spec, rng)
                    for _ in range(3)]
        fits = likelihood_ridge_fit(datasets)
        G = X.T @ X / spec.a
        for fit, d in zip(fits, datasets):
            ref = np.linalg.solve(G + RIDGE * np.eye(4), X.T @ d.Y / spec.a)
            assert np.max(np.abs(fit - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("spec", [
        FamilySpec("gaussian", theta_lo=-3.0, theta_hi=3.0),
        FamilySpec("bernoulli_logit", theta_lo=-2.0, theta_hi=2.0),
        FamilySpec("bernoulli_probit", theta_lo=-2.0, theta_hi=2.0),
        FamilySpec("poisson_log"),
    ], ids=["gaussian", "bernoulli_logit", "bernoulli_probit", "poisson_log"])
    def test_stack_entry_is_its_one_dataset_fit(self, spec, rng):
        X = make_design(150, 4, "iid", rng)
        truth = calibrate_scale(X, make_low_rank_truth(4, 3, 2, 1.0, rng))
        datasets = [generate_dataset(X, truth, spec, rng) for _ in range(4)]
        fits = likelihood_ridge_fit(datasets)
        assert fits.shape == (4, 4, 3)
        for fit, d in zip(fits, datasets):
            assert np.array_equal(fit, likelihood_ridge_fit([d])[0])

    @pytest.mark.parametrize("spec", [
        FamilySpec("bernoulli_logit", theta_lo=-2.0, theta_hi=2.0),
        FamilySpec("poisson_log", theta_lo=-1.0, theta_hi=1.0),
    ], ids=["bernoulli_logit", "poisson_log"])
    def test_stationary_point_of_the_free_objective(self, spec, rng):
        """The fit zeroes the gradient of the ridge objective with theta free
        of the clipped interval, where many cells of the data lie."""
        X = make_design(300, 4, "iid", rng)
        truth = calibrate_scale(X, make_low_rank_truth(4, 3, 2, 1.0, rng))
        free = replace(spec, theta_lo=-np.inf, theta_hi=np.inf)
        Y = generate_dataset(X, truth, free, rng).Y
        fit = likelihood_ridge_fit([Dataset(X=X, Y=Y, family=spec)])[0]
        grad = RIDGE * fit - log_likelihood_and_grad(
            Dataset(X=X, Y=Y, family=free), fit)[1]
        assert np.linalg.norm(grad) < 1e-8
        raw = X @ fit
        assert np.mean((raw < spec.theta_lo) | (raw > spec.theta_hi)) > 0.05


class TestFitKLMinimizer:
    @pytest.mark.parametrize("spec", [
        FamilySpec("bernoulli_logit"), FamilySpec("poisson_log"),
        FamilySpec("gamma_log"), FamilySpec("negbin_log"),
        FamilySpec("gaussian", a=2.0),
    ], ids=["bernoulli_logit", "poisson_log", "gamma_log", "negbin_log",
            "gaussian_a2"])
    def test_same_family_recovers_truth(self, spec, rng):
        X = make_design(60, 3, "iid", rng)
        B0 = 0.4 * rng.standard_normal((3, 2))
        fit = fit_kl_minimizer(spec, B0, spec, X)
        assert np.linalg.norm(fit.b_bar - B0) < 1e-5
        assert fit.kl_value < 1e-10
        assert fit.grad_norm < 1e-6

    def test_single_cell_mean_matching(self):
        """Probit truth at eta=0 has mean 0.5; the logit projection matches it."""
        true_spec = FamilySpec("bernoulli_probit")
        fit_spec = FamilySpec("bernoulli_logit")
        X = np.ones((1, 1))
        B0 = np.zeros((1, 1))
        fit = fit_kl_minimizer(true_spec, B0, fit_spec, X)
        theta = theta_from_eta(fit_spec, X @ fit.b_bar)
        assert abs(b_prime(fit_spec, theta)[0, 0] - 0.5) < 1e-8

    def test_multi_start_agreement(self, rng):
        true_spec = FamilySpec("bernoulli_probit")
        fit_spec = FamilySpec("bernoulli_logit")
        X = make_design(50, 3, "iid", rng)
        B0 = make_low_rank_truth(3, 2, 1, 0.5, rng).b0
        fit = fit_kl_minimizer(true_spec, B0, fit_spec, X, restarts=5, rng=rng)
        assert fit.restart_spread < 1e-4
        assert fit.grad_norm < 1e-6

    def test_restarts_without_rng_rejected(self, rng):
        """Restarts draw their starts from rng, so asking for them without
        one is an error, not a run from the zero start alone."""
        spec = FamilySpec("bernoulli_logit")
        X = make_design(20, 2, "iid", rng)
        with pytest.raises(ValueError, match="rng"):
            fit_kl_minimizer(spec, np.zeros((2, 1)), spec, X, restarts=3)


class TestPosteriorAverageDivergence:
    @pytest.mark.parametrize("spec", [
        FamilySpec("gaussian", theta_lo=-3.0, theta_hi=3.0),
        FamilySpec("bernoulli_probit", theta_lo=-2.0, theta_hi=2.0),
    ], ids=["gaussian", "bernoulli_probit"])
    @pytest.mark.parametrize("n", [100, 3000])
    def test_blocks_match_one_sample_at_a_time(self, spec, n, rng):
        """n = 100 puts many samples in a block, n = 3000 one sample.  Both
        families are clipped, so neither has sufficient statistics and both
        run the blocks."""
        p, q = 5, 6
        X = make_design(n, p, "iid", rng)
        theta_ref = theta_from_eta(spec, X @ (0.3 * rng.standard_normal(
            (p, q))))
        samples = 0.3 * rng.standard_normal((90, p, q))
        alphas = (0.25, 0.5)
        got = posterior_average_divergence(spec, X, samples, theta_ref,
                                           alphas)
        idx = np.linspace(0, len(samples) - 1, 40).astype(int)
        assert (BLOCK_CELLS // (n * q) > 1) == (n == 100)
        for al in alphas:
            ref = float(np.mean([float(np.mean(renyi_per_entry(
                spec, theta_from_eta(spec, X @ samples[i]), theta_ref, al)))
                for i in idx]))
            assert got[al] == ref

    @staticmethod
    def gaussian_inputs(rng, p, q, off_model, n=300):
        X = make_design(n, p, "iid", rng)
        B0 = rng.standard_normal((p, q))
        theta_ref = X @ B0
        if off_model:
            theta_ref += 0.5 * rng.standard_normal((n, q))
        samples = B0 + 0.1 * rng.standard_normal((70, p, q))
        return X, samples, theta_ref

    @pytest.mark.parametrize("a", [1.0, 2.5])
    @pytest.mark.parametrize("off_model", [False, True],
                             ids=["on_model", "off_model"])
    @pytest.mark.parametrize("p,q", [(3, 5), (6, 4)])
    def test_sufficient_statistics_match_the_per_entry_closed_form(
            self, p, q, off_model, a, rng):
        """An unclipped gaussian family averages D_alpha through X^T X; a
        reference off the column space of X enters through its residual."""
        spec = FamilySpec("gaussian", a=a)
        X, samples, theta_ref = self.gaussian_inputs(rng, p, q, off_model)
        alphas = (0.25, 0.5)
        got = posterior_average_divergence(spec, X, samples, theta_ref,
                                           alphas)
        idx = np.linspace(0, len(samples) - 1, 40).astype(int)
        for al in alphas:
            ref = np.mean([np.mean(renyi_per_entry(
                spec, theta_from_eta(spec, X @ samples[i]), theta_ref, al))
                for i in idx])
            assert abs(got[al] - ref) <= 1e-12 * ref

    def test_sufficient_statistics_form_no_n_by_q_array(self, rng,
                                                        monkeypatch):
        """The closed form is read once, at scalars, and theta(B) is never
        formed."""
        def no_theta(*args):
            raise AssertionError("formed theta(B) for a sample")

        def scalar_only(spec, theta, zeta, alpha):
            assert np.ndim(theta) == np.ndim(zeta) == 0
            return renyi_per_entry(spec, theta, zeta, alpha)

        monkeypatch.setattr(experiments, "theta_from_eta", no_theta)
        monkeypatch.setattr(experiments, "renyi_per_entry", scalar_only)
        X, samples, theta_ref = self.gaussian_inputs(rng, 4, 3, True)
        got = posterior_average_divergence(FamilySpec("gaussian"), X,
                                           samples, theta_ref, (0.5,))
        assert got[0.5] > 0


class TestCrossDivergences:
    """Probit and logit share b(theta) = log(1 + e^theta) and a = 1, so the
    fitted family's closed forms are the divergences between the two laws."""

    def test_cross_kl_zero_at_matched_means(self):
        """Probit and logit laws with equal success prob have zero KL."""
        t = FamilySpec("bernoulli_probit")
        f = FamilySpec("bernoulli_logit")
        from scipy.special import logit
        theta0 = theta_from_eta(t, np.array(0.3))
        theta = np.array(logit(b_prime(t, theta0)))
        assert kl_per_entry(f, theta0, theta) < 1e-14
        assert renyi_per_entry(f, theta, theta0, 0.5) < 1e-14

    def test_cross_kl_positive(self):
        t = FamilySpec("bernoulli_probit")
        f = FamilySpec("bernoulli_logit")
        theta0 = theta_from_eta(t, np.array(0.5))
        theta = theta_from_eta(f, np.array(-0.5))
        assert kl_per_entry(f, theta0, theta) > 0
        assert renyi_per_entry(f, theta, theta0, 0.5) > 0

    def test_same_family_fallback(self, rng):
        """One family on both sides passes the law check; the KL floor is the
        closed form at the minimiser."""
        spec = FamilySpec("poisson_log")
        X = make_design(30, 2, "iid", rng)
        B0 = 0.3 * rng.standard_normal((2, 2))
        fit = fit_kl_minimizer(spec, B0, spec, X)
        theta0 = theta_from_eta(spec, X @ B0)
        theta_bar = theta_from_eta(spec, X @ fit.b_bar)
        assert fit.kl_value == float(np.mean(
            kl_per_entry(spec, theta0, theta_bar)))
        assert fit.kl_value < 1e-10

    def test_unsupported_pair(self, monkeypatch):
        """Laws that differ beyond the link (another family, or another
        dispersion a) are rejected before any minimising, and so is a probit
        fitted family, whose likelihood kernel needs binary responses."""
        def no_fit(*args, **kwargs):
            raise AssertionError("minimised before the law check")

        monkeypatch.setattr(experiments, "_fisher_scoring", no_fit)
        X, B0 = np.ones((2, 1)), np.full((1, 1), 0.1)
        probit = FamilySpec("bernoulli_probit")
        for true_spec, fit_spec, match in (
                (FamilySpec("poisson_log"), FamilySpec("gaussian"),
                 "share a law"),
                (FamilySpec("gaussian", a=1.0), FamilySpec("gaussian", a=2.0),
                 "share a law"),
                (FamilySpec("bernoulli_logit"), probit, "bernoulli_probit"),
                (probit, probit, "bernoulli_probit")):
            with pytest.raises(ValueError, match=match):
                fit_kl_minimizer(true_spec, B0, fit_spec, X)


class TestSmallStudies:
    def test_rate_study_smoke(self):
        cfg = RateStudyConfig(
            family=FamilySpec("gaussian"), p=3, q=2, r=1,
            n_grid=(40, 80), r_grid=(2,), n_ref=80, replications=2,
            n_steps=300, burn_in=100, thin=4, seed=2)
        res = run_rate_study(cfg)
        assert len(res.cells) == 3
        assert np.isfinite(res.slope)
        for c in res.cells:
            assert len(c.pred_err) == 2
            assert np.all(c.pred_err >= 0)
            assert c.prop1_bound > 0
        hc = hellinger_consistency_check(res)
        assert len(hc) == 3
        for row in hc:
            assert row["hellinger_sq"] >= 0

    @pytest.mark.parametrize("n_grid", [(40, 80), (40, 80, 160)],
                             ids=["two_points", "three_points"])
    def test_slope_se_needs_three_points(self, n_grid):
        """A log-log fit through two points is exact and has no standard
        error: slope_se is NaN, not rounding noise."""
        cfg = RateStudyConfig(
            family=FamilySpec("bernoulli_logit", theta_lo=-2.0, theta_hi=2.0),
            p=3, q=2, r=1, n_grid=n_grid, replications=2, n_steps=200,
            burn_in=50, thin=5, seed=3)
        res = run_rate_study(cfg)
        assert np.isfinite(res.slope)
        assert np.isnan(res.slope_se) == (len(n_grid) == 2)

    def test_replicate_rng_order(self, monkeypatch):
        """Each replicate's stream draws Y first, then the chain seed, and a
        study makes one sampler call, its chains in cell order."""
        calls = []
        run_chains = experiments.run_chains

        def recording(datasets, prior_cfgs, fracs):
            calls.append((datasets, prior_cfgs, fracs))
            return run_chains(datasets, prior_cfgs, fracs)

        monkeypatch.setattr(experiments, "run_chains", recording)
        spec = FamilySpec("gaussian")
        cfg = RateStudyConfig(family=spec, p=3, q=2, r=1, n_grid=(40, 80),
                              replications=3, n_steps=200, burn_in=50,
                              thin=5, seed=9)
        res = run_rate_study(cfg)
        assert len(calls) == 1
        all_data, all_priors, all_fracs = calls[0]
        R = cfg.replications
        assert len(all_data) == len(all_priors) == len(all_fracs) == 2 * R
        for cell in range(2):
            datasets = all_data[cell * R:(cell + 1) * R]
            fracs = all_fracs[cell * R:(cell + 1) * R]
            assert all(pc.tau == res.cells[cell].tau
                       for pc in all_priors[cell * R:(cell + 1) * R])
            rng = np.random.default_rng([cfg.seed, 7919, cell])
            X = make_design(cfg.n_grid[cell], cfg.p, "iid", rng)
            truth = calibrate_scale(X, make_low_rank_truth(cfg.p, cfg.q,
                                                           cfg.r, 1.0, rng))
            for rep, (data, frac) in enumerate(zip(datasets, fracs)):
                rep_rng = np.random.default_rng([cfg.seed, 7919, cell, rep])
                Y = generate_dataset(X, truth, spec, rep_rng).Y
                assert np.array_equal(data.X, X)
                assert np.array_equal(data.Y, Y)
                assert frac.seed == int(rep_rng.integers(2 ** 63))

    def test_rate_study_requires_positive_cl(self):
        # the config rejects C_L = 0, before any study work
        with pytest.raises(ValueError, match="positive C_L"):
            RateStudyConfig(family=FamilySpec("poisson_log"))

    def test_misspec_smoke(self):
        cfg = MisspecConfig(p=3, q=2, r=1, n_grid=(60,), replications=2,
                            n_steps=300, burn_in=100, seed=4)
        res = run_misspec_study(cfg)
        cell = res.cells[0]
        assert cell.kl_floor > 0
        assert cell.fit.grad_norm < 1e-6
        assert cell.oracle_rhs > 0
        assert len(cell.lhs_pred) == 2
        summary = res.summary()
        assert summary["cells"][0]["n"] == 60
