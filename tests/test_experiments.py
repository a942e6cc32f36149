import numpy as np
import pytest

from frrr.experiments import (MisspecConfig, RateStudyConfig, cross_kl_avg,
                              cross_renyi_avg, fit_kl_minimizer,
                              hellinger_consistency_check,
                              likelihood_ridge_fit, run_misspec_study,
                              run_rate_study, sampling_box,
                              verify_divergence_bounds)
from frrr.divergence import (expected_log_ratio_sq, lemma_bounds,
                             misspec_kl_lhs)
from frrr.families import FamilySpec, b_prime, family_bounds, theta_from_eta
from frrr.simulate import make_design, make_low_rank_truth

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
        from frrr.simulate import SyntheticTruth, generate_dataset
        data = generate_dataset(X, SyntheticTruth(B0, 2, 0.5), spec, rng)
        fit = likelihood_ridge_fit(data)
        assert np.linalg.norm(fit - B0) < 0.5


class TestFitKLMinimizer:
    def test_same_family_recovers_truth(self, rng):
        spec = FamilySpec("bernoulli_logit")
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

    def test_rank_constraint_raises_kl(self, rng):
        true_spec = FamilySpec("bernoulli_probit")
        fit_spec = FamilySpec("bernoulli_logit")
        X = make_design(40, 4, "iid", rng)
        B0 = make_low_rank_truth(4, 3, 2, 0.5, rng).b0
        free = fit_kl_minimizer(true_spec, B0, fit_spec, X)
        constrained = fit_kl_minimizer(true_spec, B0, fit_spec, X, max_rank=1)
        assert constrained.kl_value >= free.kl_value - 1e-12

    def test_multi_start_agreement(self, rng):
        true_spec = FamilySpec("bernoulli_probit")
        fit_spec = FamilySpec("bernoulli_logit")
        X = make_design(50, 3, "iid", rng)
        B0 = make_low_rank_truth(3, 2, 1, 0.5, rng).b0
        fit = fit_kl_minimizer(true_spec, B0, fit_spec, X, restarts=5, rng=rng)
        assert fit.restart_spread < 1e-4
        assert fit.converged


class TestCrossDivergences:
    def test_cross_kl_zero_at_matched_means(self):
        """Probit and logit laws with equal success prob have zero KL."""
        t = FamilySpec("bernoulli_probit")
        f = FamilySpec("bernoulli_logit")
        from scipy.special import logit
        theta0 = np.array(0.3)
        p = float(b_prime(t, theta0))
        theta = np.array(logit(p))
        assert cross_kl_avg(t, theta0, f, theta) < 1e-14
        assert cross_renyi_avg(t, theta0, f, theta, 0.5) < 1e-14

    def test_cross_kl_positive(self):
        t = FamilySpec("bernoulli_probit")
        f = FamilySpec("bernoulli_logit")
        assert cross_kl_avg(t, np.array(0.5), f, np.array(-0.5)) > 0

    def test_same_family_fallback(self, rng):
        spec = FamilySpec("poisson_log")
        from frrr.divergence import kl_per_entry
        t0, t1 = np.array(0.2), np.array(-0.1)
        assert abs(cross_kl_avg(spec, t0, spec, t1)
                   - float(kl_per_entry(spec, t0, t1))) < 1e-14

    def test_unsupported_pair(self):
        with pytest.raises(ValueError):
            cross_kl_avg(FamilySpec("poisson_log"), np.array(0.1),
                         FamilySpec("gaussian"), np.array(0.1))


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
        rows = res.to_rows()
        assert len(rows) == 6
        hc = hellinger_consistency_check(res)
        assert len(hc) == 3
        for row in hc:
            assert row["hellinger_sq"] >= 0

    def test_rate_study_requires_positive_cl(self):
        cfg = RateStudyConfig(family=FamilySpec("poisson_log"))
        with pytest.raises(ValueError):
            run_rate_study(cfg)

    def test_misspec_smoke(self):
        cfg = MisspecConfig(p=3, q=2, r=1, n_grid=(60,), replications=2,
                            n_steps=300, burn_in=100, restarts=2, seed=4)
        res = run_misspec_study(cfg)
        cell = res.cells[0]
        assert cell.kl_floor > 0
        assert cell.fit.grad_norm < 1e-6
        assert cell.oracle_rhs > 0
        assert len(cell.lhs_pred) == 2
        summary = res.summary()
        assert summary["cells"][0]["n"] == 60

    def test_misspec_requires_finite_bounds(self):
        cfg = MisspecConfig(fit_family=FamilySpec("bernoulli_logit"))
        # unbounded logit interval has C_L = 0
        with pytest.raises(ValueError):
            run_misspec_study(cfg)
