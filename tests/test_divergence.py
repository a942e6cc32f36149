import numpy as np
import pytest

from frrr.divergence import (LemmaBounds, c_alpha, divergence_report,
                             expected_log_ratio_sq, hellinger_sq,
                             kl_bruteforce, kl_per_entry, lemma_bounds,
                             misspec_kl_lhs, rate_formulas, renyi_bruteforce,
                             renyi_per_entry, tv_bruteforce)
from frrr.families import FamilyBounds, FamilySpec, family_bounds

from conftest import bounded_specs

ALPHAS = (0.25, 0.5, 0.75)


def random_pairs(spec, n, rng, half_width=3.0):
    lo = max(spec.theta_min, -half_width)
    hi = min(spec.theta_max, half_width)
    return rng.uniform(lo, hi, size=n), rng.uniform(lo, hi, size=n)


class TestKLPerEntry:
    def test_zero_at_equal(self):
        spec = FamilySpec("bernoulli_logit")
        assert kl_per_entry(spec, 0.3, 0.3) == 0.0

    def test_gaussian_closed_form(self):
        spec = FamilySpec("gaussian")
        assert abs(kl_per_entry(spec, 1.0, 3.0) - 2.0) < 1e-12

    def test_bernoulli_direct_sum(self):
        from scipy.special import expit
        spec = FamilySpec("bernoulli_logit")
        p, q = expit(0.0), expit(1.0)
        direct = p * np.log(p / q) + (1 - p) * np.log((1 - p) / (1 - q))
        val = kl_per_entry(spec, 0.0, 1.0)
        assert abs(val - direct) < 1e-12
        assert abs(val - 0.120115) < 1e-6

    @pytest.mark.parametrize("fam", sorted(bounded_specs()))
    def test_nonnegative_and_identity(self, fam, rng):
        spec = bounded_specs()[fam]
        theta, zeta = random_pairs(spec, 10 ** 4, rng)
        vals = kl_per_entry(spec, theta, zeta)
        assert np.all(vals >= 0)
        assert np.all(kl_per_entry(spec, theta, theta) == 0)
        gap = np.abs(theta - zeta) > 1e-8
        assert np.all(vals[gap] > 0)


class TestRenyiPerEntry:
    def test_zero_at_equal(self):
        spec = FamilySpec("poisson_log")
        for al in ALPHAS:
            assert renyi_per_entry(spec, -0.4, -0.4, al) == 0.0

    def test_gaussian_closed_form(self):
        spec = FamilySpec("gaussian")
        assert abs(renyi_per_entry(spec, 0.0, 2.0, 0.5) - 1.0) < 1e-12

    def test_bernoulli_direct_sum(self):
        from scipy.special import expit
        spec = FamilySpec("bernoulli_logit")
        p, q = expit(0.0), expit(1.0)
        direct = -2.0 * np.log(np.sqrt(p * q) + np.sqrt((1 - p) * (1 - q)))
        val = renyi_per_entry(spec, 0.0, 1.0, 0.5)
        assert abs(val - direct) < 1e-12
        assert abs(val - 0.058258) < 1e-5

    @pytest.mark.parametrize("fam", sorted(bounded_specs()))
    def test_monotone_in_alpha(self, fam, rng):
        spec = bounded_specs()[fam]
        theta, zeta = random_pairs(spec, 1000, rng)
        grid = np.arange(0.1, 0.91, 0.1)
        prev = None
        for al in grid:
            cur = renyi_per_entry(spec, theta, zeta, al)
            if prev is not None:
                assert np.all(cur >= prev - 1e-12)
            prev = cur

    def test_approaches_kl(self, rng):
        spec = FamilySpec("poisson_log")
        theta, zeta = random_pairs(spec, 100, rng, half_width=1.0)
        near = renyi_per_entry(spec, theta, zeta, 0.999)
        kl = kl_per_entry(spec, theta, zeta)
        assert np.allclose(near, kl, rtol=5e-3, atol=1e-8)


class TestBruteForceOracles:
    @pytest.mark.parametrize("fam", sorted(bounded_specs()))
    def test_kl_and_renyi_match(self, fam, rng):
        spec = bounded_specs()[fam]
        tol = 1e-8 if spec.is_discrete else 1e-6
        theta, zeta = random_pairs(spec, 25, rng)
        for t, z in zip(theta, zeta):
            assert abs(kl_per_entry(spec, t, z)
                       - kl_bruteforce(spec, t, z)) < tol
            for al in ALPHAS:
                assert abs(renyi_per_entry(spec, t, z, al)
                           - renyi_bruteforce(spec, t, z, al)) < tol

    def test_tv_single_bernoulli(self):
        from scipy.special import expit
        spec = FamilySpec("bernoulli_logit")
        tv = tv_bruteforce(spec, [0.0], [1.0])
        assert abs(tv - abs(0.5 - expit(1.0))) < 1e-12

    def test_tv_identical_laws(self):
        spec = FamilySpec("poisson_log")
        assert tv_bruteforce(spec, [0.2, -0.3], [0.2, -0.3]) < 1e-12

    def test_tv_renyi_inequality_3cell(self, rng):
        spec = FamilySpec("bernoulli_logit")
        for _ in range(20):
            theta = rng.uniform(-2, 2, 3)
            zeta = rng.uniform(-2, 2, 3)
            tv = tv_bruteforce(spec, theta, zeta)
            for al in ALPHAS:
                d_tot = float(np.sum(renyi_per_entry(spec, theta, zeta, al)))
                assert al / 2.0 * tv ** 2 <= d_tot + 1e-12

    def test_tv_gaussian_single_cell(self):
        from scipy.stats import norm
        spec = FamilySpec("gaussian")
        tv = tv_bruteforce(spec, [0.0], [2.0])
        assert abs(tv - (2 * norm.cdf(1.0) - 1)) < 1e-12
        with pytest.raises(ValueError):
            tv_bruteforce(spec, [0.0, 1.0], [1.0, 2.0])


class TestDivergenceReport:
    def test_identical_parameters(self):
        spec = FamilySpec("bernoulli_logit")
        rep = divergence_report(spec, np.zeros((2, 2)), np.zeros((2, 2)))
        assert rep.kl_total == 0.0
        assert all(v == 0.0 for v in rep.renyi_total.values())
        assert rep.hellinger_sq == 0.0

    def test_single_cell_hellinger(self):
        from scipy.special import expit
        spec = FamilySpec("bernoulli_logit")
        rep = divergence_report(spec, np.array([[0.0]]), np.array([[1.0]]))
        p, q = expit(0.0), expit(1.0)
        direct = (np.sqrt(p) - np.sqrt(q)) ** 2 \
            + (np.sqrt(1 - p) - np.sqrt(1 - q)) ** 2
        assert abs(rep.hellinger_sq - direct) < 1e-12
        assert abs(rep.hellinger_sq - 0.057416) < 1e-5

    def test_hellinger_without_half_among_alphas(self, rng):
        """Alphas that lack 0.5 still give H^2 from D_{1/2}, and report
        only the orders asked for."""
        spec = FamilySpec("poisson_log")
        T, Z = rng.uniform(-1, 1, (2, 3, 4))
        rep = divergence_report(spec, T, Z, alphas=(0.25, 0.75))
        assert set(rep.renyi_total) == {0.25, 0.75}
        assert rep.hellinger_sq == divergence_report(spec, T, Z).hellinger_sq
        assert rep.hellinger_sq == hellinger_sq(
            float(np.sum(renyi_per_entry(spec, T, Z, 0.5))))

    def test_gaussian_totals(self, rng):
        spec = FamilySpec("gaussian")
        Z = rng.standard_normal((2, 2))
        D = rng.standard_normal((2, 2))
        D *= np.sqrt(8.0) / np.linalg.norm(D)
        rep = divergence_report(spec, Z + D, Z)
        assert abs(rep.kl_total - 4.0) < 1e-9
        assert abs(rep.kl_avg - 1.0) < 1e-9

    def test_avg_times_entries_is_total(self, rng):
        spec = FamilySpec("poisson_log")
        T = rng.uniform(-1, 1, (3, 4))
        Z = rng.uniform(-1, 1, (3, 4))
        rep = divergence_report(spec, T, Z)
        assert abs(rep.kl_avg * 12 - rep.kl_total) < 1e-12
        for al in rep.renyi_avg:
            assert abs(rep.renyi_avg[al] * 12 - rep.renyi_total[al]) < 1e-12

    def test_hellinger_bounds_tv(self, rng):
        """H^2/2 <= TV <= upper bound on enumerable bernoulli products."""
        spec = FamilySpec("bernoulli_logit")
        for _ in range(10):
            T = rng.uniform(-2, 2, (2, 2))
            Z = rng.uniform(-2, 2, (2, 2))
            rep = divergence_report(spec, T, Z)
            tv = tv_bruteforce(spec, T, Z)
            assert rep.tv_lower <= tv + 1e-12
            assert tv <= rep.tv_upper + 1e-12
            assert rep.hellinger_sq <= float(
                np.sum(renyi_per_entry(spec, T, Z, 0.5))) + 1e-12


class TestLemmaBounds:
    def test_zero_gap(self):
        fb = FamilyBounds(0.1, 0.25, 1.0)
        lb = lemma_bounds(fb, 1.0, np.zeros((2, 2)), np.zeros((2, 2)))
        assert lb.kl_upper == lb.renyi_lower == lb.logsq_upper == 0.0

    def test_gaussian_tight(self):
        spec = FamilySpec("gaussian")
        fb = family_bounds(spec)
        lb = lemma_bounds(fb, 1.0, np.array([[0.0]]), np.array([[2.0]]))
        assert abs(lb.kl_upper - 2.0) < 1e-12
        assert abs(lb.renyi_lower - 2.0) < 1e-12  # alpha = 1 default
        assert abs(kl_per_entry(spec, 0.0, 2.0) - lb.kl_upper) < 1e-12

    def test_bernoulli_example(self):
        spec = FamilySpec("bernoulli_logit")
        fb = family_bounds(spec)
        lb = lemma_bounds(fb, 1.0, np.array([[0.0]]), np.array([[1.0]]))
        assert abs(lb.kl_upper - 0.125) < 1e-12
        assert kl_per_entry(spec, 0.0, 1.0) <= lb.kl_upper

    def test_alpha_prefactor(self):
        fb = FamilyBounds(1.0, 1.0, 1.0)
        lb = lemma_bounds(fb, 1.0, np.array([[0.0]]), np.array([[2.0]]),
                          alpha=0.5)
        assert abs(lb.renyi_lower - 1.0) < 1e-12

    def test_logsq_decomposition(self, rng):
        spec = bounded_specs()["poisson_log"]
        fb = family_bounds(spec)
        T = rng.uniform(-1, 1, (3, 3))
        Z = rng.uniform(-1, 1, (3, 3))
        lb = lemma_bounds(fb, spec.a, T, Z)
        assert expected_log_ratio_sq(spec, T, Z) <= lb.logsq_upper + 1e-12

    def test_misspec_lemma(self, rng):
        spec = bounded_specs()["bernoulli_logit"]
        fb = family_bounds(spec)
        T0 = rng.uniform(-2, 2, (3, 2))
        TB = rng.uniform(-2, 2, (3, 2))
        Z = rng.uniform(-2, 2, (3, 2))
        lhs = misspec_kl_lhs(spec, T0, TB, Z)
        lb = lemma_bounds(fb, spec.a, TB, Z)
        assert lhs <= lb.misspec_kl + 1e-12


class TestRateFormulas:
    FB = FamilyBounds(1.0, 1.0, 1.0)

    def test_rank_zero_convention(self):
        rf = rate_formulas(100, 3, 2, 0, 1.0, self.FB, 10.0, 1.0)
        assert rf.epsilon_n_thm1 == 0.0
        assert rf.r_n == 0.0

    def test_substitution_example(self):
        rf = rate_formulas(100, 2, 2, 1, 1.0, self.FB, 10.0, 1.0)
        # C_U 2 r (q+p+2) log(1 + x b sqrt(qp)/sqrt(4 a r)) / (nq)
        expected = 2 * 1 * 6 * np.log(1 + 10 * 2 / 2) / (100 * 2)
        assert abs(rf.epsilon_n_thm1 - expected) < 1e-12
        assert abs(rf.epsilon_n_thm1 - 12 * np.log(11) / 200) < 1e-12

    def test_doubling_n_halves(self):
        r1 = rate_formulas(100, 2, 2, 1, 1.0, self.FB, 10.0, 1.0)
        r2 = rate_formulas(200, 2, 2, 1, 1.0, self.FB, 10.0, 1.0)
        assert abs(r2.epsilon_n_thm1 - r1.epsilon_n_thm1 / 2) < 1e-15

    def test_thm3_max_form(self):
        rf = rate_formulas(100, 2, 2, 1, 1.0, self.FB, 10.0, 1.0)
        log_term = 2 * 1 * 6 * np.log(1 + 20 / np.sqrt(2)) / 200
        assert abs(rf.epsilon_n_thm3 - max(1.0 / 800, log_term)) < 1e-12

    def test_eps_prime(self):
        rf = rate_formulas(100, 2, 2, 1, 2.0, self.FB, 10.0, 1.0)
        log_term = 2 * 1 * 6 * np.log(1 + 20 / np.sqrt(2)) / 100
        assert abs(rf.epsilon_prime_n
                   - max(1 / 200, 1 / 1600, log_term)) < 1e-12

    def test_r_n_formula(self):
        rf = rate_formulas(100, 2, 2, 1, 1.0, self.FB, 10.0, 1.0)
        scale = 10 * 1 * 2 * np.sqrt(200) * np.sqrt(4) / 1.0
        expected = 1.0 * 2 * 1 * 6 * np.log(1 + scale / np.sqrt(2)) / 200
        assert abs(rf.r_n - expected) < 1e-12

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            rate_formulas(0, 2, 2, 1, 1.0, self.FB, 10.0, 1.0)
        with pytest.raises(ValueError):
            rate_formulas(10, 2, 2, -1, 1.0, self.FB, 10.0, 1.0)


class TestCAlpha:
    def test_branch_values(self):
        assert c_alpha(0.5) == 6.0
        assert c_alpha(0.25) == 10.0
        assert c_alpha(0.75) == 14.0

    def test_boundary(self):
        with pytest.raises(ValueError):
            c_alpha(1.0)
        with pytest.raises(ValueError):
            c_alpha(0.0)
