import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import log_ndtr

from frrr.families import (FAMILY_IDS, LOG_NDTR_BELOW, Dataset, FamilyBounds,
                           FamilySpec, InvalidParameterError, b_prime,
                           b_second, b_value, family_bounds,
                           linear_predictor, link_terms,
                           log_norm_cdf_and_ratio, response_in_support,
                           sample_response, theta_from_eta,
                           theta_raw_from_eta)

from conftest import bounded_specs, default_specs


def link_of(spec):
    """The family's link h applied to the mean: eta as a function of theta."""
    f = spec.family
    if f in ("gaussian", "bernoulli_logit", "poisson_log"):
        return lambda t: t
    if f == "bernoulli_probit":
        from scipy.special import expit, ndtri
        return lambda t: ndtri(expit(t))
    # log link on the mean for gamma/negbin
    return lambda t: np.log(b_prime(spec, t))


class TestThetaFromEta:
    def test_canonical_identity(self):
        spec = FamilySpec("bernoulli_logit")
        assert theta_from_eta(spec, 0.7) == 0.7

    def test_probit_zero(self):
        spec = FamilySpec("bernoulli_probit")
        assert abs(theta_from_eta(spec, 0.0)) < 1e-15

    @pytest.mark.parametrize("eta", [-40.0, 40.0, -1e5])
    def test_probit_scalar_tails(self, eta):
        """A 0-d eta beyond LOG_NDTR_BELOW on one side or the other: theta
        is log Phi(eta) - log Phi(-eta), odd, with a finite slope."""
        spec = FamilySpec("bernoulli_probit")
        theta, dtheta = link_terms(spec, eta)
        want = log_ndtr(eta) - log_ndtr(-eta)
        assert np.ndim(theta) == np.ndim(dtheta) == 0
        assert abs(theta - want) <= 1e-14 * abs(want)
        assert theta_from_eta(spec, -eta) == -theta
        assert np.isfinite(dtheta) and dtheta > 0

    def test_gamma_bisection_oracle(self):
        spec = FamilySpec("gamma_log")
        # solve log(-1/theta) = 0 by bisection
        root = brentq(lambda t: np.log(-1.0 / t), -10.0, -0.1)
        assert abs(theta_raw_from_eta(spec, 0.0) - root) < 1e-10
        assert abs(theta_raw_from_eta(spec, 0.0) - (-1.0)) < 1e-12

    def test_negbin_bisection_oracle(self):
        spec = FamilySpec("negbin_log", k=3.0)
        eta = np.log(3.0)
        root = brentq(
            lambda t: np.log(spec.k * np.exp(t) / (1 - np.exp(t))) - eta,
            -20.0, -1e-9)
        val = theta_raw_from_eta(spec, eta)
        assert abs(val - root) < 1e-8
        assert abs(val - np.log(0.5)) < 1e-12

    @pytest.mark.parametrize("fam", FAMILY_IDS)
    def test_link_round_trip(self, fam, rng):
        spec = default_specs()[fam]
        h = link_of(spec)
        etas = rng.uniform(-6.0, 6.0, size=1000)
        theta = theta_raw_from_eta(spec, etas)
        ok = (theta >= spec.theta_min) & (theta <= spec.theta_max)
        assert np.allclose(h(theta[ok]), etas[ok], atol=1e-8)

    @pytest.mark.parametrize("fam", FAMILY_IDS)
    def test_monotone_in_eta(self, fam):
        spec = default_specs()[fam]
        grid = np.linspace(-6.0, 6.0, 500)
        vals = theta_from_eta(spec, grid)
        assert np.all(np.diff(vals) >= 0)

    def test_clipping_respects_interval(self):
        spec = FamilySpec("poisson_log", theta_lo=-1.0, theta_hi=1.0)
        assert theta_from_eta(spec, 5.0) == 1.0
        assert theta_from_eta(spec, -5.0) == -1.0


class TestBFunctions:
    def test_gaussian_values(self):
        spec = FamilySpec("gaussian")
        assert b_value(spec, 2.0) == 2.0
        assert b_prime(spec, 2.0) == 2.0
        assert b_second(spec, 2.0) == 1.0

    def test_bernoulli_values(self):
        spec = FamilySpec("bernoulli_logit")
        assert abs(b_value(spec, 0.0) - np.log(2.0)) < 1e-15
        assert b_prime(spec, 0.0) == 0.5
        assert b_second(spec, 0.0) == 0.25

    @pytest.mark.parametrize("fam", ["bernoulli_logit", "bernoulli_probit"])
    def test_bernoulli_variance_does_not_cancel_in_the_tails(self, fam):
        """b'' = e^{-|theta|} / (1 + e^{-|theta|})^2 to a few ulps where
        b'(1 - b') loses every digit (it reads 0 from theta near 37)."""
        theta = np.array([-40.0, -30.0, -20.0, 20.0, 30.0, 40.0])
        e = np.exp(-np.abs(theta))
        exact = e / (1.0 + e) ** 2
        got = b_second(FamilySpec(fam), theta)
        assert np.all(np.abs(got - exact) <= 2e-15 * exact)

    def test_poisson_values(self):
        spec = FamilySpec("poisson_log")
        assert b_value(spec, 0.0) == 1.0
        assert b_prime(spec, 0.0) == 1.0
        assert b_second(spec, 0.0) == 1.0

    @pytest.mark.parametrize("fam", FAMILY_IDS)
    def test_bprime_bsecond_are_derivatives(self, fam, rng):
        spec = bounded_specs()[fam]
        theta = rng.uniform(spec.theta_min, spec.theta_max, size=50)
        h = 1e-6
        fd1 = (b_value(spec, theta + h) - b_value(spec, theta - h)) / (2 * h)
        fd2 = (b_prime(spec, theta + h) - b_prime(spec, theta - h)) / (2 * h)
        assert np.allclose(fd1, b_prime(spec, theta), rtol=1e-5, atol=1e-7)
        assert np.allclose(fd2, b_second(spec, theta), rtol=1e-4, atol=1e-6)
        assert np.all(b_second(spec, theta) >= 0)

    def test_gamma_domain_violation(self):
        spec = FamilySpec("gamma_log")
        with pytest.raises(InvalidParameterError):
            b_value(spec, 0.5)


class TestDthetaDeta:
    """d theta / d eta, the second output of ``link_terms``, on specs whose
    interval leaves the link unclipped at the points used."""

    def test_canonical_is_one(self):
        spec = FamilySpec("poisson_log")
        assert link_terms(spec, 1.3)[1] == 1.0

    def test_probit_at_zero(self):
        spec = FamilySpec("bernoulli_probit")
        assert abs(link_terms(spec, 0.0)[1] - 0.3989422804014327 / 0.25) \
            < 1e-10

    def test_gamma_at_zero(self):
        spec = FamilySpec("gamma_log")
        assert link_terms(spec, 0.0)[1] == 1.0

    def test_probit_matches_log_ndtr(self):
        """The probit slope phi(eta) / (Phi(eta) Phi(-eta)) within 1e-12
        relative of its value in logs, across the log_ndtr fallback."""
        spec = FamilySpec("bernoulli_probit")
        eta = np.linspace(-45.0, 45.0, 9001)
        want = np.exp(-0.5 * eta ** 2 - 0.5 * np.log(2.0 * np.pi)
                      - log_ndtr(eta) - log_ndtr(-eta))
        assert np.all(np.abs(link_terms(spec, eta)[1] - want) <= 1e-12 * want)

    @pytest.mark.parametrize("fam", FAMILY_IDS)
    def test_matches_finite_difference(self, fam, rng):
        spec = default_specs()[fam]
        etas = rng.uniform(-4.0, 4.0, size=1000)
        h = 1e-5
        fd = (theta_raw_from_eta(spec, etas + h)
              - theta_raw_from_eta(spec, etas - h)) / (2 * h)
        dtheta = link_terms(spec, etas)[1]
        assert np.allclose(dtheta, fd, rtol=1e-5)
        assert np.all(dtheta > 0)


class TestLogNormCdf:
    def test_ratio_pass_matches_log_ndtr(self):
        """The kernel's pass: log Phi within 1e-14 relative for z < 0 and,
        since Phi = h + (1 - 2h) rounds twice, within 1.2e-16 absolute for
        z >= 0; phi / Phi within 1e-12 relative of the ratio in logs."""
        switch = LOG_NDTR_BELOW
        z = np.concatenate([
            np.linspace(-45.0, 45.0, 180001),
            np.linspace(switch - 1.5, switch + 1.0, 2501),
            [switch, np.nextafter(switch, 0.0), np.nextafter(switch, -np.inf),
             0.0, -0.0]])
        log_cdf, ratio = log_norm_cdf_and_ratio(z)
        want = log_ndtr(z)
        want_ratio = np.exp(-0.5 * z * z - 0.5 * np.log(2.0 * np.pi) - want)
        assert np.all(np.isfinite(log_cdf)) and np.all(np.isfinite(ratio))
        neg = z < 0.0
        assert np.all(np.abs(log_cdf - want)[neg]
                      <= 1e-14 * np.abs(want[neg]))
        assert np.all(np.abs(log_cdf - want)[~neg] <= 1.2e-16)
        assert np.all(np.abs(ratio - want_ratio) <= 1e-12 * want_ratio)


class TestFamilyBounds:
    def test_gaussian_unbounded(self):
        fb = family_bounds(FamilySpec("gaussian"))
        assert fb.c_l == fb.c_u == 1.0
        assert np.isinf(fb.u_1)

    def test_bernoulli_interval(self):
        fb = family_bounds(FamilySpec("bernoulli_logit",
                                      theta_lo=-2.0, theta_hi=2.0))
        assert fb.c_u == 0.25
        assert abs(fb.c_l - np.exp(2) / (1 + np.exp(2)) ** 2) < 1e-12
        assert abs(fb.u_1 - 1 / (1 + np.exp(-2))) < 1e-12

    @pytest.mark.parametrize("fam", ["bernoulli_logit", "bernoulli_probit"])
    def test_unclipped_bernoulli_is_exact_at_both_ends(self, fam):
        """The mean -expm1(-b) is exactly 0 at theta = -inf and 1 at +inf."""
        assert family_bounds(FamilySpec(fam)) == FamilyBounds(0.0, 0.25, 1.0)

    def test_poisson_interval(self):
        fb = family_bounds(FamilySpec("poisson_log",
                                      theta_lo=-1.0, theta_hi=1.0))
        assert abs(fb.c_l - np.exp(-1)) < 1e-12
        assert abs(fb.c_u - np.exp(1)) < 1e-12

    @pytest.mark.parametrize("fam", FAMILY_IDS)
    def test_grid_check(self, fam):
        spec = bounded_specs()[fam]
        grid = np.linspace(spec.theta_min, spec.theta_max, 2000)
        fb = family_bounds(spec)
        vals = b_second(spec, grid)
        assert np.all(vals >= fb.c_l - 1e-12)
        assert np.all(vals <= fb.c_u + 1e-12)
        assert np.all(np.abs(b_prime(spec, grid)) <= fb.u_1 + 1e-12)

    def test_gamma_unbounded_marker(self):
        spec = FamilySpec("gamma_log", clip_margin=1e-9)
        fb = family_bounds(spec)
        assert fb.c_u > 1e17  # blows up as theta_hi -> 0


class TestSampleResponse:
    def test_gaussian_mean(self, rng):
        spec = FamilySpec("gaussian")
        draws = sample_response(spec, np.full(10 ** 5, 3.0), rng)
        assert abs(draws.mean() - 3.0) < 0.02

    def test_bernoulli_frequency(self, rng):
        spec = FamilySpec("bernoulli_logit")
        draws = sample_response(spec, np.zeros(10 ** 5), rng)
        assert abs(draws.mean() - 0.5) < 0.01

    def test_negbin_mean(self, rng):
        spec = FamilySpec("negbin_log", k=2.0)
        theta = np.log(0.5)
        draws = sample_response(spec, np.full(10 ** 5, theta), rng)
        assert abs(draws.mean() - 2.0) < 0.05

    @pytest.mark.parametrize("fam", FAMILY_IDS)
    def test_moments_match_b(self, fam, rng):
        spec = bounded_specs()[fam]
        theta = 0.5 * (spec.theta_min + spec.theta_max)
        draws = sample_response(spec, np.full(10 ** 5, theta), rng)
        mean, var = b_prime(spec, theta), spec.a * b_second(spec, theta)
        se_mean = np.sqrt(var / draws.size)
        assert abs(draws.mean() - mean) < 5 * se_mean
        # 5-sigma band on the sample variance via the fourth moment
        se_var = np.std((draws - mean) ** 2) / np.sqrt(draws.size)
        assert abs(draws.var() - var) < 5 * se_var + 1e-5
        assert np.all(response_in_support(spec, draws))


class TestLinearPredictorAndDataset:
    def test_identity_design(self, rng):
        B = rng.standard_normal((4, 3))
        assert np.array_equal(linear_predictor(np.eye(4), B), B)

    def test_zero_design(self):
        assert np.all(linear_predictor(np.zeros((3, 2)),
                                       np.ones((2, 2))) == 0)

    def test_matches_triple_loop(self, rng):
        X = rng.standard_normal((3, 2))
        B = rng.standard_normal((2, 2))
        eta = linear_predictor(X, B)
        naive = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(2):
                    naive[i, j] += X[i, k] * B[k, j]
        assert np.allclose(eta, naive, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            linear_predictor(np.zeros((3, 2)), np.zeros((3, 2)))

    def test_dataset_support_validation(self):
        spec = FamilySpec("bernoulli_logit")
        with pytest.raises(ValueError):
            Dataset(X=np.zeros((2, 2)), Y=np.full((2, 1), 0.5), family=spec)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FamilySpec("nope")
        with pytest.raises(ValueError):
            FamilySpec("gaussian", a=-1.0)
        with pytest.raises(ValueError):
            FamilySpec("gamma_log", a=0.5, k=3.0)  # needs a = 1/k

    @pytest.mark.parametrize("family,settings,message", [
        ("poisson_log", dict(a=2.0), "fixed dispersion"),
        ("bernoulli_logit", dict(a=0.5), "fixed dispersion"),
        ("negbin_log", dict(a=2.0), "fixed dispersion"),
        ("gaussian", dict(theta_lo=1.0, theta_hi=-1.0), "empty"),
        ("gamma_log", dict(theta_lo=-0.5, theta_hi=-1.0), "empty"),
        ("negbin_log", dict(theta_lo=-0.01, clip_margin=0.1), "empty"),
        ("negbin_log", dict(k=0.0), "k must be positive"),
        ("gamma_log", dict(k=-2.0), "k must be positive"),
        ("gamma_log", dict(clip_margin=0.0), "clip_margin must be positive"),
        ("negbin_log", dict(clip_margin=-1e-3), "clip_margin must be positive"),
        ("gaussian", dict(k=7.0), "reads no k"),
        ("bernoulli_probit", dict(k=2.0), "reads no k"),
        ("poisson_log", dict(k=0.5), "reads no k"),
        ("gaussian", dict(clip_margin=0.5), "no open boundary"),
        ("bernoulli_logit", dict(clip_margin=1e-2), "no open boundary"),
        ("poisson_log", dict(clip_margin=0.5), "no open boundary"),
    ], ids=["poisson_a", "bernoulli_a", "negbin_a", "gaussian_empty",
            "gamma_empty", "negbin_empty_by_margin", "negbin_k_0",
            "gamma_k_negative", "gamma_clip_margin_0",
            "negbin_clip_margin_negative", "gaussian_k", "probit_k",
            "poisson_k", "gaussian_clip_margin", "logit_clip_margin",
            "poisson_clip_margin"])
    def test_spec_rejects(self, family, settings, message):
        with pytest.raises(ValueError, match=message):
            FamilySpec(family, **settings)
