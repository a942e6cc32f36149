from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import log_ndtr

from frrr.families import (CLIP_MARGIN, FAMILY_IDS, LOG_NDTR_BELOW, Dataset,
                           FamilyBounds, FamilySpec, InvalidParameterError,
                           _raw_link,
                           b_prime, b_second, b_value, family_bounds,
                           linear_predictor, link_terms, log_likelihood_terms,
                           log_norm_cdf_and_ratio, response_in_support,
                           sample_response, theta_from_eta)

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
        assert abs(_raw_link(spec, 0.0)[0] - root) < 1e-10
        assert abs(_raw_link(spec, 0.0)[0] - (-1.0)) < 1e-12

    def test_negbin_bisection_oracle(self):
        spec = FamilySpec("negbin_log", k=3.0)
        eta = np.log(3.0)
        root = brentq(
            lambda t: np.log(spec.k * np.exp(t) / (1 - np.exp(t))) - eta,
            -20.0, -1e-9)
        val = _raw_link(spec, eta)[0]
        assert abs(val - root) < 1e-8
        assert abs(val - np.log(0.5)) < 1e-12

    @pytest.mark.parametrize("fam", FAMILY_IDS)
    def test_link_round_trip(self, fam, rng):
        spec = default_specs()[fam]
        h = link_of(spec)
        etas = rng.uniform(-6.0, 6.0, size=1000)
        theta = _raw_link(spec, etas)[0]
        ok = (theta >= spec.theta_lo) & (theta <= spec.theta_hi)
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
        theta = rng.uniform(spec.theta_lo, spec.theta_hi, size=50)
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
        fd = (_raw_link(spec, etas + h)[0]
              - _raw_link(spec, etas - h)[0]) / (2 * h)
        dtheta = link_terms(spec, etas)[1]
        assert np.allclose(dtheta, fd, rtol=1e-5)
        assert np.all(dtheta > 0)


class TestLogNormCdf:
    def test_ratio_pass_matches_log_ndtr(self):
        """The kernel's pass: log Phi within 1e-14 relative for z < 0 and,
        since Phi = 1 - e / 2 rounds once, e = erfc(z / sqrt 2), within
        1.2e-16 absolute for z >= 0; phi / Phi within 1e-12 relative of the
        ratio in logs, on both sides of the fallback at |z| = 37."""
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

    def test_no_flag_short_of_the_fallback(self):
        """With every |z| short of -LOG_NDTR_BELOW the pass runs outside any
        errstate, so it must raise no divide, overflow or invalid flag:
        through ``log_norm_cdf_and_ratio`` and through the cell constants of
        ``log_likelihood_terms``, at both signs."""
        top = np.nextafter(-LOG_NDTR_BELOW, 0.0)
        z = np.concatenate([np.linspace(-top, top, 20001),
                            [-top, top, 0.0, -0.0]])
        y = (np.arange(z.size) % 2).astype(float)
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            log_cdf, ratio = log_norm_cdf_and_ratio(z)
            cell, slope = log_likelihood_terms(
                FamilySpec("bernoulli_probit"), y, z)
        for v in (log_cdf, ratio, cell, slope):
            assert np.all(np.isfinite(v))

    def test_a_nan_cell_leaves_the_far_cells_to_the_fallback(self):
        """A NaN z gives NaN and raises no flag, and the cells beyond
        -LOG_NDTR_BELOW beside it get the bits they get without it."""
        z = np.array([-40.0, -37.5, 38.0, 1.0])
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            log_cdf, ratio = log_norm_cdf_and_ratio(np.append(z, np.nan))
        assert np.isnan(log_cdf[-1]) and np.isnan(ratio[-1])
        want, want_ratio = log_norm_cdf_and_ratio(z)
        assert np.array_equal(log_cdf[:-1], want)
        assert np.array_equal(ratio[:-1], want_ratio)
        assert np.all(np.isfinite(want)) and np.all(want_ratio > 0.0)


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
        grid = np.linspace(spec.theta_lo, spec.theta_hi, 2000)
        fb = family_bounds(spec)
        vals = b_second(spec, grid)
        assert np.all(vals >= fb.c_l - 1e-12)
        assert np.all(vals <= fb.c_u + 1e-12)
        assert np.all(np.abs(b_prime(spec, grid)) <= fb.u_1 + 1e-12)

    def test_gamma_unbounded_marker(self):
        spec = FamilySpec("gamma_log", theta_hi=-1e-9)
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
        theta = 0.5 * (spec.theta_lo + spec.theta_hi)
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
        with pytest.raises(ValueError, match="X has a non-finite entry"):
            Dataset(X=np.array([[0.0, np.nan], [1.0, 2.0]]),
                    Y=np.ones((2, 1)), family=spec)

    def test_open_boundary_resolves_theta_hi(self):
        """gamma_log and negbin_log turn a theta_hi at or above 0 into
        -CLIP_MARGIN and keep one below 0; other families keep it."""
        for fam in ("gamma_log", "negbin_log"):
            for hi in (np.inf, 5.0, 0.0):
                assert FamilySpec(fam, theta_hi=hi).theta_hi == -CLIP_MARGIN
            assert FamilySpec(fam, theta_hi=-1e-6).theta_hi == -1e-6
        assert FamilySpec("gaussian", theta_hi=5.0).theta_hi == 5.0

    @pytest.mark.parametrize("family", FAMILY_IDS)
    def test_law_is_the_id_without_its_link(self, family):
        law = {"gaussian": "gaussian", "bernoulli_logit": "bernoulli",
               "bernoulli_probit": "bernoulli", "poisson_log": "poisson",
               "gamma_log": "gamma", "negbin_log": "negbin"}[family]
        assert FamilySpec(family).law == law
        assert FamilySpec(family).is_discrete \
            == (law in ("bernoulli", "poisson", "negbin"))

    def test_law_is_not_a_field(self):
        """[family] and meta.ini are built from the fields: law is derived."""
        assert [f.name for f in fields(FamilySpec)] \
            == ["family", "a", "k", "theta_lo", "theta_hi"]

    def test_digest_hashes_every_field(self, rng):
        """Datasets that differ only in one end of the interval differ in
        digest; a NumPy-scalar field hashes as the float it equals."""
        X = rng.standard_normal((6, 2))
        Y = (rng.random((6, 3)) < 0.5).astype(float)
        base = FamilySpec("bernoulli_logit", theta_lo=-2.0, theta_hi=2.0)
        digests = [Dataset(X=X, Y=Y, family=replace(base, **change)).digest()
                   for change in ({}, dict(theta_lo=-0.5),
                                  dict(theta_hi=0.5))]
        assert len(set(digests)) == 3
        scalar = replace(base, theta_lo=np.float64(-2.0),
                         theta_hi=np.float32(2.0))
        assert Dataset(X=X, Y=Y, family=scalar).digest() == digests[0]

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FamilySpec("nope")
        with pytest.raises(ValueError):
            FamilySpec("gaussian", a=-1.0)

    @pytest.mark.parametrize("family,settings,message", [
        ("poisson_log", dict(a=2.0), "fixed dispersion"),
        ("bernoulli_logit", dict(a=0.5), "fixed dispersion"),
        ("negbin_log", dict(a=2.0), "fixed dispersion"),
        ("gaussian", dict(a=np.inf), "a must be positive and finite"),
        ("gamma_log", dict(a=1e-320), "finite shape"),
        ("gaussian", dict(theta_lo=1.0, theta_hi=-1.0), "empty"),
        ("gamma_log", dict(theta_lo=-0.5, theta_hi=-1.0), "empty"),
        ("negbin_log", dict(theta_lo=-1e-4), "empty"),
        ("gaussian", dict(theta_lo=np.nan), "theta_lo must be a number"),
        ("gaussian", dict(theta_hi=np.nan), "theta_hi must be a number"),
        ("gamma_log", dict(theta_hi=np.nan), "theta_hi must be a number"),
        ("gaussian", dict(theta_lo=np.inf), "below \\+inf"),
        ("poisson_log", dict(theta_hi=-np.inf), "above -inf"),
        ("negbin_log", dict(k=0.0), "k must be positive"),
        ("gamma_log", dict(k=-2.0), "k must be positive"),
        ("negbin_log", dict(k=np.inf), "k must be positive and finite"),
        ("negbin_log", dict(k=np.nan), "k must be positive and finite"),
        ("gaussian", dict(k=7.0), "reads no k"),
        ("bernoulli_probit", dict(k=2.0), "reads no k"),
        ("poisson_log", dict(k=0.5), "reads no k"),
        ("gamma_log", dict(a=0.5, k=2.0), "reads no k"),
        ("gamma_log", dict(theta_lo=-2.0, theta_hi=-1e-200), "overflows"),
        ("negbin_log", dict(k=2.0, theta_hi=-1e-200), "overflows"),
    ], ids=["poisson_a", "bernoulli_a", "negbin_a", "gaussian_a_inf",
            "gamma_a_tiny", "gaussian_empty", "gamma_empty",
            "negbin_empty_by_margin", "gaussian_theta_lo_nan",
            "gaussian_theta_hi_nan", "gamma_theta_hi_nan",
            "gaussian_theta_lo_inf", "poisson_theta_hi_minus_inf",
            "negbin_k_0", "gamma_k_negative", "negbin_k_inf", "negbin_k_nan",
            "gaussian_k", "probit_k", "poisson_k", "gamma_k",
            "gamma_b2_overflow", "negbin_b2_overflow"])
    def test_spec_rejects(self, family, settings, message):
        with pytest.raises(ValueError, match=message):
            FamilySpec(family, **settings)
