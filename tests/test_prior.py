import numpy as np
import pytest
from numpy.linalg import _umath_linalg

import frrr.prior
from frrr.prior import (PriorConfig, grad_log_prior, log_prior,
                        log_prior_and_grad, sample_prior,
                        stack_log_prior_and_grad, stack_priors, tau_preset)

from conftest import central_diff


def prior_second_moment_check(cfg, draws, rng):
    """Median-of-means Monte Carlo estimate of E ||B||_F^2 under the prior.

    ||B||_F^2 has Student-like tails with infinite variance, so a plain
    sample mean is unstable; 20-block median-of-means keeps the estimate
    usable as a test statistic.
    """
    samples = sample_prior(cfg, draws, rng)
    sq = np.sum(samples ** 2, axis=(1, 2))
    blocks = np.array_split(sq, 20)
    means = np.array([b.mean() for b in blocks])
    return float(np.median(means))


def sv_log_prior(B, tau):
    """Singular-value route: -((p+q+2)/2) sum_j log(tau^2 + s_j^2), j <= p."""
    p, q = B.shape
    s = np.zeros(p)
    sv = np.linalg.svd(B, compute_uv=False)
    s[:len(sv)] = sv
    return -0.5 * (p + q + 2) * np.sum(np.log(tau ** 2 + s ** 2))


class TestLogPrior:
    def test_zero_matrix(self):
        cfg = PriorConfig(tau=0.7, p=3, q=2)
        expected = -0.5 * (3 + 2 + 2) * 3 * np.log(0.7 ** 2)
        assert abs(log_prior(np.zeros((3, 2)), cfg) - expected) < 1e-12

    def test_scalar_by_hand(self):
        cfg = PriorConfig(tau=1.0, p=1, q=1)
        assert abs(log_prior(np.array([[3.0]]), cfg) - (-2 * np.log(10))) < 1e-12

    @pytest.mark.parametrize("shape", [(4, 3), (3, 4), (20, 15), (15, 20)])
    def test_matches_singular_value_route(self, shape, rng):
        for _ in range(25):
            B = rng.standard_normal(shape)
            tau = float(rng.uniform(0.1, 2.0))
            cfg = PriorConfig(tau=tau, p=shape[0], q=shape[1])
            assert abs(log_prior(B, cfg) - sv_log_prior(B, tau)) < 1e-9

    def test_rotation_invariance(self, rng):
        p, q = 5, 3
        B = rng.standard_normal((p, q))
        cfg = PriorConfig(tau=0.5, p=p, q=q)
        U, _ = np.linalg.qr(rng.standard_normal((p, p)))
        V, _ = np.linalg.qr(rng.standard_normal((q, q)))
        assert abs(log_prior(U @ B @ V.T, cfg) - log_prior(B, cfg)) < 1e-9

    def test_monotone_rank_penalty(self, rng):
        p, q = 4, 3
        cfg = PriorConfig(tau=0.5, p=p, q=q)
        U, s, Vt = np.linalg.svd(rng.standard_normal((p, q)),
                                 full_matrices=False)
        B = (U * s) @ Vt
        s2 = s.copy()
        s2[1] *= 1.5
        B2 = (U * s2) @ Vt
        assert log_prior(B2, cfg) < log_prior(B, cfg)

    def test_nonfinite_rejected(self):
        cfg = PriorConfig(tau=1.0, p=2, q=2)
        with pytest.raises(ValueError):
            log_prior(np.full((2, 2), np.nan), cfg)

    @pytest.mark.parametrize("tau", [0.0, -1.0, np.nan, 1e-200, 1e-155,
                                     1e-154, 1e155, np.inf])
    def test_config_needs_a_finite_nonzero_tau_square(self, tau):
        """tau^2 = 0 (tau = 1e-200) or inf would give a NaN prior at B = 0,
        and so would a nonzero tau^2 whose 2 / tau^2 overflows (tau = 1e-155,
        a subnormal square, or 1e-154)."""
        with pytest.raises(ValueError, match="tau must be positive"):
            PriorConfig(tau=tau, p=2, q=2)

    @pytest.mark.parametrize("tau", [1.5e-154, 1.9e-154, 2.1e-154, 5.5e-154])
    def test_config_needs_a_normal_default_step(self, tau):
        """At p = 3, q = 2 the prior's curvature bound 7 / tau^2 overflows
        below about 1.9e-154, and 0.5 tau^2 / 7 is subnormal below
        sqrt(14 * 2.2e-308) = 5.58e-154: the default step size would be 0
        or subnormal, and no proposal would move."""
        with pytest.raises(ValueError, match=r"too small for p \+ q \+ 2 = 7"):
            PriorConfig(tau=tau, p=3, q=2)

    def test_smallest_taus_of_a_normal_default_step(self):
        """Just above the threshold 0.5 tau^2 / (p + q + 2) is normal; a
        larger p + q moves the threshold up."""
        PriorConfig(tau=5.6e-154, p=3, q=2)
        PriorConfig(tau=1.6e-153, p=30, q=20)
        with pytest.raises(ValueError, match="too small"):
            PriorConfig(tau=5.6e-154, p=30, q=20)

    @pytest.mark.parametrize("tau", [1e-150, 1e150])
    def test_extreme_tau_with_a_finite_square_is_finite(self, tau):
        value, grad = log_prior_and_grad(np.zeros((3, 2)),
                                         PriorConfig(tau=tau, p=3, q=2))
        assert np.isfinite(value) and np.all(grad == 0)


class TestGradLogPrior:
    def test_zero_is_stationary(self):
        cfg = PriorConfig(tau=0.3, p=3, q=4)
        assert np.all(grad_log_prior(np.zeros((3, 4)), cfg) == 0)

    def test_scalar_by_hand(self):
        cfg = PriorConfig(tau=1.0, p=1, q=1)
        g = grad_log_prior(np.array([[3.0]]), cfg)
        assert abs(g[0, 0] - (-1.2)) < 1e-12

    @pytest.mark.parametrize("shape", [(5, 4), (4, 5), (2, 7)])
    def test_matches_finite_differences(self, shape, rng):
        for _ in range(20):
            B = rng.standard_normal(shape)
            tau = float(rng.uniform(0.2, 2.0))
            cfg = PriorConfig(tau=tau, p=shape[0], q=shape[1])
            fd = central_diff(lambda M: log_prior(M, cfg), B)
            g = grad_log_prior(B, cfg)
            assert np.allclose(g, fd, rtol=1e-5, atol=1e-7)


class TestPriorKernel:
    """The one-factor kernel on (R, p, q) stacks with one tau per matrix."""

    SHAPES = [(4, 6), (5, 5), (6, 4)]

    @staticmethod
    def stack(rng, shape, taus):
        B = rng.standard_normal((len(taus),) + shape)
        return B, stack_priors([PriorConfig(t, *shape) for t in taus])

    @pytest.mark.parametrize("shape", SHAPES)
    def test_stack_matches_one_matrix_calls(self, shape, rng):
        taus = [1e-3, 0.05, 0.3, 1.0, 2.5]
        B, stack = self.stack(rng, shape, taus)
        value, grad = log_prior_and_grad(B, stack)
        for b, t, v, g in zip(B, taus, value, grad):
            v1, g1 = log_prior_and_grad(b, PriorConfig(t, *shape))
            assert abs(v - v1) <= 1e-13 * abs(v1)
            assert np.allclose(g, g1, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("tau", [1e-6, 1e-3, 1.0])
    def test_gradient_matches_an_lu_solve(self, shape, tau, rng):
        p, q = shape
        B = rng.standard_normal((3, p, q)) * np.array([1e-7, 1e-2, 1.0])[
            :, None, None]
        grad = grad_log_prior(B, PriorConfig(tau, p, q))
        # the same matrix B^T (tau^2 I + B B^T)^{-1} is solved on the
        # smaller side, where tau^2 I + W W^T is best conditioned
        W = B if p <= q else B.transpose(0, 2, 1)
        ref = -(p + q + 2) * np.linalg.solve(
            tau ** 2 * np.eye(min(p, q)) + W @ W.transpose(0, 2, 1), W)
        if p > q:
            ref = ref.transpose(0, 2, 1)
        for g, r in zip(grad, ref):
            assert np.abs(g - r).max() <= 1e-10 * np.abs(r).max()

    @pytest.mark.parametrize("shape", SHAPES)
    def test_workspace_carries_nothing_between_calls(self, shape, rng):
        taus = [0.01, 0.2, 1.5]
        B1, shared = self.stack(rng, shape, taus)
        B2 = 3.0 * rng.standard_normal(B1.shape)
        for B in (B1, B2, B1, B2):
            value, grad = log_prior_and_grad(B, shared)
            fresh = log_prior_and_grad(B, stack_priors(
                [PriorConfig(t, *shape) for t in taus]))
            assert np.array_equal(value, fresh[0])
            assert np.array_equal(grad, fresh[1])

    @pytest.mark.parametrize("shape", SHAPES)
    def test_failed_factor_costs_only_its_own_matrix(self, shape, rng):
        """An overflowing Gram matrix, or one that is not positive definite,
        gets a NaN value; the others keep their exact value and gradient.
        Two equal rows (2, 0, ..., 0) of W swamp tau^2 = 1e-18 in 4 + tau^2,
        so the leading 2 x 2 block of M is exactly singular and its second
        Cholesky pivot is exactly 0."""
        p, q = shape
        W = np.zeros((min(p, q), max(p, q)))
        W[0, 0] = W[1, 0] = 2.0
        B, stack = self.stack(rng, shape, [0.5, 0.5, 1e-9, 0.5])
        B[1] = 1e200
        B[2] = W if p <= q else W.T
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(W @ W.T + 1e-18 * np.eye(min(p, q)))
        with np.errstate(over="ignore", invalid="ignore"):
            value, grad = log_prior_and_grad(B, stack)
        assert np.isnan(value[1]) and np.isnan(value[2])
        for r in (0, 3):
            v, g = log_prior_and_grad(B[r], PriorConfig(0.5, *shape))
            assert value[r] == v and np.array_equal(grad[r], g)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_outputs_are_fresh(self, shape, rng):
        """A second call of the unchecked kernel on the same PriorStack
        leaves the value and the gradient of the first as they were: only
        the buffers are shared.  The sampler keeps the current value while
        it evaluates a proposal."""
        B1, stack = self.stack(rng, shape, [0.05, 0.3, 1.0])
        value, grad = stack_log_prior_and_grad(B1, stack)
        kept = value.copy(), grad.copy()
        stack_log_prior_and_grad(3.0 * rng.standard_normal(B1.shape), stack)
        assert np.array_equal(value, kept[0])
        assert np.array_equal(grad, kept[1])

    def test_one_cholesky_and_no_solve(self, rng, monkeypatch):
        """One call of the factor gufunc per evaluation, which
        np.linalg.cholesky would also go through, and no solve or
        inverse."""
        calls = []
        cholesky_lo = _umath_linalg.cholesky_lo

        def counted(M, **kwargs):
            calls.append(M.shape)
            return cholesky_lo(M, **kwargs)

        def forbidden(*args):
            raise AssertionError("the prior solved a system")

        monkeypatch.setattr(frrr.prior._umath_linalg, "cholesky_lo", counted)
        monkeypatch.setattr(np.linalg, "solve", forbidden)
        monkeypatch.setattr(np.linalg, "inv", forbidden)
        B, stack = self.stack(rng, (8, 6), np.linspace(0.1, 1.0, 30))
        log_prior_and_grad(B, stack)
        assert calls == [(30, 12, 12)]

    def test_stack_size_must_match_the_priors(self, rng):
        B, stack = self.stack(rng, (3, 2), [0.5, 0.5])
        with pytest.raises(ValueError, match="1 matrices for 2 priors"):
            log_prior_and_grad(B[:1], stack)
        with pytest.raises(ValueError, match="0 matrices for 1 priors"):
            log_prior_and_grad(B[:0], PriorConfig(0.5, 3, 2))


class TestCholeskyGufunc:
    """The contract of numpy.linalg._umath_linalg.cholesky_lo that the
    kernel relies on; a NumPy that changes it fails here."""

    @staticmethod
    def spd_stack(rng):
        A = rng.standard_normal((30, 12, 12))
        return A @ A.transpose(0, 2, 1) + 0.1 * np.eye(12)

    def test_out_matches_np_linalg_cholesky(self, rng):
        M = self.spd_stack(rng)
        out = np.full_like(M, 7.0)
        assert _umath_linalg.cholesky_lo(M, out=out) is out
        assert np.array_equal(out, np.linalg.cholesky(M))

    def test_failed_matrix_is_nan_and_the_others_are_kept(self, rng):
        M = self.spd_stack(rng)
        M[4] = -np.eye(12)
        out = np.empty_like(M)
        with np.errstate(invalid="ignore"):
            _umath_linalg.cholesky_lo(M, out=out)
        assert np.isnan(out[4]).all()
        keep = np.arange(30) != 4
        assert np.array_equal(out[keep], np.linalg.cholesky(M[keep]))

    def test_failed_matrix_raises_the_invalid_flag(self, rng):
        M = self.spd_stack(rng)
        M[4] = -np.eye(12)
        with pytest.warns(RuntimeWarning, match="invalid value"):
            _umath_linalg.cholesky_lo(M, out=np.empty_like(M))


class TestTauPresets:
    def test_theorem1(self):
        tau = tau_preset("theorem1", 10, 2, 2, 1.0, 5.0)
        assert abs(tau ** 2 - 0.02) < 1e-15

    def test_theorem3(self):
        tau = tau_preset("theorem3", 10, 2, 2, 1.0, 5.0)
        assert abs(tau ** 2 - 0.01) < 1e-15

    def test_misspecified(self):
        tau = tau_preset("misspecified", 10, 2, 2, 1.0, 5.0)
        assert abs(tau - 1.0 / (2 * np.sqrt(20) * 2 * 5)) < 1e-15

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            tau_preset("theorem1", 10, 2, 2, 1.0, 0.0)
        with pytest.raises(ValueError):
            tau_preset("nope", 10, 2, 2, 1.0, 5.0)


class TestPriorSampling:
    def test_second_moment_scalar(self, rng):
        cfg = PriorConfig(tau=1.0, p=1, q=1)
        est = prior_second_moment_check(cfg, 4000, rng)
        # Lemma bound q p tau^2 = 1 plus a Monte Carlo margin
        assert est <= 1.0 * 1.5

    def test_second_moment_rect(self, rng):
        cfg = PriorConfig(tau=0.5, p=2, q=3)
        est = prior_second_moment_check(cfg, 4000, rng)
        assert est <= 6 * 0.25 * 1.5

    def test_tau_scaling_monotone(self, rng):
        ests = []
        for tau in (0.1, 0.01):
            cfg = PriorConfig(tau=tau, p=2, q=2)
            ests.append(prior_second_moment_check(
                cfg, 4000, np.random.default_rng(0)))
        assert ests[1] < ests[0]

    def test_sample_shapes(self, rng):
        for p, q in [(2, 3), (3, 2)]:
            cfg = PriorConfig(tau=0.5, p=p, q=q)
            out = sample_prior(cfg, 7, rng)
            assert out.shape == (7, p, q)

    def test_scalar_density_histogram(self, rng):
        """p = q = 1 draws match the scaled Student-t3 closed form."""
        from scipy.stats import t as student_t
        cfg = PriorConfig(tau=1.0, p=1, q=1)
        draws = sample_prior(cfg, 20000, rng)[:, 0, 0]
        # tau (tau^2 + b^2)^{-2} normalized is t with 3 dof, scale 1/sqrt(3)
        ref = student_t(df=3, scale=1.0 / np.sqrt(3.0))
        qs = np.quantile(draws, [0.1, 0.3, 0.5, 0.7, 0.9])
        assert np.allclose(qs, ref.ppf([0.1, 0.3, 0.5, 0.7, 0.9]), atol=0.05)
