import numpy as np
import pytest

from frrr.prior import (PriorConfig, grad_log_prior, log_prior,
                        sample_prior, tau_preset)

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
