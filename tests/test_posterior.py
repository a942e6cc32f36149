import numpy as np
import pytest

from frrr.families import Dataset, FamilySpec, b_prime, theta_from_eta
from frrr.posterior import (Chain, FractionalConfig, SamplerDivergence,
                            default_step_size, effective_rank,
                            grad_log_fractional_posterior,
                            grad_log_likelihood, load_chain,
                            log_fractional_posterior, log_likelihood,
                            posterior_mean, run_sampler, save_chain)
from frrr.prior import PriorConfig

from conftest import central_diff, default_specs


def make_data(fam_spec, n, p, q, rng, b_scale=0.5):
    X = rng.standard_normal((n, p))
    B0 = b_scale * rng.standard_normal((p, q))
    from frrr.simulate import SyntheticTruth, generate_dataset
    truth = SyntheticTruth(B0, min(p, q), b_scale)
    return generate_dataset(X, truth, fam_spec, rng), B0


class TestLogLikelihood:
    def test_empty_dataset(self):
        spec = FamilySpec("gaussian")
        data = Dataset(X=np.zeros((0, 2)), Y=np.zeros((0, 1)), family=spec)
        assert log_likelihood(data, np.zeros((2, 1))) == 0.0

    def test_bernoulli_single_cell(self):
        spec = FamilySpec("bernoulli_logit")
        data = Dataset(X=np.ones((1, 1)), Y=np.ones((1, 1)), family=spec)
        assert abs(log_likelihood(data, np.zeros((1, 1))) - np.log(0.5)) < 1e-12

    def test_gaussian_quadratic_form(self, rng):
        spec = FamilySpec("gaussian")
        data, _ = make_data(spec, 12, 3, 2, rng)
        B1 = rng.standard_normal((3, 2))
        B2 = rng.standard_normal((3, 2))
        diff = log_likelihood(data, B1) - log_likelihood(data, B2)
        quad = (-0.5 * np.sum((data.Y - data.X @ B1) ** 2)
                + 0.5 * np.sum((data.Y - data.X @ B2) ** 2))
        assert abs(diff - quad) < 1e-9

    def test_scaling_equivariance(self, rng):
        spec = FamilySpec("poisson_log")
        data, _ = make_data(spec, 10, 3, 2, rng, b_scale=0.2)
        B = rng.standard_normal((3, 2))
        c = 1.7
        data2 = Dataset(X=c * data.X, Y=data.Y, family=spec)
        assert abs(log_likelihood(data, B)
                   - log_likelihood(data2, B / c)) < 1e-9


class TestGradients:
    def test_noiseless_residuals_vanish(self, rng):
        spec = FamilySpec("gaussian")
        X = rng.standard_normal((8, 3))
        B = rng.standard_normal((3, 2))
        Y = b_prime(spec, theta_from_eta(spec, X @ B))
        data = Dataset(X=X, Y=Y, family=spec)
        assert np.allclose(grad_log_likelihood(data, B), 0.0, atol=1e-12)

    def test_gaussian_closed_form(self, rng):
        spec = FamilySpec("gaussian")
        data, _ = make_data(spec, 10, 3, 2, rng)
        B = rng.standard_normal((3, 2))
        expected = data.X.T @ (data.Y - data.X @ B)
        assert np.allclose(grad_log_likelihood(data, B), expected, atol=1e-10)

    @pytest.mark.parametrize("fam", sorted(default_specs()))
    def test_matches_finite_differences(self, fam, rng):
        spec = default_specs()[fam]
        data, _ = make_data(spec, 6, 4, 3, rng, b_scale=0.3)
        for _ in range(5):
            B = 0.3 * rng.standard_normal((4, 3))
            fd = central_diff(lambda M: log_likelihood(data, M), B)
            g = grad_log_likelihood(data, B)
            assert np.allclose(g, fd, rtol=1e-4, atol=1e-6)

    @pytest.mark.parametrize("spec", [
        FamilySpec("bernoulli_logit", theta_lo=-2.0, theta_hi=2.0),
        FamilySpec("poisson_log", theta_lo=-1.0, theta_hi=1.0),
    ], ids=["bernoulli_logit", "poisson_log"])
    def test_clipped_cells_match_finite_differences(self, spec, rng):
        """The gradient is that of the clipped likelihood actually sampled."""
        data, B0 = make_data(spec, 300, 4, 3, rng)
        B = 2.0 * B0
        eta = data.X @ B
        clipped = (eta < spec.theta_min) | (eta > spec.theta_max)
        assert clipped.mean() > 0.1
        fd = central_diff(lambda M: log_likelihood(data, M), B)
        g = grad_log_likelihood(data, B)
        assert np.linalg.norm(g - fd) <= 1e-6 * np.linalg.norm(fd)


class TestFractionalPosterior:
    def test_small_alpha_tracks_prior(self, rng):
        spec = FamilySpec("gaussian")
        data, _ = make_data(spec, 10, 2, 2, rng)
        cfg = PriorConfig(tau=1.0, p=2, q=2)
        B = rng.standard_normal((2, 2))
        from frrr.prior import log_prior
        val = log_fractional_posterior(data, B, cfg, 1e-6)
        assert abs(val - log_prior(B, cfg)) <= 1e-6 * abs(log_likelihood(data, B)) + 1e-12

    def test_gradient_consistency(self, rng):
        spec = FamilySpec("bernoulli_probit")
        data, _ = make_data(spec, 8, 3, 2, rng, b_scale=0.3)
        cfg = PriorConfig(tau=0.5, p=3, q=2)
        B = 0.3 * rng.standard_normal((3, 2))
        fd = central_diff(
            lambda M: log_fractional_posterior(data, M, cfg, 0.5), B)
        g = grad_log_fractional_posterior(data, B, cfg, 0.5)
        assert np.allclose(g, fd, rtol=1e-5, atol=1e-7)

    def test_tempered_gaussian_identity(self, rng):
        """alpha = 0.5 gaussian fractional likelihood = likelihood at a/alpha."""
        spec = FamilySpec("gaussian", a=1.0)
        data, _ = make_data(spec, 10, 3, 2, rng)
        spec2 = FamilySpec("gaussian", a=2.0)
        data2 = Dataset(X=data.X, Y=data.Y, family=spec2)
        B1 = rng.standard_normal((3, 2))
        B2 = rng.standard_normal((3, 2))
        d1 = 0.5 * (log_likelihood(data, B1) - log_likelihood(data, B2))
        d2 = log_likelihood(data2, B1) - log_likelihood(data2, B2)
        assert abs(d1 - d2) < 1e-9

    def test_alpha_validation(self, rng):
        spec = FamilySpec("gaussian")
        data, _ = make_data(spec, 4, 2, 1, rng)
        cfg = PriorConfig(tau=1.0, p=2, q=1)
        with pytest.raises(ValueError):
            log_fractional_posterior(data, np.zeros((2, 1)), cfg, 1.5)


class TestSampler:
    def test_nothing_retained(self, rng):
        spec = FamilySpec("gaussian")
        data, _ = make_data(spec, 10, 2, 1, rng)
        cfg = PriorConfig(tau=1.0, p=2, q=1)
        frac = FractionalConfig(n_steps=50, burn_in=50, seed=1)
        chain = run_sampler(data, cfg, frac)
        assert len(chain.samples) == 0

    def test_determinism(self, rng):
        spec = FamilySpec("bernoulli_logit")
        data, _ = make_data(spec, 20, 2, 2, rng, b_scale=0.3)
        cfg = PriorConfig(tau=0.5, p=2, q=2)
        frac = FractionalConfig(n_steps=300, burn_in=100, thin=2, seed=42)
        c1 = run_sampler(data, cfg, frac)
        c2 = run_sampler(data, cfg, frac)
        assert np.array_equal(c1.samples, c2.samples)
        assert np.array_equal(c1.log_post, c2.log_post)
        assert np.array_equal(c1.accept_flags, c2.accept_flags)

    def test_ula_flags_all_true(self, rng):
        spec = FamilySpec("gaussian")
        data, _ = make_data(spec, 20, 2, 1, rng)
        cfg = PriorConfig(tau=1.0, p=2, q=1)
        frac = FractionalConfig(n_steps=200, burn_in=50, thin=1,
                                algorithm="ula", seed=3)
        chain = run_sampler(data, cfg, frac)
        assert np.all(chain.accept_flags)
        assert chain.acceptance_rate == 1.0

    def test_ula_converges_to_ols(self, rng):
        """Near-flat prior gaussian ULA mean approaches OLS as steps grow."""
        spec = FamilySpec("gaussian")
        data, _ = make_data(spec, 100, 2, 1, rng)
        ols, *_ = np.linalg.lstsq(data.X, data.Y, rcond=None)
        cfg = PriorConfig(tau=1e3, p=2, q=1)
        errs = []
        for steps in (2000, 20000):
            frac = FractionalConfig(n_steps=steps, burn_in=steps // 5,
                                    thin=1, algorithm="ula", seed=5,
                                    step_size=2e-3, init=ols)
            chain = run_sampler(data, cfg, frac)
            errs.append(np.linalg.norm(posterior_mean(chain) - ols))
        assert errs[1] < errs[0]

    def test_divergence_guard(self, rng):
        spec = FamilySpec("gaussian")
        data, _ = make_data(spec, 10, 2, 1, rng)
        cfg = PriorConfig(tau=1.0, p=2, q=1)
        frac = FractionalConfig(n_steps=2000, burn_in=100, seed=1,
                                algorithm="ula", step_size=50.0,
                                autotune=False)
        with pytest.raises(SamplerDivergence):
            run_sampler(data, cfg, frac)

    def test_default_step_size_formula(self, rng):
        spec = FamilySpec("gaussian")
        data, _ = make_data(spec, 10, 2, 1, rng)
        cfg = PriorConfig(tau=0.5, p=2, q=1)
        expected = 0.5 / (0.5 * 1.0 * np.sum(data.X ** 2) + 5 / 0.25)
        assert abs(default_step_size(data, cfg, 0.5) - expected) < 1e-15

    def test_unbounded_curvature_chain_moves(self, rng):
        """poisson_log on the whole line has c_u = inf; the step size falls
        back to b'' at the start point and the chain still moves."""
        spec = FamilySpec("poisson_log")
        data, _ = make_data(spec, 50, 3, 2, rng, b_scale=0.2)
        cfg = PriorConfig(tau=1.0, p=3, q=2)
        expected = 0.5 / (0.5 * np.sum(data.X ** 2) + 7.0)
        assert abs(default_step_size(data, cfg, 0.5) - expected) < 1e-15
        frac = FractionalConfig(n_steps=300, burn_in=100, thin=1, seed=4)
        chain = run_sampler(data, cfg, frac)
        assert len(np.unique(chain.samples, axis=0)) > 1
        assert chain.acceptance_rate > 0


class TestPosteriorMeanAndRank:
    def test_single_sample(self):
        s = np.arange(6.0).reshape(1, 2, 3)
        chain = Chain(samples=s, log_post=np.zeros(1),
                      accept_flags=np.ones(1, bool), config=None,
                      dataset_digest="")
        assert np.array_equal(posterior_mean(chain), s[0])

    def test_antisymmetric_pair(self, rng):
        B = rng.standard_normal((2, 2))
        chain = Chain(samples=np.stack([B, -B]), log_post=np.zeros(2),
                      accept_flags=np.ones(2, bool), config=None,
                      dataset_digest="")
        assert np.allclose(posterior_mean(chain), 0.0)

    def test_lln(self, rng):
        M = rng.standard_normal((2, 2))
        samples = M + 0.1 * rng.standard_normal((1000, 2, 2))
        chain = Chain(samples=samples, log_post=np.zeros(1000),
                      accept_flags=np.ones(1000, bool), config=None,
                      dataset_digest="")
        assert np.max(np.abs(posterior_mean(chain) - M)) < 0.01 + 0.02

    def test_effective_rank(self, rng):
        assert effective_rank(np.zeros((3, 3))) == 0
        assert effective_rank(np.eye(3), 0.5) == 3
        u, v = rng.standard_normal(4), rng.standard_normal(3)
        B = np.outer(u, v) + 1e-8 * rng.standard_normal((4, 3))
        assert effective_rank(B, 1e-3) == 1

    def test_empty_chain_error(self):
        chain = Chain(samples=np.zeros((0, 2, 2)), log_post=np.zeros(0),
                      accept_flags=np.zeros(0, bool), config=None,
                      dataset_digest="")
        with pytest.raises(ValueError):
            posterior_mean(chain)


class TestChainPersistence:
    def test_round_trip(self, tmp_path, rng):
        spec = FamilySpec("gaussian")
        data, _ = make_data(spec, 15, 2, 2, rng)
        cfg = PriorConfig(tau=1.0, p=2, q=2)
        frac = FractionalConfig(n_steps=200, burn_in=50, thin=5, seed=9,
                                alpha=0.3)
        chain = run_sampler(data, cfg, frac)
        path = tmp_path / "chain.bin"
        save_chain(path, chain)
        samples, alpha, gamma, log_post, flags = load_chain(path)
        assert np.array_equal(samples, chain.samples)
        assert alpha == 0.3
        assert gamma == chain.step_size
        assert np.allclose(log_post, chain.log_post)
        assert np.array_equal(flags, chain.accept_flags)

    def test_sidecar_row_count_must_match(self, rng, tmp_path):
        data, _ = make_data(default_specs()["gaussian"], 20, 2, 2, rng)
        frac = FractionalConfig(alpha=0.5, n_steps=40, burn_in=10, thin=5)
        chain = run_sampler(data, PriorConfig(tau=1.0, p=2, q=2), frac)
        path = tmp_path / "chain.bin"
        save_chain(path, chain)
        side = tmp_path / "chain.bin.csv"
        side.write_text("".join(side.read_text().splitlines(True)[:-1]))
        with pytest.raises(ValueError, match="sidecar"):
            load_chain(path)
        side.unlink()
        with pytest.raises(OSError):
            load_chain(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTACHAIN")
        with pytest.raises(ValueError):
            load_chain(path)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FractionalConfig(alpha=1.0)
        with pytest.raises(ValueError):
            FractionalConfig(burn_in=11, n_steps=10)
        with pytest.raises(ValueError):
            FractionalConfig(algorithm="nuts")
        with pytest.raises(ValueError):
            FractionalConfig(step_size=-1.0)
