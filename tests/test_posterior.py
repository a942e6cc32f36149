import ast

import numpy as np
import pytest

import frrr.families
import frrr.posterior
import frrr.prior
from frrr.families import (FAMILY_IDS, LOG_NDTR_BELOW, Dataset, FamilySpec,
                           b_and_prime, b_prime, has_sufficient_statistics,
                           linear_predictor, link_terms, sample_response,
                           theta_from_eta)
from frrr.posterior import (Chain, DataStack, FractionalConfig,
                            SamplerDivergence, default_step_size,
                            effective_rank, fisher_information,
                            grad_log_fractional_posterior,
                            grad_log_likelihood, log_fractional_posterior,
                            log_likelihood, log_likelihood_and_grad,
                            posterior_mean, run_chains, run_sampler,
                            stack_datasets, value_and_grad)
from frrr.cli import load_chain, save_chain
from frrr.experiments import likelihood_ridge_fit
from frrr.prior import PriorConfig
from frrr.simulate import SyntheticTruth, generate_dataset

from conftest import bounded_specs, central_diff, default_specs


def make_data(fam_spec, n, p, q, rng, b_scale=0.5):
    X = rng.standard_normal((n, p))
    B0 = b_scale * rng.standard_normal((p, q))
    from frrr.simulate import SyntheticTruth, generate_dataset
    truth = SyntheticTruth(B0, min(p, q))
    return generate_dataset(X, truth, fam_spec, rng), B0


def moments(b1, b2):
    """b1, b2, b1^2, b2^2 and b1 b2, stacked on a last axis."""
    return np.stack([b1, b2, b1 * b1, b2 * b2, b1 * b2], axis=-1)


def assert_sampler_matches_a_grid_mean(b0, seed):
    """The moments E b1, E b2, E b1^2, E b2^2 and E b1 b2 of 8 chains of 20k
    steps from the ridge fit each lie within 4 between-chain standard errors
    of the grid posterior's, for a gaussian fit with a = 1.5 at alpha = 0.5,
    tau = 0.01 and n = 200 on the rank-1 truth b0 with two entries, (2, 1)
    or (1, 2).  With B = b1 E1 + b2 E2, the closed-form density is summed
    over a grid of spacing tau / 4 that holds b = 0, and its mass near b = 0
    must be negligible."""
    n, tau, alpha, chains = 200, 0.01, 0.5, 8
    p, q = b0.shape
    spec = FamilySpec("gaussian", a=1.5)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    data = generate_dataset(X, SyntheticTruth(b0, 1), spec, rng)
    E = np.eye(2).reshape(2, p, q)
    G, C = X.T @ X, X.T @ data.Y
    c = np.array([(e * C).sum() for e in E])
    Q = np.array([[(e * (G @ f)).sum() for f in E] for e in E])
    h = tau / 4
    b1, b2 = np.meshgrid(np.arange(-0.5, 2.5 + h / 2, h),
                         np.arange(-1.0, 1.0 + h / 2, h), indexing="ij")
    log_density = alpha / spec.a * (
        b1 * c[0] + b2 * c[1] - 0.5 * (Q[0, 0] * b1 ** 2
                                       + 2.0 * Q[0, 1] * b1 * b2
                                       + Q[1, 1] * b2 ** 2)) \
        - 2.5 * np.log(tau ** 2 + b1 ** 2 + b2 ** 2)
    w = np.exp(log_density - log_density.max())
    w /= w.sum()
    assert w[b1 ** 2 + b2 ** 2 < 0.1 ** 2].sum() < 1e-6
    reference = (w[..., None] * moments(b1, b2)).sum(axis=(0, 1))

    start = likelihood_ridge_fit([data])[0]
    runs = run_chains(
        [data] * chains, [PriorConfig(tau=tau, p=p, q=q)] * chains,
        [FractionalConfig(alpha=alpha, n_steps=20000, seed=s, init=start)
         for s in range(chains)])
    means = np.array([moments(*run.samples.reshape(-1, 2).T).mean(axis=0)
                      for run in runs])
    se = means.std(axis=0, ddof=1) / np.sqrt(chains)
    assert np.all(np.abs(means.mean(axis=0) - reference) <= 4.0 * se)


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
        clipped = (eta < spec.theta_lo) | (eta > spec.theta_hi)
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
    def test_nothing_retained(self):
        """A chain keeps at least one sample: burn_in == n_steps is rejected."""
        with pytest.raises(ValueError, match="burn_in"):
            FractionalConfig(n_steps=50, burn_in=50, seed=1)

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

    def test_divergence_guard(self, rng):
        """A chain whose log-posterior starts below the floor diverges."""
        spec = FamilySpec("gaussian")
        data, _ = make_data(spec, 10, 2, 1, rng)
        cfg = PriorConfig(tau=1.0, p=2, q=1)
        frac = FractionalConfig(n_steps=2000, burn_in=100, seed=1,
                                init=np.full((2, 1), 1e7))
        with pytest.raises(SamplerDivergence, match="floor"):
            run_sampler(data, cfg, frac)

    def test_default_step_size_formula(self, rng):
        spec = FamilySpec("gaussian")
        data, _ = make_data(spec, 10, 2, 1, rng)
        cfg = PriorConfig(tau=0.5, p=2, q=1)
        expected = 0.5 / (0.5 * 1.0 * np.sum(data.X ** 2) + 5 / 0.25)
        assert abs(default_step_size(data, cfg, 0.5, np.zeros((2, 1)))
                   - expected) < 1e-15

    def test_default_step_size_is_normal_at_the_smallest_tau(self, rng):
        """PriorConfig rejects a tau whose prior curvature bound leaves a
        zero or subnormal step; just above that threshold the step is a
        normal double."""
        data, _ = make_data(FamilySpec("gaussian"), 30, 3, 2, rng)
        step = default_step_size(data, PriorConfig(tau=5.6e-154, p=3, q=2),
                                 0.5, np.zeros((3, 2)))
        assert np.finfo(float).tiny <= step < 2.3e-308

    def test_unbounded_curvature_chain_moves(self, rng):
        """poisson_log on the whole line has c_u = inf; the step size falls
        back to b'' at the start point and the chain still moves."""
        spec = FamilySpec("poisson_log")
        data, _ = make_data(spec, 50, 3, 2, rng, b_scale=0.2)
        cfg = PriorConfig(tau=1.0, p=3, q=2)
        expected = 0.5 / (0.5 * np.sum(data.X ** 2) + 7.0)
        assert abs(default_step_size(data, cfg, 0.5, np.zeros((3, 2)))
                   - expected) < 1e-15
        frac = FractionalConfig(n_steps=300, burn_in=100, thin=1, seed=4)
        chain = run_sampler(data, cfg, frac)
        assert len(np.unique(chain.samples, axis=0)) > 1
        assert chain.acceptance_rate > 0

    def test_never_accepting_chain_fails(self, rng):
        """A burn-in shorter than 50 steps still tunes, and a chain that
        accepts nothing after it raises instead of reporting success."""
        data, _ = make_data(FamilySpec("gaussian"), 100, 4, 3, rng)
        frac = FractionalConfig(step_size=10.0, n_steps=200, burn_in=20,
                                seed=1)
        with pytest.raises(SamplerDivergence, match="accepted no proposal"):
            run_sampler(data, PriorConfig(tau=1.0, p=4, q=3), frac)

    def test_acceptance_after_burn_in_is_counted_from_burn_in(
            self, rng, monkeypatch):
        """A chain that accepts every proposal up to a burn-in of 60 steps,
        not a multiple of the 50-step window, and none after it, raises:
        the steps between the last window and burn-in are not counted as
        retained."""
        calls = []

        def target(data, B, prior):
            calls.append(None)        # the start, then one per step
            value = 0.0 if len(calls) <= 61 else np.nan
            return np.full(len(B), value), np.zeros_like(B)

        monkeypatch.setattr(frrr.posterior, "_target", target)
        data, _ = make_data(FamilySpec("gaussian"), 30, 3, 2, rng)
        frac = FractionalConfig(n_steps=100, burn_in=60, seed=1)
        with pytest.raises(SamplerDivergence,
                           match="accepted no proposal in 40 steps"):
            run_sampler(data, PriorConfig(tau=0.5, p=3, q=2), frac)

    def test_nonfinite_proposals_are_rejected(self, rng):
        """exp overflows at every proposal: each is a rejection, not the
        prior's ValueError, and the chain ends as never accepting."""
        data, _ = make_data(FamilySpec("poisson_log"), 100, 4, 3, rng,
                            b_scale=0.2)
        frac = FractionalConfig(step_size=1e160, n_steps=200, seed=1)
        with pytest.raises(SamplerDivergence, match="accepted no proposal"):
            run_sampler(data, PriorConfig(tau=1.0, p=4, q=3), frac)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("spec", [
        FamilySpec("gaussian"), FamilySpec("bernoulli_probit"),
        bounded_specs()["gamma_log"], bounded_specs()["negbin_log"],
        bounded_specs()["poisson_log"]],
        ids=["gaussian_sufficient", "bernoulli_probit_closed",
             "gamma_log_clipped", "negbin_log_clipped", "poisson_log_clipped"])
    def test_proposals_with_infinite_entries_are_rejected(self, spec, rng):
        """gamma grad U overflows at the start, and with no tuning and no
        acceptance at every step: each proposal holds an infinite entry, is
        rejected without a warning, and the chain ends as never
        accepting."""
        data, _ = make_data(spec, 200, 4, 3, rng)
        cfg = PriorConfig(tau=1.0, p=4, q=3)
        grad = value_and_grad(data, np.zeros((4, 3)), cfg, 0.5)[1]
        assert np.abs(grad).max() > np.finfo(float).max / 1e307
        frac = FractionalConfig(step_size=1e307, n_steps=100, burn_in=0,
                                seed=1)
        with pytest.raises(SamplerDivergence, match="accepted no proposal"):
            run_sampler(data, cfg, frac)

    def test_checks_its_start_once_and_no_step(self, rng, monkeypatch):
        """alpha, B and the prior stack are checked at the start; each step
        calls the unchecked target."""
        calls = []
        checked = frrr.prior.checked_stack

        def counted(*args):
            calls.append(args[0].shape)
            return checked(*args)

        for module in (frrr.prior, frrr.posterior):
            monkeypatch.setattr(module, "checked_stack", counted)
        data, _ = make_data(FamilySpec("gaussian"), 30, 3, 2, rng)
        run_sampler(data, PriorConfig(tau=0.5, p=3, q=2),
                    FractionalConfig(n_steps=100, seed=1))
        assert calls == [(1, 3, 2)]

    @pytest.mark.parametrize("seed", [0, 1, 7, 2024, 987654321])
    def test_raw_word_uniform_is_generator_random(self, seed):
        """The sampler draws a uniform as a raw word of the chain's PCG64
        stream, (word >> 11) 2^-53, between standard_normal(out=) fills of
        that stream: it must be what Generator.random() gives there."""
        ref, raw = np.random.default_rng(seed), np.random.default_rng(seed)
        draw = raw.bit_generator.random_raw
        z_ref, z_raw = np.empty((8, 6)), np.empty((8, 6))
        for _ in range(200):
            ref.standard_normal(out=z_ref)
            raw.standard_normal(out=z_raw)
            assert np.array_equal(z_ref, z_raw)
            assert (draw() >> 11) * 2.0 ** -53 == ref.random()

    def test_nonfinite_proposals_do_not_stop_other_chains(self, rng):
        """Chain 0 starts with a step so large that its proposals overflow
        until tuning shrinks it; neither chain is changed by the other."""
        data, _ = make_data(FamilySpec("poisson_log"), 50, 3, 2, rng,
                            b_scale=0.2)
        datasets = [data,
                    Dataset(X=data.X, Y=data.Y[::-1], family=data.family)]
        cfg = PriorConfig(tau=1.0, p=3, q=2)
        fracs = [FractionalConfig(step_size=1e6, n_steps=2000, burn_in=1700,
                                  seed=1),
                 FractionalConfig(n_steps=2000, burn_in=1700, seed=2)]
        chains = run_chains(datasets, [cfg] * 2, fracs)
        assert chains[0].acceptance_rate > 0
        for chain, d, f in zip(chains, datasets, fracs):
            assert_same_chain(chain, run_sampler(d, cfg, f))


def assert_same_chain(c1, c2):
    assert np.array_equal(c1.samples, c2.samples)
    assert np.array_equal(c1.log_post, c2.log_post)
    assert np.array_equal(c1.accept_flags, c2.accept_flags)
    assert c1.step_size == c2.step_size
    assert c1.acceptance_rate == c2.acceptance_rate


class TestBatchedSampler:
    @pytest.mark.parametrize("spec,alpha", [
        (FamilySpec("gaussian"), 0.5),
        (FamilySpec("bernoulli_logit", theta_lo=-2.0, theta_hi=2.0), 0.5),
        (FamilySpec("bernoulli_probit"), 0.5),
        (FamilySpec("gaussian", a=2.5), 0.3),
        (FamilySpec("bernoulli_probit"), 0.3),
    ], ids=["gaussian_sufficient", "bernoulli_logit_clipped",
            "bernoulli_probit_closed", "gaussian_sufficient_a2.5_alpha0.3",
            "bernoulli_probit_closed_alpha0.3"])
    def test_chain_matches_its_one_chain_run(self, spec, alpha, rng):
        data, B0 = make_data(spec, 300, 4, 3, rng, b_scale=1.0)
        datasets = [data] + [make_data(spec, 300, 4, 3, rng, b_scale=1.0)[0]
                             for _ in range(2)]
        datasets = [Dataset(X=data.X, Y=d.Y, family=spec) for d in datasets]
        cfg = PriorConfig(tau=0.5, p=4, q=3)
        fracs = [FractionalConfig(alpha=alpha, n_steps=400, burn_in=100,
                                  thin=3, seed=s, init=B0 if s == 2 else None)
                 for s in (1, 2, 3)]
        chains = run_chains(datasets, [cfg] * 3, fracs)
        for chain, d, f in zip(chains, datasets, fracs):
            assert_same_chain(chain, run_sampler(d, cfg, f))

    @pytest.mark.parametrize("spec", [
        FamilySpec("gaussian"),
        FamilySpec("bernoulli_logit", theta_lo=-2.0, theta_hi=2.0),
    ], ids=["gaussian_sufficient", "bernoulli_logit_clipped"])
    def test_cross_design_chains_match_their_one_chain_runs(self, spec, rng):
        """Chains on different designs, sample sizes and prior scales in one
        call: two share a design, the others each have their own."""
        shared, B0 = make_data(spec, 120, 4, 3, rng, b_scale=1.0)
        datasets = [shared,
                    Dataset(X=shared.X, Y=shared.Y[::-1], family=spec),
                    make_data(spec, 300, 4, 3, rng, b_scale=1.0)[0],
                    make_data(spec, 60, 4, 3, rng, b_scale=1.0)[0]]
        priors = [PriorConfig(tau=t, p=4, q=3) for t in (0.5, 0.5, 0.2, 1.5)]
        fracs = [FractionalConfig(n_steps=300, burn_in=100, thin=3, seed=s,
                                  init=B0 if s == 2 else None)
                 for s in (1, 2, 3, 4)]
        chains = run_chains(datasets, priors, fracs)
        assert len(chains) == 4
        for chain, d, c, f in zip(chains, datasets, priors, fracs):
            assert_same_chain(chain, run_sampler(d, c, f))

    @pytest.mark.parametrize("bad,message", [
        (dict(step_size=1e200), "chain 1 accepted no proposal"),
        (dict(init=np.full((4, 3), 1e12)), "chain 1: log-posterior"),
    ], ids=["no_acceptance", "floor"])
    def test_divergence_names_the_chain_by_its_call_position(
            self, bad, message, rng):
        """Cell-wise chains on two designs run as two blocks; the failing
        chain, the first of the second block, is chain 1 of the call."""
        spec = FamilySpec("bernoulli_logit")
        datasets = [make_data(spec, n, 4, 3, rng)[0] for n in (60, 80)]
        fracs = [FractionalConfig(n_steps=200, seed=1),
                 FractionalConfig(n_steps=200, seed=2, **bad)]
        with pytest.raises(SamplerDivergence, match=message):
            run_chains(datasets, [PriorConfig(tau=0.5, p=4, q=3)] * 2,
                       fracs)

    @pytest.mark.parametrize("spec", [
        FamilySpec("gaussian", a=2.5), FamilySpec("bernoulli_probit")],
        ids=["gaussian_sufficient_a2.5", "bernoulli_probit_closed"])
    def test_weighted_target_is_the_fractional_posterior(self, spec, rng):
        """The sampler's stack is the likelihood at dispersion a / alpha;
        its target is alpha * log-likelihood + log-prior at a."""
        data, _ = make_data(spec, 200, 4, 3, rng)
        datasets = [data, Dataset(X=data.X, Y=data.Y[::-1], family=spec)]
        prior = frrr.prior.stack_priors(
            [PriorConfig(tau=t, p=4, q=3) for t in (0.5, 0.2)])
        B = rng.standard_normal((2, 4, 3))
        stack = stack_datasets(datasets, spec.a / 0.3)
        value, grad = frrr.posterior._target(stack, B, prior)
        ref_value, ref_grad = value_and_grad(stack_datasets(datasets), B,
                                             prior, 0.3)
        assert np.all(np.abs(value - ref_value) <= 1e-14 * np.abs(ref_value))
        for g, ref in zip(grad, ref_grad):
            assert np.linalg.norm(g - ref) <= 1e-14 * np.linalg.norm(ref)

    @pytest.mark.parametrize("spec", [
        FamilySpec("gaussian"), FamilySpec("bernoulli_probit")],
        ids=["gaussian_sufficient", "bernoulli_probit_unclipped"])
    def test_stack_at_a_power_of_two_dispersion_is_exact(self, spec, rng):
        """At alpha = 0.5 and a = 1, a / alpha = 2 is a power of two, so the
        stack at a / alpha gives exactly alpha times the value and the
        gradient of the stack at a."""
        data, _ = make_data(spec, 200, 4, 3, rng)
        datasets = [data, Dataset(X=data.X, Y=data.Y[::-1], family=spec)]
        B = rng.standard_normal((2, 4, 3))
        value, grad = log_likelihood_and_grad(
            stack_datasets(datasets, 2.0), B)
        ref_value, ref_grad = log_likelihood_and_grad(
            stack_datasets(datasets), B)
        assert np.array_equal(value, 0.5 * ref_value)
        assert np.array_equal(grad, 0.5 * ref_grad)

    def test_sampler_matches_a_grid_reference_at_dispersion_three(self):
        """Gaussian, (p, q) = (2, 1), n = 200, tau = 0.01, alpha = 0.5 and
        a = 1.5, so the sampler runs at dispersion a / alpha = 3, not a
        power of two.  The reference posterior mean sums the closed-form
        density (alpha / a)(b^T X^T y - b^T X^T X b / 2) - (5/2) log(tau^2
        + |b|^2) over a grid of spacing tau / 4 that holds b = 0; the mean
        of 8 chains from the ridge fit must lie within 4 between-chain
        standard errors of it, per entry.  The rank-1 truth is large enough
        that the likelihood, whose dispersion is under test, sets the
        posterior: the prior's spike at 0 holds no mass."""
        assert_sampler_matches_a_grid_mean(np.array([[1.25], [0.0]]), 11)

    def test_sampler_matches_a_grid_reference_with_p_below_q(self):
        """The same reference at (p, q) = (1, 2), where the prior's Gram
        matrix is taken on the row side, B B^T: the density is again
        (alpha / a)(<B, X^T Y> - <B, X^T X B> / 2) - (5/2) log(tau^2 +
        |B|^2)."""
        assert_sampler_matches_a_grid_mean(np.array([[1.25, 0.0]]), 11)

    def test_rejects_incompatible_chains(self, rng):
        spec = FamilySpec("gaussian")
        data, _ = make_data(spec, 40, 4, 3, rng)
        cfg = PriorConfig(tau=0.5, p=4, q=3)
        frac = FractionalConfig(n_steps=100, burn_in=20, seed=1)
        probit = Dataset(X=data.X, Y=(data.Y > 0).astype(float),
                         family=FamilySpec("bernoulli_probit"))
        wide, _ = make_data(spec, 40, 5, 3, rng)
        bad = {
            "family": ([data, probit], [cfg] * 2, [frac] * 2),
            "data shape": ([data, wide], [cfg] * 2, [frac] * 2),
            "prior shape": ([data, data],
                            [cfg, PriorConfig(tau=0.5, p=4, q=2)],
                            [frac] * 2),
            "lengths": ([data, data], [cfg], [frac] * 2),
            "empty": ([], [], []),
        }
        for field in ("alpha", "n_steps", "burn_in", "thin"):
            other = dict(alpha=0.3, n_steps=120, burn_in=30, thin=2)[field]
            bad[field] = ([data, data], [cfg] * 2,
                          [frac, FractionalConfig(**{
                              **dict(alpha=0.5, n_steps=100, burn_in=20,
                                     thin=10, seed=2), field: other})])
        for args in bad.values():
            with pytest.raises(ValueError):
                run_chains(*args)

    def test_sufficient_statistics_value(self, rng):
        spec = FamilySpec("gaussian", a=2.0)
        data, _ = make_data(spec, 200, 4, 3, rng)
        other = Dataset(X=data.X, Y=data.Y + 1.0, family=spec)
        stack = stack_datasets([data, other])
        assert stack.gram is not None
        B = rng.standard_normal((2, 4, 3))
        value = log_likelihood_and_grad(stack, B)[0]
        for r, d in enumerate((data, other)):
            eta = d.X @ B[r]
            cellwise = np.sum(d.Y * eta - eta ** 2 / 2.0) / spec.a
            assert abs(value[r] - cellwise) <= 1e-12 * abs(cellwise)

    @pytest.mark.parametrize("specs", [
        (FamilySpec("gaussian"), FamilySpec("gaussian", a=2.0)),
        (FamilySpec("bernoulli_logit"), FamilySpec("bernoulli_probit"))],
        ids=["gaussian_dispersions", "bernoulli_links"])
    def test_stack_rejects_mixed_families(self, specs, rng):
        """Each dataset keeps its own family: a stack of two families is
        rejected, not read with the first one's."""
        X = rng.standard_normal((30, 3))
        Y = (rng.random((30, 2)) < 0.5).astype(float)
        with pytest.raises(ValueError, match="share the family"):
            stack_datasets([Dataset(X=X, Y=Y, family=s) for s in specs])

    def test_sufficient_statistics_gradient(self, rng):
        spec = FamilySpec("gaussian", a=2.0)
        data, _ = make_data(spec, 60, 4, 3, rng)
        stack = stack_datasets([data])
        for _ in range(10):
            B = 0.4 * rng.standard_normal((1, 4, 3))
            fd = central_diff(
                lambda M: log_likelihood_and_grad(stack, M)[0][0], B)
            g = log_likelihood_and_grad(stack, B)[1]
            assert np.linalg.norm(g - fd) < 1e-4 * np.linalg.norm(fd)


class TestFisherInformation:
    """For a canonical link the expected information is minus the Hessian
    of the log-likelihood: column j of the gradient depends on column j of
    B alone, through I_j."""

    @staticmethod
    def hessian_by_differences(data, B, h=1e-6):
        """d grad[..., i, j] / d B[..., k, l] by central differences, as an
        array indexed [..., i, j, k, l]."""
        p, q = B.shape[-2:]
        out = np.empty(B.shape + (p, q))
        for k in range(p):
            for l in range(q):
                E = np.zeros_like(B)
                E[..., k, l] = h
                out[..., k, l] = (log_likelihood_and_grad(data, B + E)[1]
                                  - log_likelihood_and_grad(data, B - E)[1]
                                  ) / (2.0 * h)
        return out

    def assert_is_minus_hessian(self, data, B):
        info = fisher_information(data, B)
        H = self.hessian_by_differences(data, B)
        p, q = B.shape[-2:]
        expected = np.zeros(H.shape)
        for j in range(q):
            expected[..., :, j, :, j] = -info[..., j, :, :]
        assert info.shape == B.shape[:-2] + (q, p, p)
        assert np.max(np.abs(H - expected)) <= 1e-6 * np.max(np.abs(info))

    @pytest.mark.parametrize("spec", [
        FamilySpec("gaussian", a=2.0), FamilySpec("bernoulli_logit"),
        FamilySpec("poisson_log")], ids=["gaussian", "bernoulli_logit",
                                         "poisson_log"])
    def test_cellwise_is_minus_hessian(self, spec, rng):
        data, B0 = make_data(spec, 60, 4, 3, rng)
        self.assert_is_minus_hessian(data, B0)
        stack = DataStack(data.X, np.stack([data.Y, data.Y[::-1]]), spec)
        self.assert_is_minus_hessian(stack, np.stack([B0, -B0]))

    def test_sufficient_statistics_is_minus_hessian(self, rng):
        spec = FamilySpec("gaussian", a=2.0)
        data, B0 = make_data(spec, 60, 4, 3, rng)
        other, _ = make_data(spec, 30, 4, 3, rng)
        stack = stack_datasets([data, other])
        assert stack.gram is not None
        B = np.stack([B0, 2.0 * B0])
        self.assert_is_minus_hessian(stack, B)
        assert np.array_equal(fisher_information(stack, B)[1, 2],
                              other.X.T @ other.X / spec.a)

    def test_clipped_cells_add_nothing(self, rng):
        """Away from the kinks the clipped likelihood's Hessian is minus the
        information, and a B whose cells are all clipped has none."""
        spec = FamilySpec("bernoulli_logit", theta_lo=-2.0, theta_hi=2.0)
        data, B0 = make_data(spec, 300, 4, 3, rng)
        B = 2.0 * B0
        eta = data.X @ B
        assert ((eta < -2.0) | (eta > 2.0)).mean() > 0.1
        assert np.min(np.abs(np.abs(eta) - 2.0)) > 1e-4
        self.assert_is_minus_hessian(data, B)
        clipped = Dataset(X=np.ones((5, 1)), Y=np.ones((5, 2)), family=spec)
        assert np.array_equal(fisher_information(
            clipped, np.array([[3.0, -3.0]])), np.zeros((2, 1, 1)))


def generic_likelihood(stack, B):
    """y theta - b(theta) summed, and its gradient, through the link pass."""
    spec = stack.family
    theta, dtheta = link_terms(spec, linear_predictor(stack.X, B))
    b, mean = b_and_prime(spec, theta)
    value = (stack.Y * theta - b).sum(axis=(-2, -1)) / spec.a
    return value, stack.X.T @ ((stack.Y - mean) * dtheta) / spec.a


def probit_stack(spec, rng, n=200, p=4, q=3, R=3):
    X = rng.standard_normal((n, p))
    return stack_datasets([
        Dataset(X=X, Y=(rng.random((n, q)) < 0.5).astype(float), family=spec)
        for _ in range(R)])


class TestProbitClosedForm:
    """Unclipped probit: the cell log-likelihood is log Phi((2y - 1) eta)."""

    def test_matches_the_link_pass(self, rng):
        stack = probit_stack(FamilySpec("bernoulli_probit"), rng)
        B = np.array([s * rng.standard_normal((4, 3))
                      for s in (0.3, 3.0, 30.0)])
        assert np.abs(linear_predictor(stack.X, B)).max() > 37.0
        value, grad = log_likelihood_and_grad(stack, B)
        want_value, want_grad = generic_likelihood(stack, B)
        for v, g in ((value, grad), (want_value, want_grad)):
            assert np.all(np.isfinite(v)) and np.all(np.isfinite(g))
        assert np.all(np.abs(value - want_value)
                      <= 1e-12 * np.abs(want_value))
        for g, w in zip(grad, want_grad):
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()

    def test_matches_the_link_pass_across_the_fallback(self):
        """Cells whose z straddles LOG_NDTR_BELOW, where the erfc pass hands
        over to log_ndtr, and cells out at z = +40."""
        t = np.concatenate([np.linspace(-38.5, -36.0, 251),
                            np.linspace(-3.0, 3.0, 61), [36.0, 38.5, 40.0]])
        X = np.column_stack([t, np.ones_like(t)])
        Y = np.ones((len(t), 3))
        Y[::2, 1] = 0.0
        stack = stack_datasets([Dataset(X=X, Y=Y, family=FamilySpec(
            "bernoulli_probit"))])
        B = np.array([[[1.0, -1.0, 1.0], [0.0, 0.0, 1e-3]]])
        z = (2.0 * Y - 1.0) * linear_predictor(X, B)
        assert z.min() < -38.0 and z.max() > 39.9
        assert np.any((z > -38.5) & (z < LOG_NDTR_BELOW))
        assert np.any((z >= LOG_NDTR_BELOW) & (z < -36.0))
        value, grad = log_likelihood_and_grad(stack, B)
        want_value, want_grad = generic_likelihood(stack, B)
        for v, g in ((value, grad), (want_value, want_grad)):
            assert np.all(np.isfinite(v)) and np.all(np.isfinite(g))
        assert np.all(np.abs(value - want_value)
                      <= 1e-12 * np.abs(want_value))
        assert np.abs(grad - want_grad).max() \
            <= 1e-12 * np.abs(want_grad).max()

    def test_one_erfc_pass_per_kernel_call(self, rng, monkeypatch):
        """Every ufunc of scipy.special (the kernel's modules import their
        special functions from it when they call them) and every ufunc those
        modules hold is counted, and so are the link pass and b: one
        value_and_grad call on a stack with no cell below LOG_NDTR_BELOW
        makes one erfc call and nothing else."""
        import scipy.special

        calls, patched = {}, set()

        def count(module, name):
            fn = getattr(module, name)
            patched.add(name)

            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)

        for module in (scipy.special, frrr.families, frrr.posterior,
                       frrr.prior):
            for name, fn in list(vars(module).items()):
                if isinstance(fn, np.ufunc):
                    count(module, name)
        assert {"erfc", "log_ndtr"} <= patched
        for name in ("link_terms", "b_and_prime"):
            count(frrr.families, name)
        stack = probit_stack(FamilySpec("bernoulli_probit"), rng)
        B = rng.standard_normal((3, 4, 3))
        assert linear_predictor(stack.X, B).min() > LOG_NDTR_BELOW
        assert linear_predictor(stack.X, -B).min() > LOG_NDTR_BELOW
        value_and_grad(stack, B, PriorConfig(tau=0.5, p=4, q=3), 0.5)
        assert calls == {"erfc": 1}


class TestCellwiseKernel:
    """The kernel's cell-wise forms, all of them in
    ``families.log_likelihood_terms``."""

    @pytest.mark.parametrize("clipped", [False, True],
                             ids=["unclipped", "clipped"])
    @pytest.mark.parametrize("fam", FAMILY_IDS)
    def test_matches_the_link_pass(self, fam, clipped, rng):
        """Every family on a cell-wise stack, gaussian included, gives the
        link pass's bits; unclipped probit, whose closed form rounds
        differently, agrees to 1e-12 relative."""
        spec = (bounded_specs() if clipped else default_specs())[fam]
        X = rng.standard_normal((200, 4))
        theta = theta_from_eta(spec, X @ (0.5 * rng.standard_normal((4, 3))))
        stack = DataStack(X, np.stack([sample_response(spec, theta, rng)
                                       for _ in range(3)]), spec)
        B = 1.5 * rng.standard_normal((3, 4, 3))
        value, grad = log_likelihood_and_grad(stack, B)
        want_value, want_grad = generic_likelihood(stack, B)
        if fam == "bernoulli_probit" and not clipped:
            assert np.all(np.abs(value - want_value)
                          <= 1e-12 * np.abs(want_value))
            assert np.abs(grad - want_grad).max() \
                <= 1e-12 * np.abs(want_grad).max()
        else:
            assert np.array_equal(value, want_value)
            assert np.array_equal(grad, want_grad)

    def test_posterior_names_no_family(self):
        """Every per-family form lives in families: no string constant in
        posterior.py is a family id."""
        with open(frrr.posterior.__file__) as fh:
            tree = ast.parse(fh.read())
        found = [f"line {node.lineno}: {node.value!r}"
                 for node in ast.walk(tree) if isinstance(node, ast.Constant)
                 and node.value in FAMILY_IDS]
        assert found == []


def reference_mala(data, prior_cfg, alpha, gamma, n_steps, seed, init,
                   burn_in=0):
    """One MALA chain with thin 1 on the public kernel ``value_and_grad``,
    whose arrays are fresh, drawing from its stream as ``_mala`` does: the
    noise, then a raw-word uniform only for a finite log-ratio.  During
    burn-in the step size follows the rule ``run_chains`` documents, written
    out apart from ``_mala``: after each window of min(50, burn_in) steps it
    doubles at an acceptance above 0.6 and halves below 0.4, except that
    the last update of burn-in only halves.  Returns the samples and their
    log-posterior after burn-in, and the final step size."""
    draws = np.random.default_rng(seed)
    window = min(50, burn_in)
    B = init
    value, grad = value_and_grad(data, B, prior_cfg, alpha)
    samples, log_post, accepted = [], [], 0
    for step in range(n_steps):
        fwd = draws.standard_normal(B.shape) * np.sqrt(2.0 * gamma)
        prop = B + gamma * grad + fwd
        prop_value, prop_grad = value_and_grad(data, prop, prior_cfg, alpha)
        bwd = B - prop - gamma * prop_grad
        log_ratio = prop_value - value \
            + np.sum(fwd ** 2 - bwd ** 2) / (4.0 * gamma)
        if np.isfinite(log_ratio) and np.log(
                (draws.bit_generator.random_raw() >> 11) * 2.0 ** -53) \
                < log_ratio:
            B, value, grad = prop, prop_value, prop_grad
            accepted += 1
        if step < burn_in and (step + 1) % window == 0:
            rate, accepted = accepted / window, 0
            if rate > 0.6 and step + 1 + window <= burn_in:
                gamma = 2.0 * gamma
            elif rate < 0.4:
                gamma = 0.5 * gamma
        if step >= burn_in:
            samples.append(B)
            log_post.append(value)
    return np.array(samples), np.array(log_post), gamma


class TestSignAndBlockChains:
    """What a sampler block holds across ``_target`` calls, each checked
    against the fresh kernel: the stack's ``families.cell_constants``, for
    unclipped probit the sign 2Y - 1, made once when the stack is built,
    and the chains of one block, which reuse the step buffers of
    ``_mala``."""

    @staticmethod
    def far_stack(spec, R, rng, n=120, p=4, q=3):
        """A stack on one design whose first rows are 40 times the rest, so
        that a B of unit scale puts some probit cells below LOG_NDTR_BELOW."""
        X = rng.standard_normal((n, p))
        X[:12] *= 40.0
        theta = theta_from_eta(spec, 0.1 * X @ rng.standard_normal((p, q)))
        return stack_datasets([
            Dataset(X=X, Y=sample_response(spec, theta, rng), family=spec)
            for _ in range(R)], spec.a / 0.5)

    @pytest.mark.parametrize("spec,R", [
        (FamilySpec("bernoulli_probit"), 1),
        (FamilySpec("bernoulli_probit"), 3),
        (FamilySpec("bernoulli_logit", theta_lo=-2.0, theta_hi=2.0), 3),
        (FamilySpec("bernoulli_probit", theta_lo=-2.0, theta_hi=2.0), 3)],
        ids=["probit_R1", "probit_R3", "clipped_logit_R3",
             "clipped_probit_R3"])
    def test_matches_the_fresh_kernel_call_after_call(self, spec, R, rng,
                                                      monkeypatch):
        """The sign held on the stack gives, at every call, through calls
        with and without far-tail cells, the bits of the kernel on a stack
        that holds none, whose sign is computed on each call."""
        stack = self.far_stack(spec, R, rng)
        with monkeypatch.context() as m:
            m.setattr(frrr.posterior, "cell_constants", lambda spec, Y: None)
            fresh = DataStack(stack.X, stack.Y, spec,
                              dispersion=stack.dispersion)
        assert fresh.cells is None
        sign = 2.0 * stack.Y - 1.0
        if spec.theta_lo > -np.inf:
            assert stack.cells is None
        else:
            assert np.array_equal(stack.cells, sign)
        prior = frrr.prior.stack_priors([PriorConfig(tau=0.3, p=4, q=3)] * R)
        far = rng.standard_normal((R, 4, 3))
        for B in (far, 0.01 * far, -far, far):
            value, grad = frrr.posterior._target(stack, B, prior)
            want, want_grad = frrr.posterior._target(fresh, B, prior)
            assert np.array_equal(value, want)
            assert np.array_equal(grad, want_grad)
        z = sign * linear_predictor(stack.X, far)
        assert np.any(z < LOG_NDTR_BELOW) and np.any(z > -LOG_NDTR_BELOW)
        assert np.all(sign * linear_predictor(stack.X, 0.01 * far)
                      > LOG_NDTR_BELOW)

    @pytest.mark.parametrize("spec,seeds", [
        (spec, seeds) for seeds in ((5, 6), (5,)) for spec in (
            FamilySpec("bernoulli_probit"),
            FamilySpec("bernoulli_logit", theta_lo=-2.0, theta_hi=2.0),
            FamilySpec("gaussian"))],
        ids=[name + suffix for suffix in ("", "_one_chain")
             for name in ("probit", "clipped_logit", "gaussian")])
    def test_chains_of_a_block_are_the_fresh_kernel_chains(self, spec, seeds,
                                                            rng):
        """The chains of one block, at alpha = 0.5 and a = 1 where the
        stack at a / alpha = 2 is exact, are the reference MALA chains on
        the fresh kernel, bit for bit: had the sampler kept an array that
        the next ``_target`` call overwrites, a rejected proposal's
        gradient would steer the next one.  In a one-chain block every
        accepting step takes the proposal's arrays by rebinding, and the
        reference takes the log-ratio as fwd^2 - bwd^2 over 4 gamma."""
        data, B0 = make_data(spec, 150, 4, 3, rng)
        prior_cfg = PriorConfig(tau=0.3, p=4, q=3)
        # the gaussian reference runs on a one-matrix stack of X^T X, X^T Y,
        # at a step that accepts about as often as the others
        ref, init, gamma = (stack_datasets([data]), B0[None], 5e-3) \
            if has_sufficient_statistics(spec) else (data, B0, 1e-2)
        n_steps = 200
        fracs = [FractionalConfig(step_size=gamma, n_steps=n_steps,
                                  burn_in=0, thin=1, seed=seed, init=B0)
                 for seed in seeds]
        chains = run_chains([data] * len(seeds), [prior_cfg] * len(seeds),
                            fracs)
        for chain, frac in zip(chains, fracs):
            assert 0.2 < chain.acceptance_rate < 0.9
            samples, log_post, _ = reference_mala(ref, prior_cfg, 0.5, gamma,
                                                  n_steps, frac.seed, init)
            assert np.array_equal(chain.samples,
                                  samples.reshape(chain.samples.shape))
            assert np.array_equal(chain.log_post, log_post.ravel())

    @pytest.mark.parametrize("spec", [FamilySpec("gaussian"),
                                      FamilySpec("bernoulli_probit")],
                             ids=["gaussian", "probit"])
    def test_tuned_chains_are_the_reference_chains(self, spec, rng):
        """A two-chain block tuned over four windows of burn-in, one chain
        started at a step too large and one at a step too small, is the
        reference's tuned chains bit for bit, and its chains end at
        different step sizes, each moved from its start: a step size or
        sqrt(2 gamma) left stale after a window would part them."""
        data, B0 = make_data(spec, 150, 4, 3, rng)
        prior_cfg = PriorConfig(tau=0.3, p=4, q=3)
        ref, init = (stack_datasets([data]), B0[None]) \
            if has_sufficient_statistics(spec) else (data, B0)
        n_steps, burn_in = 300, 200
        fracs = [FractionalConfig(step_size=gamma, n_steps=n_steps,
                                  burn_in=burn_in, thin=1, seed=seed,
                                  init=B0)
                 for seed, gamma in ((5, 0.08), (6, 1e-4))]
        chains = run_chains([data] * 2, [prior_cfg] * 2, fracs)
        for chain, frac in zip(chains, fracs):
            samples, log_post, gamma = reference_mala(
                ref, prior_cfg, 0.5, frac.step_size, n_steps, frac.seed,
                init, burn_in)
            assert np.array_equal(chain.samples,
                                  samples.reshape(chain.samples.shape))
            assert np.array_equal(chain.log_post, log_post.ravel())
            assert chain.step_size == gamma != frac.step_size
        assert chains[0].step_size != chains[1].step_size


class TestPosteriorMeanAndRank:
    def test_single_sample(self):
        s = np.arange(6.0).reshape(1, 2, 3)
        chain = Chain(samples=s, log_post=np.zeros(1),
                      accept_flags=np.ones(1, bool), alpha=0.5)
        assert np.array_equal(posterior_mean(chain), s[0])

    def test_antisymmetric_pair(self, rng):
        B = rng.standard_normal((2, 2))
        chain = Chain(samples=np.stack([B, -B]), log_post=np.zeros(2),
                      accept_flags=np.ones(2, bool), alpha=0.5)
        assert np.allclose(posterior_mean(chain), 0.0)

    def test_lln(self, rng):
        M = rng.standard_normal((2, 2))
        samples = M + 0.1 * rng.standard_normal((1000, 2, 2))
        chain = Chain(samples=samples, log_post=np.zeros(1000),
                      accept_flags=np.ones(1000, bool), alpha=0.5)
        assert np.max(np.abs(posterior_mean(chain) - M)) < 0.01 + 0.02

    def test_effective_rank(self, rng):
        assert effective_rank(np.zeros((3, 3))) == 0
        assert effective_rank(np.eye(3)) == 3
        u, v = rng.standard_normal(4), rng.standard_normal(3)
        B = np.outer(u, v) + 1e-8 * rng.standard_normal((4, 3))
        assert effective_rank(B) == 1

    def test_empty_chain_error(self):
        """A chain has at least one sample, so every reader may take its
        mean."""
        with pytest.raises(ValueError, match="empty chain"):
            Chain(samples=np.zeros((0, 2, 2)), log_post=np.zeros(0),
                  accept_flags=np.zeros(0, bool), alpha=0.5)


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
        back = load_chain(path)
        assert np.array_equal(back.samples, chain.samples)
        assert back.alpha == 0.3
        assert back.step_size == chain.step_size
        assert np.allclose(back.log_post, chain.log_post)
        assert np.array_equal(back.accept_flags, chain.accept_flags)
        assert back.acceptance_rate == np.mean(chain.accept_flags)

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
        for step_size in (-1.0, 0.0, np.nan, np.inf, 1e308):
            with pytest.raises(ValueError, match="step_size"):
                FractionalConfig(step_size=step_size)
