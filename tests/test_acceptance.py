"""The nine acceptance criteria, one test class per criterion.

Heavy Monte Carlo studies (criteria 6-8) are shared across checks through
session-scoped fixtures.  Each criterion prints a single PASS line with its
headline numbers when its assertions hold.
"""

import itertools
import os

import numpy as np
import pytest

from frrr.divergence import (divergence_report, kl_bruteforce, kl_per_entry,
                             renyi_bruteforce, renyi_per_entry, tv_bruteforce)
from frrr.experiments import (MisspecConfig, RateStudyConfig,
                              run_misspec_study, run_rate_study,
                              verify_divergence_bounds)
from frrr.families import FAMILY_IDS, Dataset, FamilySpec
from frrr.posterior import (FractionalConfig, grad_log_fractional_posterior,
                            grad_log_likelihood, log_fractional_posterior,
                            log_likelihood, posterior_mean, run_sampler)
from frrr.prior import PriorConfig, grad_log_prior, log_prior

from conftest import bounded_specs, central_diff, default_specs

ALPHAS = (0.25, 0.5, 0.75)


# ---------------------------------------------------------------------------
# criterion 1: gradient suite


class TestCriterion1Gradients:
    def test_likelihood_and_prior_gradients(self):
        rng = np.random.default_rng(101)
        worst = 0.0
        for fam in FAMILY_IDS:
            spec = default_specs()[fam]
            from frrr.simulate import SyntheticTruth, generate_dataset
            X = rng.standard_normal((6, 3))
            B0 = 0.3 * rng.standard_normal((3, 2))
            data = generate_dataset(X, SyntheticTruth(B0, 2, 0.3), spec, rng)
            cfg = PriorConfig(tau=0.7, p=3, q=2)
            for _ in range(50):
                B = 0.4 * rng.standard_normal((3, 2))
                fd = central_diff(lambda M: log_likelihood(data, M), B)
                g = grad_log_likelihood(data, B)
                rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-8)
                assert rel < 1e-4, (fam, rel)
                fdp = central_diff(lambda M: log_prior(M, cfg), B)
                gp = grad_log_prior(B, cfg)
                relp = np.linalg.norm(gp - fdp) / max(np.linalg.norm(fdp), 1e-8)
                assert relp < 1e-4, (fam, relp)
                worst = max(worst, rel, relp)
            # the combined fractional gradient at a few points per family
            for _ in range(5):
                B = 0.4 * rng.standard_normal((3, 2))
                fd = central_diff(
                    lambda M: log_fractional_posterior(data, M, cfg, 0.5), B)
                g = grad_log_fractional_posterior(data, B, cfg, 0.5)
                rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-8)
                assert rel < 1e-4, (fam, rel)
        print(f"\nACCEPTANCE 1 PASS: gradient suite, worst relative "
              f"error {worst:.2e} < 1e-4")


# ---------------------------------------------------------------------------
# criterion 2: divergence oracle suite


class TestCriterion2Oracles:
    def test_closed_forms_match_bruteforce(self):
        rng = np.random.default_rng(202)
        worst = {"discrete": 0.0, "continuous": 0.0}
        for fam in FAMILY_IDS:
            spec = bounded_specs()[fam]
            kind = "discrete" if spec.is_discrete else "continuous"
            tol = 1e-8 if spec.is_discrete else 1e-6
            lo = max(spec.theta_min, -3.0)
            hi = min(spec.theta_max, 3.0)
            theta = rng.uniform(lo, hi, 200)
            zeta = rng.uniform(lo, hi, 200)
            for t, z in zip(theta, zeta):
                err = abs(kl_per_entry(spec, t, z) - kl_bruteforce(spec, t, z))
                assert err < tol, (fam, "kl", t, z, err)
                worst[kind] = max(worst[kind], err)
                for al in ALPHAS:
                    err = abs(renyi_per_entry(spec, t, z, al)
                              - renyi_bruteforce(spec, t, z, al))
                    assert err < tol, (fam, "renyi", al, t, z, err)
                    worst[kind] = max(worst[kind], err)
        print(f"\nACCEPTANCE 2 PASS: oracle suite, worst abs error "
              f"discrete {worst['discrete']:.2e} < 1e-8, "
              f"continuous {worst['continuous']:.2e} < 1e-6")


# ---------------------------------------------------------------------------
# criterion 3: lemma suite


class TestCriterion3Lemmas:
    def test_zero_violations_on_1e4_pairs(self):
        rng = np.random.default_rng(303)
        for fam in FAMILY_IDS:
            spec = bounded_specs()[fam]
            res = verify_divergence_bounds(spec, 10 ** 4, rng)
            for lemma, frac in res["satisfied_fraction"].items():
                assert frac == 1.0, (fam, lemma, frac)
            if fam == "gaussian":
                # skip near-zero gaps where 0/0 cancellation dominates
                gap = np.abs(res["theta"] - res["zeta"]) > 1e-2
                ratio = res["kl_exact"][gap] / res["kl_bound"][gap]
                assert np.all(np.abs(ratio - 1.0) < 1e-9)
        print("\nACCEPTANCE 3 PASS: four lemma inequalities, 10^4 pairs "
              "per family, zero violations; gaussian KL bound tight to 1e-9")


# ---------------------------------------------------------------------------
# criterion 4: divergence relations on enumerable bernoulli products


class TestCriterion4Relations:
    def test_monotone_and_tv_hellinger(self):
        rng = np.random.default_rng(404)
        spec = FamilySpec("bernoulli_logit")
        from scipy.special import expit
        checked = 0
        for nq in range(1, 13):
            for _ in range(5):
                theta = rng.uniform(-2, 2, nq)
                zeta = rng.uniform(-2, 2, nq)
                # D_alpha monotone in alpha
                grid = np.arange(0.1, 0.91, 0.1)
                totals = [float(np.sum(renyi_per_entry(spec, theta, zeta, a)))
                          for a in grid]
                assert np.all(np.diff(totals) >= -1e-12)
                tv = tv_bruteforce(spec, theta, zeta)
                for al in ALPHAS:
                    d_tot = float(np.sum(renyi_per_entry(spec, theta, zeta, al)))
                    assert al / 2.0 * tv ** 2 <= d_tot + 1e-12
                # Hellinger by independent product enumeration
                p, q = expit(theta), expit(zeta)
                bc = np.sqrt(p * q) + np.sqrt((1 - p) * (1 - q))
                h_sq = 2.0 - 2.0 * np.prod(bc)
                d_half = float(np.sum(renyi_per_entry(spec, theta, zeta, 0.5)))
                assert h_sq <= d_half + 1e-12
                checked += 1
        print(f"\nACCEPTANCE 4 PASS: D_alpha monotonicity, (alpha/2) d_TV^2 "
              f"<= D_alpha and H^2 <= D_1/2 on {checked} bernoulli products, "
              "zero violations")


# ---------------------------------------------------------------------------
# criterion 5: sampler baseline


class TestCriterion5Sampler:
    def test_mala_matches_ols(self):
        rng = np.random.default_rng(505)
        spec = FamilySpec("gaussian")
        from frrr.simulate import SyntheticTruth, generate_dataset
        X = rng.standard_normal((200, 2))
        B0 = rng.standard_normal((2, 1))
        data = generate_dataset(X, SyntheticTruth(B0, 1, 1.0), spec, rng)
        ols, *_ = np.linalg.lstsq(data.X, data.Y, rcond=None)
        prior_cfg = PriorConfig(tau=1e3, p=2, q=1)
        frac = FractionalConfig(alpha=0.5, n_steps=200000, thin=10, seed=1)
        chain = run_sampler(data, prior_cfg, frac)
        err = float(np.linalg.norm(posterior_mean(chain) - ols))
        assert err < 0.05, err
        assert 0.1 < chain.acceptance_rate < 0.9
        print(f"\nACCEPTANCE 5 PASS: MALA baseline ||Bhat - OLS||_F = "
              f"{err:.4f} < 0.05, acceptance {chain.acceptance_rate:.2f} "
              "in (0.1, 0.9)")


# ---------------------------------------------------------------------------
# criteria 6 and 7: rate study


@pytest.fixture(scope="session")
def rate_study():
    cfg = RateStudyConfig(
        family=FamilySpec("gaussian"), p=8, q=6, r=2,
        n_grid=(100, 200, 400, 800, 1600), r_grid=(1, 4), n_ref=400,
        replications=20, alpha=0.5, tau_preset="theorem1", seed=606)
    return run_rate_study(cfg)


class TestCriterion6RateReproduction:
    def test_prop1_bound_everywhere(self, rate_study):
        for c in rate_study.cells:
            assert c.bound_satisfied, (
                c.n, c.r, float(np.mean(c.pred_err)), c.prop1_bound)

    def test_loglog_slope(self, rate_study):
        assert -1.2 <= rate_study.slope <= -0.8, rate_study.slope

    def test_error_nondecreasing_in_rank(self, rate_study):
        at_ref = sorted(
            (c for c in rate_study.cells if c.n == rate_study.config.n_ref),
            key=lambda c: c.r)
        ranks = [c.r for c in at_ref]
        assert ranks == [1, 2, 4]
        for lo, hi in zip(at_ref, at_ref[1:]):
            m_lo, m_hi = np.mean(lo.pred_err), np.mean(hi.pred_err)
            se = np.sqrt(np.var(lo.pred_err) / len(lo.pred_err)
                         + np.var(hi.pred_err) / len(hi.pred_err))
            assert m_hi >= m_lo - 2 * se, (lo.r, hi.r, m_lo, m_hi, se)
        print(f"\nACCEPTANCE 6 PASS: Prop-1 bound holds in all "
              f"{len(rate_study.cells)} cells; log-log slope "
              f"{rate_study.slope:.3f} in [-1.2, -0.8]; error nondecreasing "
              "in r at n=400 up to 2 SE")


class TestCriterion7Concentration:
    def test_thm3_frequency(self, rate_study):
        checked = 0
        for c in rate_study.cells:
            if c.thm3_vacuous:
                continue
            assert c.thm3_frequency >= c.thm3_required - 1e-12, (
                c.n, c.r, c.thm3_frequency, c.thm3_required)
            checked += 1
        assert checked > 0
        print(f"\nACCEPTANCE 7 PASS: Theorem-3 concentration frequency >= "
              f"1 - 2/(n eps_n) in all {checked} non-vacuous cells")


# ---------------------------------------------------------------------------
# criterion 8: misspecification study


@pytest.fixture(scope="session")
def misspec_study():
    cfg = MisspecConfig(p=6, q=4, r=2, n_grid=(200, 400, 800),
                        replications=10, seed=707)
    return run_misspec_study(cfg)


class TestCriterion8Misspecification:
    def test_kl_minimizer_converged(self, misspec_study):
        for c in misspec_study.cells:
            assert c.fit.grad_norm < 1e-6, (c.n, c.fit.grad_norm)
            assert c.fit.restart_spread < 1e-4, (c.n, c.fit.restart_spread)

    def test_oracle_bound_satisfied(self, misspec_study):
        for c in misspec_study.cells:
            assert c.oracle_satisfied_fraction >= 0.9, (
                c.n, c.oracle_satisfied_fraction)

    def test_d_alpha_plateaus_above_floor(self, misspec_study):
        cells = sorted(misspec_study.cells, key=lambda c: c.n)
        means = [float(np.mean(c.d_alpha)) for c in cells]
        floors = [c.kl_floor for c in cells]
        # no decay to zero: the largest-n average stays at the same order
        # as the smallest-n one (well-specified D_alpha would drop ~1/n)
        assert means[-1] >= 0.5 * means[0], means
        # and it sits above (a fixed fraction of) the KL floor
        for m, f in zip(means, floors):
            assert m >= 0.25 * f, (m, f)
        print(f"\nACCEPTANCE 8 PASS: KL minimizer grad < 1e-6 with "
              f"multi-start spread < 1e-4; oracle bound satisfied in "
              f">= 90% of replications per cell; D_alpha plateau "
              f"{means[-1]:.4f} above floor scale {floors[-1]:.4f}")


# ---------------------------------------------------------------------------
# criterion 9: CLI determinism


class TestCriterion9Determinism:
    def test_byte_identical_reruns(self, tmp_path):
        from frrr.cli import main

        def run_all(tag):
            base = tmp_path / tag
            data = base / "data"
            gen = base / "gen.ini"
            base.mkdir()
            gen.write_text(
                "[family]\nfamily = gaussian\n"
                "[truth]\np = 3\nq = 2\nr = 1\n"
                "[design]\nn = 40\n"
                f"[output]\ndir = {data}\n[run]\nseed = 11\n")
            assert main(["generate", str(gen)]) == 0
            fit = base / "fit.ini"
            fit_out = base / "fit"
            fit.write_text(
                "[family]\nfamily = gaussian\n"
                f"[data]\ndataset_dir = {data}\n"
                "[sampler]\nalpha = 0.5\nn_steps = 400\nburn_in = 100\n"
                "thin = 4\n[prior]\ntau_preset = theorem1\n"
                f"[output]\ndir = {fit_out}\n[run]\nseed = 11\n")
            assert main(["fit", str(fit)]) == 0
            vb = base / "vb.ini"
            vb_out = base / "vb"
            vb.write_text(
                "[family]\nfamily = bernoulli_logit\n"
                "theta_lo = -2\ntheta_hi = 2\n"
                "[study]\ntrials = 300\n"
                f"[output]\ndir = {vb_out}\n[run]\nseed = 11\n")
            assert main(["verify-bounds", str(vb)]) == 0
            out = {}
            for d in (data, fit_out, vb_out):
                for f in sorted(os.listdir(d)):
                    out[f"{d.name}/{f}"] = (d / f).read_bytes()
            return out

        first = run_all("a")
        # rerun in place (same directories) and from scratch
        second = run_all("b")
        assert set(first) == set(second)
        diffs = [k for k in first if first[k] != second[k]]
        # manifests embed output paths which differ between a/ and b/
        diffs = [k for k in diffs if not k.endswith("manifest.json")]
        assert diffs == [], diffs
        print(f"\nACCEPTANCE 9 PASS: {len(first)} CLI output files "
              "byte-identical across reruns")
