from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from frrr.cli import load_dataset, save_dataset
from frrr.families import FamilySpec, _raw_link, sample_response
from frrr.simulate import (calibrate_scale, compute_kappa, generate_dataset,
                           make_design, make_low_rank_truth, prediction_error)


def snapshot(truth):
    """Copies of every attribute of a truth."""
    return {k: np.copy(v) for k, v in vars(truth).items()}


def assert_unchanged(truth, before):
    assert vars(truth).keys() == before.keys()
    for k, v in before.items():
        assert np.array_equal(vars(truth)[k], v, equal_nan=True), k


class TestMakeLowRankTruth:
    def test_rank_zero(self, rng):
        t = make_low_rank_truth(3, 2, 0, 1.0, rng)
        assert np.all(t.b0 == 0)
        assert t.frob == 0.0

    def test_exact_rank(self, rng):
        t = make_low_rank_truth(4, 3, 2, 1.0, rng)
        s = np.linalg.svd(t.b0, compute_uv=False)
        assert np.sum(s > 1e-10) == 2

    def test_scale_linearity(self):
        t1 = make_low_rank_truth(4, 3, 2, 1.0, np.random.default_rng(7))
        t2 = make_low_rank_truth(4, 3, 2, 2.0, np.random.default_rng(7))
        assert abs(t2.frob - 2 * t1.frob) < 1e-12

    def test_invalid_rank(self, rng):
        with pytest.raises(ValueError):
            make_low_rank_truth(3, 2, 3, 1.0, rng)


class TestMakeDesign:
    def test_normalized_columns(self, rng):
        X = make_design(50, 4, "normalized", rng)
        assert np.allclose(np.linalg.norm(X, axis=0), np.sqrt(50), atol=1e-12)

    def test_iid_correlation(self):
        X = make_design(10 ** 4, 2, "iid", np.random.default_rng(1))
        corr = np.corrcoef(X.T)[0, 1]
        assert abs(corr) < 0.03

    def test_reproducible(self):
        X1 = make_design(10, 3, "iid", np.random.default_rng(5))
        X2 = make_design(10, 3, "iid", np.random.default_rng(5))
        assert np.array_equal(X1, X2)

    def test_unknown_mode(self, rng):
        with pytest.raises(ValueError):
            make_design(10, 3, "orthonormal", rng)


class TestGenerateDataset:
    def test_gaussian_residual_mean(self, rng):
        spec = FamilySpec("gaussian")
        X = make_design(10 ** 4, 2, "iid", rng)
        truth = make_low_rank_truth(2, 10, 1, 0.2, rng)
        data = generate_dataset(X, truth, spec, rng)
        resid = data.Y - X @ truth.b0
        assert abs(resid.mean()) < 0.02

    def test_bernoulli_null_truth(self, rng):
        spec = FamilySpec("bernoulli_logit")
        X = make_design(100, 2, "iid", rng)
        truth = make_low_rank_truth(2, 100, 0, 1.0, rng)
        data = generate_dataset(X, truth, spec, rng)
        assert abs(data.Y.mean() - 0.5) < 0.01

    def test_poisson_single_cell_mean(self, rng):
        spec = FamilySpec("poisson_log")
        X = np.zeros((10 ** 4, 1))  # eta = 0 -> theta = 0 -> mean 1
        truth = make_low_rank_truth(1, 1, 1, 1.0, rng)
        data = generate_dataset(X, truth, spec, rng)
        assert abs(data.Y.mean() - 1.0) < 0.03

    def test_calibrate_scale(self, rng):
        X = make_design(200, 4, "iid", rng)
        truth = calibrate_scale(X, make_low_rank_truth(4, 3, 2, 5.0, rng))
        eta = X @ truth.b0
        assert np.quantile(np.abs(eta), 0.99) <= 3.0 + 1e-9

    def test_generate_leaves_truth_unchanged(self, rng):
        spec = FamilySpec("bernoulli_logit", theta_lo=-1.0, theta_hi=1.0)
        X = make_design(50, 3, "iid", rng)
        truth = make_low_rank_truth(3, 2, 1, 3.0, rng)
        before = snapshot(truth)
        generate_dataset(X, truth, spec, rng)
        assert_unchanged(truth, before)

    def test_calibrate_scale_returns_a_new_truth(self, rng):
        X = make_design(200, 4, "iid", rng)
        truth = make_low_rank_truth(4, 3, 2, 5.0, rng)
        before = snapshot(truth)
        scaled = calibrate_scale(X, truth)
        assert_unchanged(truth, before)
        ratio = scaled.b0 / truth.b0
        assert np.allclose(ratio, ratio[0, 0], rtol=1e-14, atol=0.0)
        assert ratio[0, 0] != 1.0
        assert scaled.rank == truth.rank
        with pytest.raises(FrozenInstanceError):
            scaled.b0 = truth.b0

    def test_samples_at_the_clipped_raw_link(self):
        """Y is drawn at the raw link clipped into the interval; an
        unbounded interval leaves it unclipped."""
        X = make_design(80, 3, "iid", np.random.default_rng(3))
        truth = make_low_rank_truth(3, 4, 2, 3.0, np.random.default_rng(4))
        for spec in (FamilySpec("bernoulli_logit", theta_lo=-1.0,
                                theta_hi=1.0), FamilySpec("gaussian")):
            theta = np.clip(_raw_link(spec, X @ truth.b0)[0],
                            spec.theta_lo, spec.theta_hi)
            Y = generate_dataset(X, truth, spec, np.random.default_rng(5)).Y
            assert np.array_equal(
                Y, sample_response(spec, theta, np.random.default_rng(5)))


class TestKappa:
    def test_identity(self):
        assert abs(compute_kappa(np.eye(5)) - 1 / np.sqrt(5)) < 1e-12

    def test_scaled_identity(self):
        assert abs(compute_kappa(2 * np.eye(2)) - np.sqrt(2)) < 1e-12

    def test_wide_matrix_zero(self, rng):
        assert compute_kappa(rng.standard_normal((3, 5))) == 0.0

    def test_is_minimum_over_b(self, rng):
        X = rng.standard_normal((20, 4))
        k = compute_kappa(X)
        for _ in range(1000):
            B = rng.standard_normal((4, 2))
            ratio = np.linalg.norm(X @ B) / (np.sqrt(20) * np.linalg.norm(B))
            assert ratio >= k - 1e-6


class TestPredictionError:
    def test_zero_at_truth(self, rng):
        X = rng.standard_normal((5, 3))
        B = rng.standard_normal((3, 2))
        assert prediction_error(X, B, B) == 0.0

    def test_identity_design(self, rng):
        B1 = rng.standard_normal((4, 2))
        B2 = rng.standard_normal((4, 2))
        val = prediction_error(np.eye(4), B1, B2)
        assert abs(val - np.sum((B1 - B2) ** 2) / 8) < 1e-12

    def test_matches_naive(self, rng):
        X = rng.standard_normal((6, 3))
        B1 = rng.standard_normal((3, 2))
        B2 = rng.standard_normal((3, 2))
        diff = X @ (B1 - B2)
        naive = sum(diff[i, j] ** 2 for i in range(6) for j in range(2)) / 12
        assert abs(prediction_error(X, B1, B2) - naive) < 1e-12

    def test_stack_matches_each_matrix(self, rng):
        """A (..., p, q) stack gives one value per matrix, and one (p, q)
        matrix a float."""
        X = rng.standard_normal((30, 4))
        B0 = rng.standard_normal((4, 3))
        stack = rng.standard_normal((2, 5, 4, 3))
        vals = prediction_error(X, stack, B0)
        assert vals.shape == (2, 5)
        for idx in np.ndindex(2, 5):
            naive = np.sum((X @ (stack[idx] - B0)) ** 2) / (30 * 3)
            assert abs(vals[idx] - naive) <= 1e-12 * naive
            one = prediction_error(X, stack[idx], B0)
            assert type(one) is float
            assert abs(one - naive) <= 1e-12 * naive

    def test_spectral_compatibility(self, rng):
        X = rng.standard_normal((10, 3))
        B1 = rng.standard_normal((3, 2))
        B2 = rng.standard_normal((3, 2))
        lhs = prediction_error(X, B1, B2)
        spec_norm = np.linalg.norm(X, 2)
        assert lhs <= spec_norm ** 2 * np.sum((B1 - B2) ** 2) / 20 + 1e-12


class TestPersistence:
    @pytest.mark.parametrize("fam_kwargs", [
        dict(family="gaussian", a=2.0),
        dict(family="negbin_log", k=3.0),
    ])
    def test_round_trip(self, fam_kwargs, tmp_path, rng):
        spec = FamilySpec(**fam_kwargs)
        X = make_design(20, 3, "iid", rng)
        truth = calibrate_scale(X, make_low_rank_truth(3, 2, 1, 1.0, rng))
        data = generate_dataset(X, truth, spec, rng)
        save_dataset(tmp_path / "d", data, seed=3)
        back = load_dataset(tmp_path / "d")
        assert np.array_equal(back.X, data.X)
        assert np.array_equal(back.Y, data.Y)
        assert back.family == data.family
        assert back.digest() == data.digest()
