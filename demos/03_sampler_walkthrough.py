"""Fit a fractional posterior with MALA and inspect the chain.

We simulate a rank-2 gaussian reduced-rank regression, run the sampler at
fractional power alpha = 0.5, and compare the posterior mean against the
truth and against ordinary least squares.
"""

import numpy as np

from frrr import (Dataset, FamilySpec, FractionalConfig, PriorConfig,
                  calibrate_scale, effective_rank, generate_dataset,
                  likelihood_ridge_fit, make_design, make_low_rank_truth,
                  posterior_mean, prediction_error, run_sampler, tau_preset)

rng = np.random.default_rng(2)
n, p, q, r = 400, 6, 4, 2
spec = FamilySpec("gaussian")

X = make_design(n, p, "iid", rng)
truth = calibrate_scale(X, make_low_rank_truth(p, q, r, 1.0, rng))
data = generate_dataset(X, truth, spec, rng)

tau = tau_preset("theorem1", n, p, q, spec.a, float(np.linalg.norm(X)))
prior = PriorConfig(tau=tau, p=p, q=q)
frac = FractionalConfig(alpha=0.5, n_steps=4000, burn_in=1000, thin=5,
                        seed=7, init=likelihood_ridge_fit([data])[0])

chain = run_sampler(data, prior, frac)
bhat = posterior_mean(chain)
ols = np.linalg.lstsq(X, data.Y, rcond=None)[0]

print(f"acceptance rate      : {chain.acceptance_rate:.3f}")
print(f"step size (tuned)    : {chain.step_size:.3e}")
print(f"samples kept         : {len(chain.samples)}")
print(f"pred err, posterior  : {prediction_error(X, bhat, truth.b0):.5f}")
print(f"pred err, OLS        : {prediction_error(X, ols, truth.b0):.5f}")
print(f"effective rank(Bhat) : {effective_rank(bhat)}  (truth rank {r})")
