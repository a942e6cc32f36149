"""Misspecified fit: probit truth, logit model, oracle inequality.

The data come from a probit law, but we fit a (theta-bounded) logit model.
The posterior cannot reach zero divergence; instead the posterior-average
D_alpha plateaus at the KL floor of the misspecified class, and the
posterior-average prediction error to the KL projection B_bar obeys the
oracle inequality.
"""

import numpy as np

from frrr import MisspecConfig, run_misspec_study

cfg = MisspecConfig(p=4, q=3, r=1, n_grid=(100, 200, 400), replications=4,
                    n_steps=1500, burn_in=500, seed=13)
res = run_misspec_study(cfg)

print(f"{'n':>5} {'kl_floor':>9} {'mean D_a':>9} {'mean lhs':>9} "
      f"{'oracle rhs':>10} {'ok':>4}")
for c in res.cells:
    print(f"{c.n:5d} {c.kl_floor:9.5f} {np.mean(c.d_alpha):9.5f} "
          f"{np.mean(c.lhs_pred):9.5f} {c.oracle_rhs:10.3f} "
          f"{c.oracle_satisfied_fraction:4.2f}")

fit = res.cells[-1].fit
print(f"\nKL projection: grad norm {fit.grad_norm:.2e}, "
      f"restart spread {fit.restart_spread:.2e}")
print("D_alpha stops decaying once it reaches the floor; with a correctly "
      "specified model it would vanish like 1/n.")
