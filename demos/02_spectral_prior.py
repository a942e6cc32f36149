"""The spectral scaled Student prior: density, exact sampling, moments.

The prior on a p x q coefficient matrix B is proportional to
det(tau^2 I_p + B B^T)^{-(p+q+2)/2}.  It has heavy tails in every singular
direction, which is what drives the adaptive low-rank behaviour.  We verify
the second-moment identity E||B||_F^2 = p q tau^2 by Monte Carlo and show
the log-density penalizes rank.
"""

import numpy as np

from frrr import PriorConfig, log_prior, sample_prior, tau_preset

p, q, tau = 5, 4, 0.3
cfg = PriorConfig(tau=tau, p=p, q=q)
rng = np.random.default_rng(1)

draws = sample_prior(cfg, 4000, rng)
emp = np.mean([np.sum(B ** 2) for B in draws])
print(f"E||B||_F^2: empirical {emp:.4f}  vs  p*q*tau^2 = {p * q * tau ** 2:.4f}")

# Rank penalty: spreading the same Frobenius mass over more singular
# directions costs log-density.
u = np.zeros((p, q))
u[0, 0] = 1.0
full = np.eye(p, q) / np.sqrt(q)
print(f"log prior, rank-1 mass:    {log_prior(u, cfg):.4f}")
print(f"log prior, spread mass:    {log_prior(full, cfg):.4f}  (lower)")

# Presets tie tau to the design and the theory.
x_frob = 20.0
for preset in ("theorem1", "theorem3", "misspecified"):
    t = tau_preset(preset, n=400, p=p, q=q, a=1.0, x_frob=x_frob)
    print(f"tau_preset[{preset:12s}] = {t:.6f}")
