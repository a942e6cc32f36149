"""Closed-form divergences, a Monte Carlo check, and the lemma bounds.

Within one exponential family the KL and Renyi divergences between laws at
natural parameters theta and zeta have closed forms in the cumulant b.  We
set them beside Monte Carlo averages over draws of the response, and check
the quadratic bounds that power the contraction-rate proofs.
"""

import numpy as np

from frrr import (FamilySpec, divergence_report, family_bounds, kl_per_entry,
                  rate_formulas, renyi_per_entry, sample_response)
from frrr.divergence import lemma_rhs

spec = FamilySpec("poisson_log", theta_lo=-1.0, theta_hi=1.0)
theta, zeta = 0.4, -0.3
draws = 200_000

# Y ~ P_theta, and the poisson log p_theta(y) - log p_zeta(y); log y! cancels.
rng = np.random.default_rng(4)
y = sample_response(spec, np.full(draws, theta), rng)
log_ratio = y * (theta - zeta) - np.exp(theta) + np.exp(zeta)

# KL = E log(p_theta / p_zeta), D_alpha = log E (p_zeta / p_theta)^(1 - alpha)
# / (alpha - 1), both under P_theta.
kl = float(kl_per_entry(spec, theta, zeta))
se = log_ratio.std() / np.sqrt(draws)
print(f"Monte Carlo over {draws} draws of Y ~ P_theta, theta = {theta}, "
      f"zeta = {zeta}")
print(f"KL     closed {kl:.5f}  Monte Carlo {log_ratio.mean():.5f} "
      f"(+- {se:.5f})")
for al in (0.25, 0.5, 0.75):
    d = float(renyi_per_entry(spec, theta, zeta, al))
    mc = np.log(np.mean(np.exp((al - 1.0) * log_ratio))) / (al - 1.0)
    print(f"D_{al:.2f} closed {d:.5f}  Monte Carlo {mc:.5f}")

# Quadratic sandwich: C_L/(2a) d^2 <= KL <= C_U/(2a) d^2, and the
# alpha-weighted lower bound for the Renyi divergence.
rng = np.random.default_rng(3)
Theta = rng.uniform(-1, 1, size=(50,))
Zeta = rng.uniform(-1, 1, size=(50,))
fb = family_bounds(spec)
sq = float(np.sum((Zeta - Theta) ** 2))
lb1 = lemma_rhs(fb, spec.a, sq, Theta.size)             # alpha=1: KL bounds
lb_half = lemma_rhs(fb, spec.a, sq, Theta.size, alpha=0.5)
kl_avg = float(np.mean(kl_per_entry(spec, Theta, Zeta)))
d_avg = float(np.mean(renyi_per_entry(spec, Theta, Zeta, 0.5)))
print(f"\nKL in [{lb1.renyi_lower:.5f}, {lb1.kl_upper:.5f}]  actual {kl_avg:.5f}")
print(f"D_0.5 >= {lb_half.renyi_lower:.5f}  actual {d_avg:.5f}")

# Full report over a matrix of parameters.
rep = divergence_report(spec, Theta.reshape(10, 5), Zeta.reshape(10, 5))
print(f"\nreport: KL avg {rep.kl_avg:.5f}  H^2 {rep.hellinger_sq:.5f}  "
      f"TV in [{rep.tv_lower:.5f}, {rep.tv_upper:.5f}]")

# Rate formulas from the same bounds object.
rf = rate_formulas(n=100, p=4, q=2, r=1, a=1.0, bounds=fb,
                   x_frob=10.0, b_frob=1.0)
print(f"eps_n(thm1) = {rf.epsilon_n_thm1:.6f}   r_n = {rf.r_n:.6f}")
