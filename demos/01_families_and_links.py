"""Tour of the six exponential families and their link functions.

For each family we print the cumulant b and its first two derivatives at a
few natural parameters, the curvature bounds (C_L, C_U) and mean bound U_1
over the configured interval, and a quick check that sampled responses match
the mean b'(theta).
"""

import numpy as np

from frrr import FamilySpec, b_prime, b_second, b_value, family_bounds, \
    sample_response, theta_from_eta

SPECS = [
    FamilySpec("gaussian", theta_lo=-3.0, theta_hi=3.0),
    FamilySpec("bernoulli_logit", theta_lo=-2.0, theta_hi=2.0),
    FamilySpec("bernoulli_probit", theta_lo=-2.0, theta_hi=2.0),
    FamilySpec("poisson_log", theta_lo=-1.0, theta_hi=1.0),
    FamilySpec("gamma_log", a=0.5, theta_lo=-5.0, theta_hi=-0.2),
    FamilySpec("negbin_log", k=2.0, theta_lo=-3.0, theta_hi=-0.1),
]

rng = np.random.default_rng(0)

for spec in SPECS:
    fb = family_bounds(spec)
    theta = 0.5 * (spec.theta_lo + spec.theta_hi)
    mean = float(b_prime(spec, theta))
    draws = sample_response(spec, np.full(20000, theta), rng)
    print(f"{spec.family:18s} theta={theta:+.2f} "
          f"b={float(b_value(spec, theta)):+.4f} "
          f"b'={mean:+.4f} b''={float(b_second(spec, theta)):.4f} "
          f"C_L={fb.c_l:.4f} C_U={fb.c_u:.4f} U_1={fb.u_1:.4f} "
          f"sample_mean={draws.mean():+.4f}")

# Non-canonical links: theta is a nonlinear function of the predictor eta.
print("\nprobit link: eta -> theta")
probit = FamilySpec("bernoulli_probit")
for eta in (-2.0, 0.0, 2.0):
    th = float(theta_from_eta(probit, eta))
    print(f"  eta={eta:+.1f}  theta={th:+.5f}  mean={float(b_prime(probit, th)):.5f}")
