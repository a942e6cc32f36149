"""Natural exponential families with canonical and non-canonical links.

Each family is described by its log-partition function b and a strictly
increasing link, so that the natural parameter solves (h o b')(theta) = eta
for a linear predictor eta.  Families with an open natural-parameter boundary
(gamma-log, negbin-log) are clipped a configurable margin away from it so
that the curvature bounds stay finite.

The posterior kernel's cell-wise work lives here too, in one eta-space
function, ``log_likelihood_terms``: a times each cell's log-likelihood,
y theta - b(theta), and its eta-derivative, in one of two forms.  On the
whole real line probit has log Phi(z) with z = (2y - 1) eta, a form that
holds only for binary y; every other case takes the link pass
``link_terms``.

Both probit forms rest on one routine for the standard normal CDF Phi,
``log_norm_cdf_and_ratio``: one erfc pass gives h = Phi(-|z|), then
Phi(z) = h + [z >= 0] (1 - 2h) without a branch, one log, and one exp and a
divide for phi(z) / Phi(z).  Cells below LOG_NDTR_BELOW, where h underflows,
take ``log_ndtr``.  The probit link calls it at z = -|eta|, where log Phi is
accurate to 1e-14 relative.

Each law's mean b' is written once, in ``b_and_prime``.  SciPy is imported
only inside ``log_norm_cdf_and_ratio`` (``erfc``, and ``log_ndtr`` in the
far tail), so only the probit link loads ``scipy.special``.
"""

from dataclasses import dataclass

import numpy as np

FAMILY_IDS = (
    "gaussian",
    "bernoulli_logit",
    "bernoulli_probit",
    "poisson_log",
    "gamma_log",
    "negbin_log",
)

# families whose natural domain is the open half-line (-inf, 0); they alone
# read k and clip_margin
_NEGATIVE_DOMAIN = ("gamma_log", "negbin_log")
CLIP_MARGIN = 1e-3            # default distance kept from that boundary

# below this z, erfc(|z| / sqrt 2) = 2 Phi(z) leaves the normal doubles
LOG_NDTR_BELOW = -37.0
LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)


class InvalidParameterError(ValueError):
    """Natural parameter outside the family domain."""


@dataclass(frozen=True)
class FamilySpec:
    """One exponential family plus link, with a configured parameter interval.

    ``a`` is the known dispersion; ``k`` is the gamma shape or the negative
    binomial failure count, and 1 for the other families.  ``theta_lo``/
    ``theta_hi`` restrict the natural parameter; they are intersected with
    the family's natural domain, and ``clip_margin`` is the distance kept
    from an open domain boundary, CLIP_MARGIN for a family without one.
    """

    family: str
    a: float = 1.0
    k: float = None
    theta_lo: float = -np.inf
    theta_hi: float = np.inf
    clip_margin: float = CLIP_MARGIN

    def __post_init__(self):
        if self.family not in FAMILY_IDS:
            raise ValueError(f"unknown family {self.family!r}")
        if not self.a > 0:
            raise ValueError("dispersion a must be positive")
        if not self.clip_margin > 0:
            raise ValueError("clip_margin must be positive")
        if self.k is None:
            # gamma ties dispersion and shape as a = 1/k; negbin defaults to 1
            k = 1.0 / self.a if self.family == "gamma_log" else 1.0
            object.__setattr__(self, "k", float(k))
        if not self.k > 0:
            raise ValueError("k must be positive")
        if self.family not in _NEGATIVE_DOMAIN and self.k != 1.0:
            raise ValueError(f"{self.family} reads no k: it must be 1")
        if self.family not in _NEGATIVE_DOMAIN \
                and self.clip_margin != CLIP_MARGIN:
            raise ValueError(f"{self.family} has no open boundary: "
                             f"clip_margin must be {CLIP_MARGIN}")
        if self.family == "gamma_log" and abs(self.a * self.k - 1.0) > 1e-12:
            raise ValueError("gamma_log requires a = 1/k")
        if self.family in ("bernoulli_logit", "bernoulli_probit",
                           "poisson_log", "negbin_log") and self.a != 1.0:
            raise ValueError(f"{self.family} has fixed dispersion a = 1")
        if self.theta_min > self.theta_max:
            raise ValueError("configured theta interval is empty")

    @property
    def theta_min(self):
        """Lower end of the effective natural-parameter interval."""
        return self.theta_lo

    @property
    def theta_max(self):
        """Upper end, kept clip_margin away from an open boundary."""
        if self.family in _NEGATIVE_DOMAIN:
            return min(self.theta_hi, -self.clip_margin)
        return self.theta_hi

    @property
    def is_discrete(self):
        return self.family in ("bernoulli_logit", "bernoulli_probit",
                               "poisson_log", "negbin_log")


@dataclass(frozen=True)
class FamilyBounds:
    """Curvature/mean bounds of b over the configured interval.

    ``c_l``/``c_u`` are inf/sup of b'' and ``u_1`` is the sup of |b'|;
    unbounded values are reported as 0 or +inf.
    """

    c_l: float
    c_u: float
    u_1: float


def _check_domain(spec, theta):
    theta = np.asarray(theta, dtype=float)
    if spec.family in _NEGATIVE_DOMAIN and np.any(theta >= 0):
        raise InvalidParameterError(
            f"{spec.family} requires theta < 0, got max {np.max(theta)}")
    return theta


def b_value(spec, theta):
    """Log-partition b(theta)."""
    theta = _check_domain(spec, theta)
    f = spec.family
    if f == "gaussian":
        return theta ** 2 / 2.0
    if f in ("bernoulli_logit", "bernoulli_probit"):
        # log(1 + e^theta), several times faster than np.logaddexp
        return np.maximum(theta, 0.0) + np.log1p(np.exp(-np.abs(theta)))
    if f == "poisson_log":
        return np.exp(theta)
    if f == "gamma_log":
        return -np.log(-theta)
    # negbin_log: -k log(1 - e^theta)
    return -spec.k * np.log1p(-np.exp(theta))


def b_and_prime(spec, theta):
    """b(theta) and the mean b'(theta), the one place each law's mean is
    written.  Where b' is a function of b it comes from b: the bernoulli
    mean is 1 - e^{-b} = -expm1(-b), exactly 0 and 1 at theta = -inf and
    +inf, and the poisson mean is b itself."""
    theta = np.asarray(theta, dtype=float)
    b = b_value(spec, theta)
    f = spec.family
    if f == "gaussian":
        return b, theta + 0.0
    if f in ("bernoulli_logit", "bernoulli_probit"):
        return b, -np.expm1(-b)
    if f == "poisson_log":
        return b, b
    if f == "gamma_log":
        return b, -1.0 / theta
    e = np.exp(theta)
    return b, spec.k * e / (1.0 - e)


def b_prime(spec, theta):
    """Mean function b'(theta), the mean of ``b_and_prime``."""
    return b_and_prime(spec, theta)[1]


def b_second(spec, theta):
    """Variance function b''(theta), always nonnegative."""
    theta = _check_domain(spec, theta)
    f = spec.family
    if f == "gaussian":
        return np.ones_like(theta)
    if f in ("bernoulli_logit", "bernoulli_probit"):
        b, s = b_and_prime(spec, theta)
        return s * np.exp(-b)       # s (1 - s), which cancels near s = 1
    if f == "poisson_log":
        return np.exp(theta)
    if f == "gamma_log":
        return 1.0 / theta ** 2
    e = np.exp(theta)
    return spec.k * e / (1.0 - e) ** 2


def log_norm_cdf_and_ratio(z):
    """log Phi(z) and phi(z) / Phi(z) of the standard normal, from one erfc
    pass; z may be 0-d.

    With h = Phi(-|z|) = erfc(|z| / sqrt 2) / 2, Phi(z) is h + [z >= 0]
    (1 - 2h): its log is accurate to 1e-14 relative for z < 0, and off by
    at most about 1.1e-16 absolute for z >= 0.  The ratio takes one exp and
    one divide.  Cells below LOG_NDTR_BELOW, where Phi and phi underflow,
    take ``log_ndtr`` and the ratio exp(log phi(z) - log Phi(z)).
    """
    from scipy.special import erfc

    z = np.asarray(z, dtype=float)
    shape, z = z.shape, np.atleast_1d(z)   # in-place passes need arrays
    h = np.abs(z)
    h *= np.sqrt(0.5)
    erfc(h, out=h)
    h *= 0.5
    cdf = h * -2.0
    cdf += 1.0
    cdf *= z >= 0.0
    cdf += h
    with np.errstate(divide="ignore", invalid="ignore"):
        log_cdf = np.log(cdf)
        ratio = np.square(z)
        ratio *= -0.5
        ratio -= LOG_SQRT_2PI
        np.exp(ratio, out=ratio)
        ratio /= cdf
    far = z < LOG_NDTR_BELOW
    if far.any():
        from scipy.special import log_ndtr

        log_cdf[far] = log_ndtr(z[far])
        ratio[far] = np.exp(-0.5 * z[far] ** 2 - LOG_SQRT_2PI - log_cdf[far])
    return log_cdf.reshape(shape), ratio.reshape(shape)


def _raw_link(spec, eta):
    """Unclipped solution theta of (h o b')(theta) = eta and d theta / d eta."""
    eta = np.asarray(eta, dtype=float)
    f = spec.family
    if f in ("gaussian", "bernoulli_logit", "poisson_log"):
        return eta + 0.0, np.ones_like(eta)
    if f == "bernoulli_probit":
        # theta = log Phi(eta) - log Phi(-eta) (odd), dtheta = phi(eta) /
        # (Phi(eta) Phi(-eta)); one log Phi pass on the small tail gives
        # log Phi(-|eta|) and phi / Phi(-|eta|), and log1p(-Phi(-|eta|)) the
        # large side, accurate as Phi(-|eta|) <= 1/2
        small, ratio = log_norm_cdf_and_ratio(-np.abs(eta))
        big = np.log1p(-np.exp(small))
        return np.copysign(big - small, eta), ratio * np.exp(-big)
    if f == "gamma_log":
        d = np.exp(-eta)
        return -d, d
    # negbin_log: mean = exp(eta) = k e^t/(1-e^t)  =>  t = log(m/(1+m)), m = e^eta/k
    m = np.exp(eta) / spec.k
    return np.log(m) - np.log1p(m), 1.0 / (1.0 + m)


def _unclipped(spec):
    """Whether theta is free on the whole real line."""
    return spec.theta_min == -np.inf and spec.theta_max == np.inf


def has_sufficient_statistics(spec):
    """Whether the likelihood of ``spec`` reduces to X^T X and X^T Y: an
    unclipped gaussian family."""
    return spec.family == "gaussian" and _unclipped(spec)


def link_terms(spec, eta):
    """Natural parameter clipped into the interval, and d theta / d eta of
    that clipped map (zero on clipped cells), from one pass over eta."""
    raw, d = _raw_link(spec, eta)
    if _unclipped(spec):
        return raw, d
    lo, hi = spec.theta_min, spec.theta_max
    return np.clip(raw, lo, hi), np.where((raw < lo) | (raw > hi), 0.0, d)


def log_likelihood_terms(spec, Y, eta):
    """a times each cell's log-likelihood, y theta - b(theta) with c(y, a)
    dropped, and its eta-derivative (y - b'(theta)) d theta / d eta.

    Unclipped probit has log Phi(z), z = (2y - 1) eta, with derivative
    (2y - 1) phi(z) / Phi(z), from one ``log_norm_cdf_and_ratio`` pass; that
    form holds only for binary y.  Every other case takes the link pass.
    """
    if spec.family == "bernoulli_probit" and _unclipped(spec):
        sign = Y * 2.0
        sign -= 1.0
        log_cdf, ratio = log_norm_cdf_and_ratio(sign * eta)
        ratio *= sign
        return log_cdf, ratio
    theta, dtheta = link_terms(spec, eta)
    b, mean = b_and_prime(spec, theta)
    return Y * theta - b, (Y - mean) * dtheta


def theta_raw_from_eta(spec, eta):
    """Solve (h o b')(theta) = eta without clipping to the configured interval."""
    return _raw_link(spec, eta)[0]


def theta_from_eta(spec, eta):
    """Natural parameter for linear predictor eta, clipped into the interval."""
    return link_terms(spec, eta)[0]


def family_bounds(spec):
    """Inf/sup of b'' and sup of |b'| over the configured interval.

    b' is increasing and b'' is monotone for every family except the
    bernoulli bell, whose b'' peaks at 1/4 at theta = 0, so each extremum
    sits at an end of the interval, an infinite end taking the limit there.
    Unbounded infima come out as 0 and suprema as +inf.
    """
    ends = np.array([spec.theta_min, spec.theta_max])
    second = b_second(spec, ends)
    c_u = float(second.max())
    if spec.family in ("bernoulli_logit", "bernoulli_probit") \
            and ends[0] <= 0.0 <= ends[1]:
        c_u = 0.25
    return FamilyBounds(float(second.min()), c_u,
                        float(np.abs(b_prime(spec, ends)).max()))


def sample_response(spec, theta, rng):
    """Draw responses from the family at natural parameter theta."""
    theta = _check_domain(spec, theta)
    if np.any(theta < spec.theta_min - 1e-12) or np.any(theta > spec.theta_max + 1e-12):
        raise InvalidParameterError("theta outside the configured interval")
    f = spec.family
    if f == "gaussian":
        return rng.normal(theta, np.sqrt(spec.a))
    if f in ("bernoulli_logit", "bernoulli_probit"):
        mean = b_prime(spec, theta)
        return (rng.random(np.shape(theta)) < mean).astype(float)
    if f == "poisson_log":
        return rng.poisson(np.exp(theta)).astype(float)
    if f == "gamma_log":
        # shape k, rate -k*theta: mean -1/theta, variance a/theta^2 with a = 1/k
        return rng.gamma(spec.k, scale=-1.0 / (spec.k * theta))
    return rng.negative_binomial(spec.k, 1.0 - np.exp(theta)).astype(float)


def response_in_support(spec, y):
    """Boolean mask of entries lying in the family support."""
    y = np.asarray(y, dtype=float)
    f = spec.family
    if f == "gaussian":
        return np.isfinite(y)
    if f in ("bernoulli_logit", "bernoulli_probit"):
        return np.isin(y, (0.0, 1.0))
    if f == "gamma_log":
        return np.isfinite(y) & (y > 0)
    return np.isfinite(y) & (y >= 0) & (y == np.floor(y))


def linear_predictor(X, B):
    """eta = X @ B with shape checking; a stack B (R, p, q) gives (R, n, q)
    by one broadcast product per matrix."""
    X = np.asarray(X, dtype=float)
    B = np.asarray(B, dtype=float)
    if X.ndim != 2 or B.ndim < 2 or X.shape[1] != B.shape[-2]:
        raise ValueError(f"shape mismatch: X {X.shape} vs B {B.shape}")
    return X @ B


@dataclass
class Dataset:
    """Design matrix, response matrix and their family."""

    X: np.ndarray
    Y: np.ndarray
    family: FamilySpec

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.Y = np.asarray(self.Y, dtype=float)
        if self.X.ndim != 2 or self.Y.ndim != 2:
            raise ValueError("X and Y must be matrices")
        if self.X.shape[0] != self.Y.shape[0]:
            raise ValueError("X and Y must have the same number of rows")
        if not np.all(response_in_support(self.family, self.Y)):
            raise ValueError("Y has entries outside the family support")

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def p(self):
        return self.X.shape[1]

    @property
    def q(self):
        return self.Y.shape[1]

    def digest(self):
        """Content hash used to tie chains to the data they were run on."""
        import hashlib

        h = hashlib.sha256()
        h.update(self.family.family.encode())
        h.update(np.float64(self.family.a).tobytes())
        h.update(np.float64(self.family.k).tobytes())
        h.update(np.ascontiguousarray(self.X).tobytes())
        h.update(np.ascontiguousarray(self.Y).tobytes())
        return h.hexdigest()
