"""The Levy driver of the forward-rate engine.

The driving process H is a pure-jump normal inverse Gaussian (NIG) Levy
process with law :class:`NigParams` per unit of time.  Everything the rest
of the engine needs from H lives here: cumulant functions, exact increment
sampling, per-block random streams and the exponential-moment bound that
``levylibor.market.validate_setup`` checks to keep the forward-rate
construction well defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import k1e


# Seeds and block indices are the two 64-bit words of a Philox key.
SEED_LIMIT = 1 << 64


class CumulantDomainError(ValueError):
    """Cumulant argument outside the finite exponential-moment domain."""


# ---------------------------------------------------------------------------
# NIG law
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NigParams:
    """Normal inverse Gaussian law per unit of time.

    The driver accumulates NIG increments: over a step of length ``dt`` its
    increment is distributed NIG(alpha, beta, delta * dt, mu * dt).

    Parameters
    ----------
    alpha : float
        Tail decay rate, ``alpha > 0``.
    beta : float
        Skewness, ``|beta| < alpha``.
    delta : float
        Scale per unit time, ``delta > 0``.
    mu : float
        Location per unit time.
    """

    alpha: float
    beta: float = 0.0
    delta: float = 1.0
    mu: float = 0.0

    def __post_init__(self) -> None:
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not self.delta > 0.0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if not abs(self.beta) < self.alpha:
            raise ValueError(
                f"need |beta| < alpha, got beta={self.beta}, alpha={self.alpha}"
            )

    @property
    def gamma(self) -> float:
        """sqrt(alpha^2 - beta^2), the inverse Gaussian rate parameter."""
        return math.sqrt((self.alpha - self.beta) * (self.alpha + self.beta))


def _nig_core(u, p: NigParams, what: str) -> tuple[np.ndarray, np.ndarray]:
    """``u`` as an array and ``delta*(gamma - sqrt(alpha^2 - (beta + u)^2))``;
    off the domain, a :class:`CumulantDomainError` that names ``what``."""
    ua = np.asarray(u, dtype=float)
    shifted = p.beta + ua
    if np.any(np.abs(shifted) > p.alpha):
        worst = float(np.max(np.abs(shifted)))
        raise CumulantDomainError(
            f"{what}: |beta + u| = {worst:.17g} exceeds alpha = {p.alpha:.17g}; "
            f"finite exponential moments require |beta + u| <= alpha"
        )
    radicand = np.maximum((p.alpha - shifted) * (p.alpha + shifted), 0.0)
    return ua, p.delta * (p.gamma - np.sqrt(radicand))


def nig_cumulant(u, p: NigParams):
    """Cumulant (log moment generating) function of the NIG law per unit time.

    kappa(u) = mu*u + delta*(gamma - sqrt(alpha^2 - (beta + u)^2)), finite for
    |beta + u| <= alpha including the boundary.  Accepts scalars or arrays.

    Raises
    ------
    CumulantDomainError
        If any argument leaves the closed domain.
    """
    ua, core = _nig_core(u, p, "nig_cumulant")
    out = p.mu * ua + core
    return float(out) if ua.ndim == 0 else out


def nig_jump_cumulant(u, p: NigParams):
    """Compensated jump integral int (e^(u x) - 1 - u x) F(dx) per unit time.

    Equals the distribution cumulant stripped of its linear part:
    delta*(gamma - sqrt(alpha^2 - (beta + u)^2)) - (delta*beta/gamma)*u.
    For the symmetric martingale case (beta = mu = 0) this coincides with
    :func:`nig_cumulant`.  Does not depend on ``mu``.
    """
    ua, core = _nig_core(u, p, "nig_jump_cumulant")
    out = core - (p.delta * p.beta / p.gamma) * ua
    return float(out) if ua.ndim == 0 else out


def nig_levy_density(x, p: NigParams):
    """Levy density of the NIG law: delta*alpha/pi * e^(beta x) K_1(alpha|x|)/|x|.

    Uses the exponentially scaled Bessel function so the value stays finite
    for large ``|x|``; the non-integrable ``1/x^2`` blowup at the origin is the
    law's own (callers integrate compensated functions vanishing to second
    order at zero).
    """
    xa = np.asarray(x, dtype=float)
    ax = np.abs(xa)
    with np.errstate(divide="ignore"):
        out = (p.delta * p.alpha / np.pi) * k1e(p.alpha * ax) * np.exp(
            p.beta * xa - p.alpha * ax
        ) / ax
    return float(out) if xa.ndim == 0 else out


def nig_density(x, t: float, p: NigParams):
    """Density of H(t) ~ NIG(alpha, beta, delta*t, mu*t) at ``x``.

    With ``s = delta*t`` and ``q = sqrt(s^2 + (x - mu*t)^2)`` it is
    ``alpha*s/pi * K_1(alpha q)/q * e^(s gamma + beta (x - mu t))``, computed
    through the exponentially scaled Bessel function so that the exponents
    combine before they are taken and the tails underflow gracefully.
    """
    xa = np.asarray(x, dtype=float)
    spread = p.delta * t
    y = xa - p.mu * t
    q = np.hypot(spread, y)
    out = (p.alpha * spread / np.pi) * k1e(p.alpha * q) / q * np.exp(
        spread * p.gamma + p.beta * y - p.alpha * q)
    return float(out) if xa.ndim == 0 else out


def nig_mean_rate(p: NigParams) -> float:
    """Mean of the law per unit time: mu + delta*beta/gamma."""
    return p.mu + p.delta * p.beta / p.gamma


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def sample_inverse_gaussian(mean, shape, rng: np.random.Generator, size=None):
    """Draw inverse Gaussian variates IG(mean, shape).

    Delegates to the generator's Wald sampler, which implements the
    Michael-Schucany-Haas transformation: one chi-square candidate root and
    one uniform choosing between the two roots, no rejection loop.
    """
    mean_a = np.asarray(mean, dtype=float)
    shape_a = np.asarray(shape, dtype=float)
    if np.any(mean_a <= 0.0) or np.any(shape_a <= 0.0):
        raise ValueError("inverse Gaussian mean and shape must be positive")
    return rng.wald(mean_a, shape_a, size=size)


def sample_nig_increment(dt, p: NigParams, rng: np.random.Generator, size=None):
    """Sample an increment of the NIG jump part over time ``dt``.

    The variate is distributed NIG(alpha, beta, delta*dt, mu*dt), drawn by
    inverse Gaussian subordination: Z ~ IG(delta*dt/gamma, (delta*dt)^2)
    is the variance of a conditional Gaussian, X = mu*dt + beta*Z + sqrt(Z)*N.

    ``dt`` may be an array (one increment per entry); ``size`` requests that
    many draws for scalar ``dt``.
    """
    dt_a = np.asarray(dt, dtype=float)
    if np.any(dt_a <= 0.0):
        raise ValueError("dt must be positive")
    scaled = p.delta * dt_a
    z = sample_inverse_gaussian(scaled / p.gamma, scaled * scaled, rng, size=size)
    n = rng.standard_normal(np.shape(z))
    out = p.mu * dt_a + p.beta * z + np.sqrt(z) * n
    return float(out) if np.ndim(out) == 0 else out


def block_rng(seed: int, block: int) -> np.random.Generator:
    """Random stream for one block of consecutive simulated paths.

    Streams are keyed by ``(seed, block)`` through the Philox counter
    generator (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
    SC'11).  The engine gives block ``b`` to paths ``b * RNG_BLOCK`` to
    ``(b + 1) * RNG_BLOCK - 1`` and always draws the whole block, so the draws
    of a path do not depend on how many paths are simulated, in what order,
    or in what batches.

    Raises
    ------
    ValueError
        If ``seed`` or ``block`` lies outside ``[0, 2^64)``.
    """
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed {seed} outside [0, 2^64)")
    if not 0 <= block < SEED_LIMIT:
        raise ValueError(f"block {block} outside [0, 2^64)")
    key = np.array([seed, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# Exponential-moment bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentialMomentBound:
    """Uniform bound on volatility loadings used by the drift integrals.

    ``bound`` is the ceiling for the summed loadings; ``slack`` is a relative
    safety margin: the law must keep finite exponential moments up to
    ``(1 + slack) * bound``.
    """

    bound: float
    slack: float = 0.0

    def __post_init__(self) -> None:
        if not self.bound > 0.0:
            raise ValueError("bound must be positive")
        if self.slack < 0.0:
            raise ValueError("slack must be nonnegative")
