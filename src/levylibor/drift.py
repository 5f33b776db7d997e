"""Terminal-measure drift of the log forward rates.

Under the terminal measure the log of rate ``i`` carries the state-dependent
drift rate

    b(s, T_i; z) = -c(s)*lam_i^2/2 - c(s)*lam_i*sum_(l>i) u_l*lam_l - J,

    J = int ( (e^(lam_i x) - 1) * prod_(l>i) [u_l*(e^(lam_l x) - 1) + 1]
              - lam_i x ) F_s(dx),

where ``u_l = delta_l e^(z_l) / (1 + delta_l e^(z_l))`` links rate ``l`` to
the chain of forward measures.  Expanding the product turns ``J`` into a
weighted sum of compensated jump cumulants evaluated at subset sums of the
loadings:

    J = kappa(lam_i) + sum_(non-empty S)  (prod_(l in S) u_l)
            * sum_(R subset of S+{i}) (-1)^(|S|+1-|R|) kappa(Lam_R),

with ``Lam_R`` the sum of loadings over ``R``.  The inner sums do not depend
on the state, so they are precomputed once per loading pattern; evaluating
the drift then costs one subset-product transform and a dot product per
rate.  :class:`DriftEvaluator` is the only drift route of the engine.
:func:`drift_quadrature` integrates the same integrand directly against the
Levy density; it is far too slow for simulation and serves as the
independent oracle the evaluator is tested against.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad

from .driver import nig_jump_cumulant, nig_levy_density
from .market import MarketSetup


def link_weight(z, accrual: float):
    """Measure-link weight ``delta*L/(1 + delta*L)`` for ``L = e^z``.

    Computed as ``delta/(delta + e^(-z))`` so the limits come out exact:
    0 when ``z = -inf`` (the rate has collapsed) and 1 as ``z -> +inf``.
    """
    za = np.asarray(z, dtype=float)
    with np.errstate(over="ignore"):
        out = accrual / (accrual + np.exp(-za))
    return float(out) if za.ndim == 0 else out


# ---------------------------------------------------------------------------
# Cumulant expansion: the engine's drift
# ---------------------------------------------------------------------------

def _subset_coefficients(lam_i: float, lams_after: tuple[float, ...],
                         setup: MarketSetup) -> np.ndarray:
    """State-independent inner sums of the expansion, one per subset.

    ``lams_after`` lists the loadings of the rates later in the tenor in the
    order the subset-product transform absorbs them; bit ``r`` of a subset
    index addresses ``lams_after[r]``.  Entry 0 (the empty subset) carries
    the lone ``kappa(lam_i)`` term.
    """
    jumps = setup.triplet.jumps
    elems = (lam_i,) + tuple(lams_after)
    # Subset sums over (i, after...) by doubling; bit 0 is rate i itself.
    sums = np.zeros(1)
    for lam in elems:
        sums = np.concatenate([sums, sums + lam])
    if jumps is None:
        kappa = np.zeros_like(sums)
    else:
        kappa = nig_jump_cumulant(sums, jumps)
    m = len(lams_after)
    coeff = np.zeros(1 << m)
    for c in range(1 << m):
        t_mask = (c << 1) | 1
        size_t = bin(t_mask).count("1")
        acc = 0.0
        r = t_mask
        while True:
            acc += (-1.0) ** (size_t - bin(r).count("1")) * kappa[r]
            if r == 0:
                break
            r = (r - 1) & t_mask
        coeff[c] = acc
    return coeff


class DriftEvaluator:
    """Drift machinery for one setup on one time grid.

    Precomputes, per grid step, the loadings in force on the open interval
    and the expansion coefficient tables of every loading pattern they
    produce; evaluation then runs one pass over the rates from the back of
    the tenor, growing the subset products incrementally so every rate
    reuses the products built for the rates after it.
    """

    def __init__(self, setup: MarketSetup, grid) -> None:
        self.setup = setup
        times = np.asarray(getattr(grid, "times", grid), dtype=float)
        if times.size < 2 or np.any(np.diff(times) <= 0.0):
            raise ValueError("grid times must be strictly increasing")
        self.times = times
        self.dt = np.diff(times)
        mids = 0.5 * (times[:-1] + times[1:])
        self.mids = mids
        n = setup.n_rates
        self.n_rates = n
        vols = setup.vols
        self.step_vols = np.array([[vols.vol_at(t, i) for i in range(1, n + 1)]
                                   for t in mids])
        self.step_gauss = np.array([setup.triplet.gauss(t) for t in mids])
        self.accruals = np.array([setup.tenor.accrual(i)
                                  for i in range(1, n + 1)])
        # Coefficient tables keyed by loading pattern: the rate's own
        # loading followed by the live loadings after it, last rate first.
        # Every step's tables are built here, so step_drift only looks
        # them up.
        self._tables: dict[tuple[float, ...], np.ndarray] = {}
        for lam in self.step_vols:
            self._columns(lam)

    @property
    def n_steps(self) -> int:
        return len(self.dt)

    def _columns(self, lam: np.ndarray) -> list[tuple[int, np.ndarray]]:
        """Live rate columns under loadings ``lam``, last rate first, each
        with its coefficient table (built on first use)."""
        out = []
        after: tuple[float, ...] = ()
        for col in np.flatnonzero(lam)[::-1]:
            key = (lam[col],) + after
            table = self._tables.get(key)
            if table is None:
                table = _subset_coefficients(lam[col], after, self.setup)
                self._tables[key] = table
            out.append((col, table))
            after = after + (lam[col],)
        return out

    def _jump_pass(self, lam: np.ndarray, z: np.ndarray):
        """Back-to-front pass under loadings ``lam`` for states ``z``.

        Yields ``(col, J, weight)`` per live rate, last rate first: the jump
        term of that rate and its link weight, one entry per path.
        """
        subset_products = np.ones((z.shape[0], 1))
        for col, table in self._columns(lam):
            weight = link_weight(z[:, col], self.accruals[col])
            yield col, subset_products @ table, weight
            subset_products = np.concatenate(
                [subset_products, weight[:, None] * subset_products], axis=1)

    def jump_terms(self, s: float, z: np.ndarray) -> np.ndarray:
        """Jump terms J(s, T_i; z) for a batch of states, shape (paths, rates).

        Uses the loadings ``vol_at(s, .)`` in force at time ``s``; rates
        past their fixing get zero.
        """
        lam = np.array([self.setup.vols.vol_at(s, i)
                        for i in range(1, self.n_rates + 1)])
        out = np.zeros((z.shape[0], self.n_rates))
        for col, j_term, _ in self._jump_pass(lam, z):
            out[:, col] = j_term
        return out

    def step_drift(self, k: int, z: np.ndarray) -> np.ndarray:
        """Drift rates b(step k, rate; z) for a batch of states.

        ``z`` has shape (paths, rates); dead rates get drift zero.  The jump
        term comes from the pass at the step's midpoint loadings, the
        Gaussian terms are closed form.  The state is read as-is (the caller
        decides whether it holds exact log rates, frozen initial values or
        stage-one proxies).
        """
        lam = self.step_vols[k]
        c = self.step_gauss[k]
        out = np.zeros((z.shape[0], self.n_rates))
        gauss_sum = 0.0
        for col, j_term, weight in self._jump_pass(lam, z):
            if c > 0.0:
                out[:, col] = (-0.5 * lam[col] * lam[col] * c
                               - c * lam[col] * gauss_sum - j_term)
                gauss_sum = gauss_sum + lam[col] * weight
            else:
                out[:, col] = -j_term
        return out

    def frozen_table(self, state0: np.ndarray | None = None) -> np.ndarray:
        """Deterministic drift table b(t_k, T_i; X(0)), shape (steps, rates)."""
        z0 = (self.setup.log_initial_rates if state0 is None
              else np.asarray(state0, dtype=float))
        rows = [self.step_drift(k, z0[None, :])[0] for k in range(self.n_steps)]
        return np.array(rows)


# ---------------------------------------------------------------------------
# Quadrature: the test oracle
# ---------------------------------------------------------------------------

def drift_quadrature(s: float, i: int, log_rates,
                     setup: MarketSetup) -> float:
    """Jump-integral term ``J`` of rate ``i`` at time ``s`` by adaptive
    quadrature against the Levy density, for log rates ``log_rates``; the
    independent oracle :meth:`DriftEvaluator.jump_terms` is checked against.

    The integrand is kept in compensated form,

        g(x) = [expm1(lam_i x) - lam_i x]
               + expm1(lam_i x) * [prod_l (1 + u_l expm1(lam_l x)) - 1],

    which vanishes to second order at the origin where the density blows up
    like ``x^-2``; below ``|x| = 1e-6`` the finite product ``g * density`` is
    replaced by its analytic limit.
    """
    lam_i, weights, lams = _drift_inputs(s, i, log_rates, setup)
    if lam_i == 0.0:
        return 0.0
    jumps = setup.triplet.jumps
    if jumps is None:
        return 0.0
    weights = np.asarray(weights)
    lams = np.asarray(lams)

    limit_value = (jumps.delta / np.pi) * lam_i * (
        0.5 * lam_i + float(np.sum(weights * lams)))

    # Beyond this point the exponentials overflow while the density's decay
    # (guaranteed by the moment-domain check) has already pushed the true
    # integrand far below the quadrature tolerance; cut it to zero there.
    lam_total = abs(lam_i) + float(np.sum(np.abs(lams)))
    x_cap = 600.0 / max(lam_total, 1e-300)

    def integrand(x: float) -> float:
        if abs(x) > x_cap:
            return 0.0
        base = np.expm1(lam_i * x)
        correction = 1.0
        for w, lam in zip(weights, lams):
            correction *= 1.0 + w * np.expm1(lam * x)
        g = (base - lam_i * x) + base * (correction - 1.0)
        return g * nig_levy_density(x, jumps)

    cut = 1e-6
    total = 2.0 * cut * limit_value
    for a, b in ((cut, 1.0), (1.0, 10.0), (10.0, 100.0), (100.0, np.inf)):
        for sign in (1.0, -1.0):
            lo, hi = sign * a, sign * b
            if lo > hi:
                lo, hi = hi, lo
            val, _ = quad(integrand, lo, hi, epsabs=1e-13, epsrel=1e-11,
                          limit=300)
            total += val
    return total


def _drift_inputs(s: float, i: int, log_rates, setup: MarketSetup):
    """Loading of rate ``i`` plus weights and loadings of the live rates
    after it, at time ``s``."""
    n = setup.n_rates
    if not 1 <= i <= n:
        raise IndexError(f"rate index {i} outside 1..{n}")
    values = np.asarray(log_rates, dtype=float)
    if values.shape != (n,):
        raise ValueError(f"state must hold {n} log rates, got {values.shape}")
    lam_i = setup.vols.vol_at(s, i)
    weights = []
    lams = []
    for l in range(i + 1, n + 1):
        lam_l = setup.vols.vol_at(s, l)
        if lam_l != 0.0:
            weights.append(link_weight(values[l - 1], setup.tenor.accrual(l)))
            lams.append(lam_l)
    return lam_i, tuple(weights), tuple(lams)
