"""Terminal-measure drift of the log forward rates.

Under the terminal measure the log of rate ``i`` carries the state-dependent
drift rate ``b(s, T_i; z) = -J``, the driver being pure jump, with

    J = int ( (e^(lam_i x) - 1) * prod_(l>i) [u_l*(e^(lam_l x) - 1) + 1]
              - lam_i x ) F(dx),

where ``u_l = delta_l e^(z_l) / (1 + delta_l e^(z_l))`` links rate ``l`` to
the chain of forward measures.  The product is the moment generating
function ``E[e^(Lam x)]`` of ``Lam = sum_(l>i) B_l lam_l`` with independent
``B_l ~ Bernoulli(u_l)``, so

    J = E[ kappa(lam_i + Lam) - kappa(Lam) ],

with ``kappa`` the compensated jump cumulant.  The loadings are whole
multiples of a lattice step ``h`` (:func:`~levylibor.market.loading_lattice`),
so ``Lam`` lives on that lattice, and only on the points that sums of subsets
of the later loadings reach: a few bands of it.  :class:`DriftEvaluator`
builds its law per path on those points in one pass from the back of the
tenor, absorbing one rate per iteration, and reduces it against the
state-free vector ``kappa(lam_i + x h) - kappa(x h)``: O(paths * rates *
reachable lattice points) per step.  It is the only drift route of the engine.
:func:`drift_quadrature` integrates the same integrand directly against the
Levy density, batching many (time, rate, state) cases into one vector
quadrature per piece of the line; it is far too slow for simulation and
serves as the independent oracle the evaluator is tested against.
"""

from __future__ import annotations

import numpy as np

from .driver import nig_jump_cumulant, nig_levy_density
from .market import LOADING_QUANTA, MarketSetup, loading_lattice


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
# Lattice DP: the engine's drift
# ---------------------------------------------------------------------------

# A law on lattice points is stored as one row per point, the points sorted.


def _absorb(points: tuple[int, ...], a: int) -> tuple[tuple[int, ...], tuple]:
    """Sorted points of ``S | (S + a)`` for ``S = points``, with the
    segments that fill their rows from the rows of ``S``.

    Each segment ``(dst, n, keep, shift)`` covers ``n`` rows from row
    ``dst`` of the new law; ``keep`` is the first of the ``n`` rows of the
    same points in the old law and ``shift`` that of the points ``a``
    lower, ``None`` where those points are not in ``S``.  Segments are
    maximal runs of points of one membership: in ``S`` only, in ``S + a``
    only, or in both.  Every point of ``S`` and of ``S + a`` is a row of
    the new law, so along such a run both sources step by one row.
    """
    row = {x: j for j, x in enumerate(points)}
    merged = sorted(row.keys() | {x + a for x in points})
    segments: list[list] = []
    last = None
    for dst, x in enumerate(merged):
        keep, shift = row.get(x), row.get(x - a)
        kind = (keep is None, shift is None)
        if kind == last:
            segments[-1][1] += 1
        else:
            segments.append([dst, 1, keep, shift])
            last = kind
    return tuple(merged), tuple(map(tuple, segments))


class DriftEvaluator:
    """Drift machinery for one setup on one time grid.

    Precomputes, per grid step, the loadings in force on the open interval;
    evaluation runs one pass over the rates from the back of the tenor,
    carrying each path's law of the summed later loadings on the lattice
    points those sums can reach.  One memo holds, per pattern of live
    loadings, each rate's reachable points, its state-free kernel on them
    and the segments that absorb it.

    Raises
    ------
    ValueError
        If the setup's loadings are off the loading lattice or need too
        wide a lattice (:func:`~levylibor.market.loading_lattice`).
    """

    def __init__(self, setup: MarketSetup, grid) -> None:
        self.setup = setup
        times = grid.times
        if times.size < 2 or np.any(np.diff(times) <= 0.0):
            raise ValueError("grid times must be strictly increasing")
        self.dt = np.diff(times)
        mids = 0.5 * (times[:-1] + times[1:])
        self.mids = mids
        self.n_rates = setup.n_rates
        vols = setup.vols
        self.step_vols = np.array([vols.loadings(t) for t in mids])
        self.accruals = setup.tenor.accruals[1:]
        # Lattice step in quanta.
        self._quanta = loading_lattice(vols)[0]
        self._plans: dict[tuple[float, ...], tuple] = {}

    def _plan(self, lams: tuple[float, ...]) -> tuple:
        """Absorption plan of the live rates with loadings ``lams``, last
        first: per rate, the lattice points its law is reduced on, the
        kernel ``kappa(lam_i + x h) - kappa(x h)`` on those points ``x`` and
        the segments that absorb it (:func:`_absorb`)."""
        plan = self._plans.get(lams)
        if plan is None:
            if len(lams) == 1:
                head, points = (), (0,)
            else:
                # A pattern is the one without its front rate plus one
                # absorption, so patterns that lose rates share their steps.
                *rest, (support, g, _) = self._plan(lams[:-1])
                a = round(lams[-2] * LOADING_QUANTA) // self._quanta
                points, segments = _absorb(support, a)
                head = (*rest, (support, g, segments))
            x = np.array(points) * self._quanta / LOADING_QUANTA
            nig = self.setup.nig
            g = nig_jump_cumulant(lams[-1] + x, nig) - nig_jump_cumulant(x, nig)
            # The memo is race-safe for library callers: concurrent builds
            # of one plan are bitwise equal and setdefault keeps the first.
            plan = self._plans.setdefault(lams, (*head, (points, g, ())))
        return plan

    def _jump_pass(self, lam: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Jump terms under loadings ``lam`` for states ``z``, shape
        (paths, rates); dead rates get zero.

        Walks the live rates last first.  Row ``j`` of ``p`` holds, per
        path, the sum over subsets S of the rates already passed with
        loadings summing to the ``j``-th reachable lattice point of the
        product of their odds ``u_l/(1 - u_l) = delta_l e^(z_l)``; ``norm``
        is the product of ``1 + odds``, so ``P(Lam = x h) = p[j]/norm``
        for the ``j``-th point ``x``.
        Absorbing a rate of ``a`` lattice steps moves the law from support
        S to ``S | (S + a)`` with ``p[x] + p[x - a]*odds``, dropping a term
        whose point is not in S.  The points never reached would hold zeros
        that only ever add zero, so J is bitwise what a pass over the whole
        lattice range gives.
        """
        paths = z.shape[0]
        if paths == 1:
            # numpy reduces a lone contiguous column pairwise but wider
            # blocks row by row; a copy of the path keeps its J bitwise
            # what it is in any larger batch.
            return self._jump_pass(lam, np.repeat(z, 2, axis=0))[:1]
        out = np.zeros((paths, self.n_rates))
        live = np.flatnonzero(lam)[::-1]
        if live.size == 0:
            return out
        p = np.ones((1, paths))
        norm = np.ones(paths)
        with np.errstate(over="ignore", invalid="ignore"):
            odds = np.exp(z[:, live].T) * self.accruals[live, None]
            for r, (col, (_, g, segments)) in enumerate(
                    zip(live, self._plan(tuple(lam[live].tolist())))):
                out[:, col] = np.einsum("jp,j->p", p, g) / norm
                if not segments:
                    break
                q = np.empty((segments[-1][0] + segments[-1][1], paths))
                for dst, n, keep, shift in segments:
                    t = q[dst:dst + n]
                    if shift is None:
                        t[...] = p[keep:keep + n]
                        continue
                    np.multiply(p[shift:shift + n], odds[r], out=t)
                    if keep is not None:
                        np.add(p[keep:keep + n], t, out=t)
                p = q
                norm *= 1.0 + odds[r]
        return out

    def jump_terms(self, s: float, z: np.ndarray) -> np.ndarray:
        """Jump terms J(s, T_i; z) for a batch of states, shape (paths, rates).

        Uses the loadings ``vols.loadings(s)`` in force at time ``s``; rates
        past their fixing get zero.
        """
        return self._jump_pass(self.setup.vols.loadings(s), z)

    def step_drift(self, k: int, z: np.ndarray) -> np.ndarray:
        """Drift rates b(step k, rate; z) = -J for a batch of states.

        ``z`` has shape (paths, rates); dead rates get drift +0.0.  The jump
        term comes from the pass at the step's midpoint loadings.  The state
        is read as-is (the caller decides whether it holds exact log rates,
        frozen initial values or stage-one proxies).
        """
        # 0.0 - J, not -J: a dead rate's zero jump term stays +0.0.
        return 0.0 - self._jump_pass(self.step_vols[k], z)

    def frozen_table(self) -> np.ndarray:
        """Deterministic drift table b(t_k, T_i; X(0)), shape (steps, rates).

        A step's row depends on the step only through its loadings, so it is
        computed once per distinct loading vector.
        """
        z0 = self.setup.log_initial_rates[None, :]
        keys = [lam.tobytes() for lam in self.step_vols]
        rows: dict[bytes, np.ndarray] = {}
        for k, key in enumerate(keys):
            if key not in rows:
                rows[key] = self.step_drift(k, z0)[0]
        return np.array([rows[key] for key in keys])


# ---------------------------------------------------------------------------
# Quadrature: the test oracle
# ---------------------------------------------------------------------------

def drift_quadrature(s, i, log_rates, setup: MarketSetup):
    """Jump-integral terms ``J`` of rates ``i`` at times ``s`` by adaptive
    quadrature against the Levy density, for log rates ``log_rates``; the
    independent oracle :meth:`DriftEvaluator.jump_terms` is checked against.

    ``s`` and ``i`` are scalars or arrays of shape (m,) and ``log_rates``
    has shape (N,) or (m, N); the terms come back with shape (m,), or as a
    ``float`` for scalar arguments.  Rates past their fixing get 0.0.

    The integrand is kept in compensated form,

        g(x) = [expm1(lam_i x) - lam_i x]
               + expm1(lam_i x) * [prod_l (1 + u_l expm1(lam_l x)) - 1],

    which vanishes to second order at the origin where the density blows up
    like ``x^-2``; below ``|x| = 1e-6`` the finite product ``g * density`` is
    replaced by its analytic limit.  The cases are batched: each piece of
    the line is one vector quadrature over all of them, on shared
    subintervals, so ``epsrel`` applies to the largest ``|J|`` of the batch.

    Raises
    ------
    IndexError
        If any rate index is outside 1..N.
    ValueError
        If any state does not hold N log rates.
    """
    s_arr, i_arr = np.asarray(s, dtype=float), np.asarray(i)
    states = np.asarray(log_rates, dtype=float)
    shape = np.broadcast_shapes(s_arr.shape, i_arr.shape, states.shape[:-1])
    cases = zip(np.broadcast_to(s_arr, shape).ravel().tolist(),
                np.broadcast_to(i_arr, shape).ravel().tolist(),
                np.broadcast_to(states, shape + states.shape[-1:]).reshape(
                    -1, *states.shape[-1:]))
    inputs = [_drift_inputs(sk, ik, zk, setup) for sk, ik, zk in cases]
    out = np.zeros(len(inputs))
    live = [k for k, (lam_i, _, _) in enumerate(inputs) if lam_i != 0.0]
    if live:
        out[live] = _jump_integrals([inputs[k] for k in live], setup.nig)
    return float(out[0]) if shape == () else out.reshape(shape)


def _jump_integrals(inputs, p) -> np.ndarray:
    """Compensated jump integrals of the nonzero-loading cases ``inputs``
    (:func:`_drift_inputs`), one vector quadrature per piece of the line.

    ``scipy.integrate`` is imported here, not with the module, so that only
    a run that asks for this oracle loads it."""
    from scipy.integrate import quad_vec

    width = max(len(lams) for _, _, lams in inputs)
    # Padding weights and loadings with zeros makes the padded factors
    # 1 + 0 * expm1(0) = 1.
    lam_i = np.array([lam for lam, _, _ in inputs])
    weights = np.zeros((len(inputs), width))
    lams = np.zeros((len(inputs), width))
    for k, (_, w, lam) in enumerate(inputs):
        weights[k, :len(w)] = w
        lams[k, :len(lam)] = lam

    limit_value = (p.delta / np.pi) * lam_i * (
        0.5 * lam_i + np.sum(weights * lams, axis=1))

    # Beyond this point the exponentials overflow while the density's decay
    # (guaranteed by the moment-domain check) has already pushed the true
    # integrand far below the quadrature tolerance; cut it to zero there.
    lam_total = np.abs(lam_i) + np.sum(np.abs(lams), axis=1)
    x_cap = 600.0 / np.maximum(lam_total, 1e-300)

    def integrand(x: float) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            base = np.expm1(lam_i * x)
            correction = np.prod(1.0 + weights * np.expm1(lams * x), axis=1)
            g = (base - lam_i * x) + base * (correction - 1.0)
            return np.where(abs(x) > x_cap, 0.0,
                            g * nig_levy_density(x, p))

    cut = 1e-6
    total = 2.0 * cut * limit_value
    for a, b in ((cut, 1.0), (1.0, 10.0), (10.0, 100.0), (100.0, np.inf)):
        for sign in (1.0, -1.0):
            lo, hi = sign * a, sign * b
            if lo > hi:
                lo, hi = hi, lo
            val, _ = quad_vec(integrand, lo, hi, epsabs=1e-13, epsrel=1e-11,
                              norm="max", limit=300)
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
    loadings = setup.vols.loadings(s).tolist()
    weights = []
    lams = []
    for l in range(i + 1, n + 1):
        lam_l = loadings[l - 1]
        if lam_l != 0.0:
            weights.append(link_weight(values[l - 1], setup.tenor.accrual(l)))
            lams.append(lam_l)
    return loadings[i - 1], tuple(weights), tuple(lams)
