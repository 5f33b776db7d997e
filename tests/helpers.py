"""Small market-structure builders shared by the tests."""

import math

from levylibor import (TenorStructure, VolatilityStructure, bundled_setup,
                       setup_from_dict, setup_to_dict)


def nig_variance_rate(p):
    """Variance of the NIG law per unit time: delta*alpha^2/gamma^3."""
    return p.delta * p.alpha**2 / p.gamma**3


def regular_tenor(n_rates, spacing=0.5, start=0.0):
    """Evenly spaced tenor structure with ``n_rates`` forward rates."""
    return TenorStructure(tuple(start + spacing * k
                                for k in range(n_rates + 2)))


def flat_per_rate(tenor, levels):
    """Loadings constant in time, one number per rate."""
    return VolatilityStructure(tenor, tuple(tuple([float(v)] * i)
                                            for i, v in enumerate(levels, 1)))


def regular_setup(loadings, name="regular"):
    """Semiannual setup with a flat 4% curve and the given per-rate
    loadings, on the bundled NIG driver."""
    n = len(loadings)
    raw = setup_to_dict(bundled_setup())
    dates = [0.5 * k for k in range(n + 2)]
    raw.update(name=name, tenor_dates=dates,
               bond_prices=[math.exp(-0.04 * t) for t in dates[1:]],
               vols=list(loadings))
    return setup_from_dict(raw)


REGULAR_LOADINGS = [
    [0.20, 0.19, 0.18, 0.17, 0.16, 0.15, 0.14, 0.13, 0.12],
    # negative loadings sit below the lattice origin
    [0.1, -0.05, 0.15, 0.02, -0.12, 0.07, 0.2, -0.03, 0.11, 0.09],
    [0.125, 0.13, 0.005, 0.25],
]

# 20 years semiannual, loadings falling from 0.05 to 0.02 on the 0.01
# lattice: far past what a 2^m subset expansion could hold
FORTY_LOADINGS = [round(5 - 3 * k / 39) / 100 for k in range(40)]
