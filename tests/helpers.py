"""Small market-structure builders shared by the tests."""

from levylibor import TenorStructure, VolatilityStructure


def regular_tenor(n_rates, spacing=0.5, start=0.0):
    """Evenly spaced tenor structure with ``n_rates`` forward rates."""
    return TenorStructure(tuple(start + spacing * k
                                for k in range(n_rates + 2)))


def flat_per_rate(tenor, levels):
    """Loadings constant in time, one number per rate."""
    return VolatilityStructure(tenor, tuple(tuple([float(v)] * i)
                                            for i, v in enumerate(levels, 1)))
