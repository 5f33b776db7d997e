"""Monte Carlo engine for LIBOR market models driven by NIG Levy processes.

Forward rates evolve under the terminal measure; three discretizations of
the log-rate equation (full state-dependent drift, deterministic frozen
drift, and a two-stage corrected scheme) run on one batch engine with one
drift evaluator and share driver increments path by path, so their prices
and implied volatilities can be compared at common random numbers.
"""

from .driver import (
    CumulantDomainError,
    ExponentialMomentBound,
    NigParams,
    block_rng,
    nig_cumulant,
    nig_density,
    nig_jump_cumulant,
    nig_levy_density,
    nig_mean_rate,
    sample_inverse_gaussian,
    sample_nig_increment,
)
from .market import (
    BUNDLED_SETUP,
    DiscountCurve,
    MarketSetup,
    SetupValidationReport,
    TenorStructure,
    VolatilityStructure,
    bundled_setup,
    load_setup,
    loading_lattice,
    setup_from_dict,
    setup_to_dict,
    validate_setup,
)
from .drift import (
    DriftEvaluator,
    drift_quadrature,
    link_weight,
)
from .simulate import (
    Scheme,
    SimulationEngine,
    SimulationGrid,
    build_grid,
)
from .pricing import (
    CapletSpec,
    ComparisonCell,
    ComparisonTable,
    ImpliedVolError,
    McEstimate,
    SwaptionSpec,
    black76_implied_vol,
    black76_implied_vols,
    black76_price,
    caplet_price_last_rate,
    chain_products,
    compare_schemes,
    forward_swap_rate,
    price_instruments_mc,
    write_iv_surface,
    zero_strike_caplet_value,
)

__version__ = "0.1.0"
