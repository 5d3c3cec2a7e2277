"""netreg: monopoly pricing and welfare under price regulation with
network demand spillovers.

Layers, bottom up: ``network`` (graphs, spectra, the Leontief-type
operator), ``market`` (demand, profit, surplus, welfare ratios),
``pareto`` (the surplus-profit frontier), ``regulation`` (convex feasible
sets, projection pricing, efficiency certificates, limit classification),
``discrimination`` (uniform-pricing welfare analysis), and
``scenario``/``sweeps``/``cli`` (batch experiments and CSV emission).
"""

from .errors import (
    AssumptionViolatedError,
    BadPartitionError,
    DimensionMismatchError,
    DisconnectedError,
    EtaOutOfRangeError,
    InfeasibleError,
    InvariantError,
    InvalidSizeError,
    NegativeWeightError,
    NetregError,
    NoConvergenceError,
    NonzeroDiagonalError,
    NotRegularError,
    NotSymmetricError,
    NumericalError,
    OutOfRangeError,
    ScenarioParseError,
    SingularSystemError,
    SpectralBoundError,
    SweepError,
    UnknownExperimentError,
    UnsupportedRegulationError,
    UnverifiedPartitionError,
    ValidationError,
    ZeroVectorError,
)
from .network import (
    Network,
    SpectralData,
    build_network,
    corr,
    demean,
    eigencentrality,
    gen_complete,
    gen_complete_bipartite,
    gen_core_periphery,
    h_apply,
    is_regular,
    katz_bonacich,
)
from .market import (
    MarketPrimitives,
    WelfareOutcome,
    a_statistic,
    consumer_surplus,
    consumer_surplus_av,
    delta_near_bound,
    demand,
    limit_ratios,
    profit,
    ratios,
    unrestricted_price,
    welfare_outcome,
)
from .pareto import (
    ParetoPoint,
    av_pareto_price,
    av_rv_bounds,
    eta_hat_plus,
    frontier,
    frontier_limit,
    pareto_price,
    pareto_price_minus,
    ramsey_price,
    rv_bounds,
    solve_eta_for_tau,
)
from .regulation import (
    AStatInterval,
    AveragePrice,
    Box,
    Certificate,
    Classification,
    Halfspaces,
    LimitClassification,
    PriceDifference,
    RegulationSet,
    Uniform,
    Unrestricted,
    a_interval,
    classify_limit,
    equilibrium_outcome,
    gap,
    iota,
    pareto_certificate,
    project,
    uniform_price,
)
from .discrimination import (
    PsiStatistic,
    TwoTypePartition,
    WelfareDirection,
    a_stat_uniform,
    psi,
    psi_finite_delta,
    regular_graph_rv_shift,
    small_delta_gain,
    two_type_welfare_direction,
    verify_two_type,
    welfare_direction_large_delta,
)
from .scenario import Scenario, delta_grid, format_scenario, parse_scenario, scenario_text
from .sweeps import (
    EXPERIMENT_NAMES,
    SweepRow,
    emit_csv,
    read_csv,
    run_named_experiment,
    run_sweep,
)

__version__ = "0.1.0"
