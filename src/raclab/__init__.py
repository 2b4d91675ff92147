"""raclab: a laboratory for random access over fading channels.

Three collision-resolution protocols (tree splitting, orthogonal
repetition, incremental-redundancy ARQ with a deadline) run over an
outage-based Rayleigh block-fading physical layer; closed-form
diversity-multiplexing-delay, throughput, stability and delay results are
cross-validated against seeded Monte Carlo simulation.
"""

from .system import GTA, IRARQ, ONDMA, PROTOCOLS, AntennaConfig, ProtocolParams, snr_from_db
from .dmt import (
    GtaRecursionTable,
    TradeoffPoint,
    binomial_mix,
    epoch_law,
    gta_optimal_pt,
    gta_recursion,
    mac_dmt,
    optimal_pt,
    point_to_point_dmt,
    protocol_dmt,
    random_arrival_diversity,
    stability_region,
    tradeoff_curve,
)
from .montecarlo import (
    BetaTable,
    ErrorEstimate,
    ThroughputEstimate,
    diversity_slope,
    estimate_beta,
    fully_loaded_throughput,
    gta_collision_stats,
    renewal_prediction,
    system_error_probability,
)
from .queueing import (
    DelayReport,
    ScanResult,
    analytic_delay,
    simulate_random_arrivals,
    solve_transmission_probability,
    stability_boundary_scan,
)

__version__ = "0.1.0"
