"""percolab: a laboratory for Bernoulli bond percolation.

Exact enumeration oracles on small lattice balls, exploration processes and
monotone couplings between product laws and ghost-conditioned measures, and
seeded Monte Carlo estimators for cluster-volume statistics.
"""

__version__ = "0.1.0"

from .core import ClusterResult, lazy_cluster
from .coupling import (
    CoupledPair,
    StepViolation,
    couple_sequential,
    domination_margin,
    exhaustive_order_check,
)
from .errors import CapExceeded
from .estimators import (
    DecayFit,
    EstimateCI,
    MagnetizationInterval,
    TailBoundReport,
    crossing_probability,
    decay_fit,
    estimate_magnetization,
    meanfield_verdict,
    psi_curve,
    tail_bound_verdict,
    wilson_interval,
)
from .exact import (
    DominationCertificate,
    ExplicitMeasure,
    conditional_measure,
    exact_magnetization,
    magnetization_bound,
    make_conditional_oracle,
    max_conditional_pivotal,
    product_measure,
    strassen_dominates,
    verify_certificate,
)
from .exploration import CLUSTER_FIRST, ClusterFirstRule, ExplorationTrace
from .lattices import GraphBall, LatticeSpec, ball_to_json, build_ball, lazy_neighbors
