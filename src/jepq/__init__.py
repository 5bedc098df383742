"""Juggling exclusion chains with geometric throws: exact stationary laws
built from q-analogues and rook placements, brute-force verification, and
seeded Monte Carlo simulation.
"""

from .qcomb import (
    Scalar,
    euler_phi,
    gould_stirling,
    parse_scalar,
    partition_z,
    q_int,
    q_pochhammer,
    q_stirling,
)
from .jep import (
    BoundedGeometric,
    BoundedUniform,
    SteadyStats,
    ThrowModel,
    UnboundedGeometric,
    closed_form_stats,
    enumerate_states,
    stationary_distribution,
    stationary_prob,
    stationary_weight,
    stationary_weights,
    step_kernel_row,
    theta,
    truncated_geometric_pmf,
)
from .rook import (
    circ,
    circ_histogram,
    enumerate_configs,
    extended_distribution,
    extended_ground,
    extended_kernel_row,
    extensions,
    row_projection,
)
from .oracle import (
    ConvergenceRow,
    LimitRow,
    TransitionMatrix,
    build_extended_matrix,
    build_transition_matrix,
    limit_rows_fixed_n,
    limit_rows_growing_n,
    solve_stationary,
    total_variation,
    tv_to_unbounded,
)
from .mc import (
    CoupledRun,
    RngStream,
    Trajectory,
    coupled_simulate,
    empirical_distribution,
    simulate,
)
from .verify import CheckResult, run_checks

__version__ = "0.1.0"
