"""TIN GDoF regions, assignment-based minimal power control, weighted
sum-GDoF solvers, and distributed D2D link scheduling."""

__version__ = "0.1.0"

from .exceptions import (
    ConvergenceFailure,
    DivergenceDetected,
    DomainError,
    EmptyPolytope,
    EpsilonTooSmall,
    ImmediatelyInfeasible,
    Infeasible,
    InfeasibleGdof,
    InfeasibleOrEpsilonTooLarge,
    InvalidReferencePower,
    NotPerfect,
    OracleLimitExceeded,
    RegionTooTight,
    SchemaError,
    ShapeError,
    SubsetTooLarge,
    TinqError,
)
from .fixtures import NETWORK_A, NETWORK_B, fixture_checksums
from .matching import (
    CyclicPartition,
    Matching,
    cyclic_partition,
    max_matching_weight,
    max_weight_matching,
)
from .model import (
    ChannelMatrix,
    GdofTuple,
    PhysicalNetwork,
    PowerAlloc,
    achieved_gdof,
    db_to_linear,
    linear_to_db,
    network_to_json,
    parse_network,
    realize_network,
    sinr,
    strength_from_physical,
)
from .optimize import (
    GpSolution,
    decentralized_gp,
    gp_power_control,
    gp_then_assignment,
    max_weighted_gdof_exact,
    max_weighted_gdof_lp,
)
from .power import (
    AssignmentMatrix,
    KmTrace,
    LabelPair,
    build_assignment_matrix,
    is_feasible,
    solve_power_auction,
    solve_power_hungarian,
)
from .region import (
    ConditionReport,
    TinaPolytope,
    check_conditions,
    contains,
    converse_g_bound,
    tina_polytope,
    tina_polytope_cyclic,
    union_membership,
)
from .schedule import (
    NumState,
    NumTrajectory,
    SchedulerParams,
    ScheduleResult,
    flashlinq_schedule,
    itis_plus_check,
    itlinq_plus_schedule,
    itlinq_schedule,
    num_run,
    num_step,
)
from .sim import (
    Aggregate,
    DropRecord,
    ExperimentResult,
    MetricRow,
    Scenario,
    generate_drop,
    pathloss_itu1411_los,
    run_experiment,
    run_synthetic_experiment,
    scenario1,
    scenario2,
    write_rows_csv,
)

__all__ = [name for name in dir() if not name.startswith("_")]
