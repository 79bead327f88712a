"""repro -- reproduction of "Approximating max-min linear programs with local algorithms".

The package implements the max-min LP model of Floréen, Kaski, Musto and
Suomela (IPDPS 2008), the paper's local algorithms (the safe algorithm and
the local averaging algorithm of Theorem 3), the Section 4 lower-bound
construction, a synchronous message-passing simulator in which the
algorithms run distributedly, instance generators, and the motivating
sensor-network / ISP applications.

Quick start
-----------
>>> from repro import grid_instance, safe_solution, local_averaging_solution, optimal_solution
>>> problem = grid_instance((6, 6), seed=0)
>>> opt = optimal_solution(problem)
>>> safe = problem.objective(problem.to_array(safe_solution(problem)))
>>> local = local_averaging_solution(problem, R=2)
>>> opt.objective >= local.objective >= safe > 0
True
"""

from .core import (
    DegreeBounds,
    LocalAveragingResult,
    MaxMinLP,
    MaxMinLPBuilder,
    OptimalSolution,
    SolutionReport,
    approximation_ratio,
    evaluate_solution,
    local_averaging_solution,
    optimal_objective,
    optimal_solution,
    optimal_solution_batch,
    safe_approximation_guarantee,
    safe_solution,
    safe_value,
    safe_values_array,
    single_shot_local_solution,
    solve_local_lp,
    uniform_share_solution,
    unshrunk_averaging_solution,
)
from .engine import (
    BatchSolver,
    JobRecord,
    ResultCache,
    RunRegistry,
    fingerprint_instance,
    fingerprint_request,
    get_default_engine,
    set_default_engine,
)
from .io import (
    dump_instance,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    solution_from_dict,
    solution_to_dict,
)
from .exceptions import (
    ConstructionError,
    InfeasibleError,
    InvalidInstanceError,
    ReproError,
    ScenarioError,
    SolverError,
    UnboundedError,
)
from .generators import (
    cycle_instance,
    grid_instance,
    path_instance,
    random_bounded_degree_instance,
    unit_disk_instance,
)
from .hypergraph import (
    GrowthProfile,
    Hypergraph,
    communication_hypergraph,
    growth_profile,
    relative_growth,
    theorem3_ratio_bound,
)
from .lowerbound import (
    LowerBoundInstance,
    build_lower_bound_instance,
    corollary2_bound,
    finite_R_bound,
    theorem1_bound,
)

# The canonicalization layer sits on top of the core and the engine: view
# canonical forms and orbit partitions.
from .canon import (
    CanonicalForm,
    OrbitPartition,
    canonical_view_key,
    canonicalize_problem,
    partition_views,
)

# The vectorized view-extraction pipeline: batch balls, the view atlas and
# batch canonicalisation backing the averaging fast path.
from .views import ViewAtlas, ball_membership, batch_balls

# The scenarios layer sits on top of everything above; imported last so the
# registry can use the generators, apps and engine freely.
from .scenarios import (
    ScenarioGrid,
    ScenarioSpec,
    SuiteRunner,
    SuiteSpec,
    get_suite,
    list_families,
    register_family,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "MaxMinLP",
    "MaxMinLPBuilder",
    "DegreeBounds",
    "SolutionReport",
    "approximation_ratio",
    "evaluate_solution",
    "safe_solution",
    "safe_value",
    "safe_values_array",
    "safe_approximation_guarantee",
    "optimal_solution",
    "optimal_solution_batch",
    "optimal_objective",
    "OptimalSolution",
    "local_averaging_solution",
    "solve_local_lp",
    "LocalAveragingResult",
    "uniform_share_solution",
    "single_shot_local_solution",
    "unshrunk_averaging_solution",
    # engine
    "BatchSolver",
    "ResultCache",
    "RunRegistry",
    "JobRecord",
    "fingerprint_instance",
    "fingerprint_request",
    "get_default_engine",
    "set_default_engine",
    # canon
    "CanonicalForm",
    "OrbitPartition",
    "canonical_view_key",
    "canonicalize_problem",
    "partition_views",
    # views
    "ViewAtlas",
    "ball_membership",
    "batch_balls",
    # io
    "instance_to_dict",
    "instance_from_dict",
    "dump_instance",
    "load_instance",
    "solution_to_dict",
    "solution_from_dict",
    # hypergraph
    "Hypergraph",
    "communication_hypergraph",
    "relative_growth",
    "growth_profile",
    "theorem3_ratio_bound",
    "GrowthProfile",
    # generators
    "grid_instance",
    "path_instance",
    "cycle_instance",
    "random_bounded_degree_instance",
    "unit_disk_instance",
    # lower bound
    "LowerBoundInstance",
    "build_lower_bound_instance",
    "theorem1_bound",
    "corollary2_bound",
    "finite_R_bound",
    # scenarios
    "ScenarioGrid",
    "ScenarioSpec",
    "SuiteRunner",
    "SuiteSpec",
    "get_suite",
    "list_families",
    "register_family",
    # exceptions
    "ReproError",
    "InvalidInstanceError",
    "InfeasibleError",
    "UnboundedError",
    "SolverError",
    "ConstructionError",
    "ScenarioError",
]
