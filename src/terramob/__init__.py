"""Terrain-aware multi-agent navigation over elevation grids.

Global least-cost routes (time-optimal A*), tabular-Q local bypass of
dynamic blockages, heterogeneous mobility profiles, and deterministic
pursuit / transport scenario runs.
"""

from .agents import (
    AgentProfile,
    EdgeTable,
    builtin_profile,
    builtin_profiles,
    speed,
)
from .local_adapt import (
    CorridorEnv,
    LearningParams,
    RewardWeights,
    bypass_move,
    evaluate_bypass,
    train_bypass,
)
from .planner import NoPathError, PathPlan, SearchStats, astar, dijkstra_oracle
from .sim import (
    Obstacle,
    PursuitRule,
    ScenarioConfig,
    SimReport,
    World,
    compare_transport,
    run_scenario,
)
from .terrain import (
    CellIndex,
    ElevationGrid,
    GridFormatError,
    line_of_sight,
    make_synthetic,
    parse_ascii_grid,
    serialize_ascii_grid,
    two_corridor_endpoints,
    viewshed,
)

__version__ = "0.1.0"
