"""Optimal multi-agent path finding on multi-floor grids with elevators."""

from .cbs import (
    EdgeConflict,
    PathStructureError,
    SolveResult,
    SolverConfig,
    SolveStats,
    Solution,
    VertexConflict,
    enumerate_conflicts,
    solve,
    validate,
)
from .elevator import (
    ElevatorConflict,
    ElevatorUsage,
    busy_interval,
    detect_elevator_conflicts,
    ec_constraints,
    usages_overlap,
)
from .mdd import MddE, MddENode, MddSizeExceeded, build_joint, build_mdd_e, classify, find_bypass
from .model import (
    Agent,
    Elevator,
    FloorGrid,
    Instance,
    MapError,
    MultiFloorGraph,
    ScenarioError,
    Vertex,
    parse_map,
    parse_scenario,
    serialize_map,
    serialize_scenario,
)
from .oracle import OracleResult, oracle_solve
from .sipp import ConstraintSet, Path, plan, safe_intervals

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
