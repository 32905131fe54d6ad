"""Distances between finite sets of target tracks: OSPAMT, OSPA and OSPAT."""

from .assign import (
    INFEASIBLE,
    greedy_many_to_one,
    solve_one_to_one,
)
from .core import (
    Assignment,
    Direction,
    MetricParams,
    MetricReport,
    Track,
    TrackSet,
    count_distances,
    scan_distances,
)
from .errors import (
    BadParametersError,
    DimensionMismatchError,
    EmptyTrackError,
    InfeasibleAssignmentError,
    NoConvergenceError,
    NonFiniteCoordinateError,
    ParseError,
    ScanMismatchError,
    ScanOutOfRangeError,
    TooLargeError,
    TrackMetricError,
    ValidationError,
)
from .io import load_track_set, save_track_set
from .ospa import ospa, ospa_per_scan
from .ospamt import (
    Mode,
    directional_cost,
    directional_distance,
    ospamt_metric,
    quasi_ospamt,
    split_tracks,
)
from .ospat import (
    ospat_label,
    ospat_labeled,
    ospat_per_scan,
    ospat_reorder,
)
from .scenarios import FigureId, Scenario, ScenarioSpec, build, random_scenario

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "BadParametersError",
    "DimensionMismatchError",
    "Direction",
    "EmptyTrackError",
    "FigureId",
    "INFEASIBLE",
    "InfeasibleAssignmentError",
    "MetricParams",
    "MetricReport",
    "Mode",
    "NoConvergenceError",
    "NonFiniteCoordinateError",
    "ParseError",
    "Scenario",
    "ScenarioSpec",
    "ScanMismatchError",
    "ScanOutOfRangeError",
    "TooLargeError",
    "Track",
    "TrackMetricError",
    "TrackSet",
    "ValidationError",
    "build",
    "count_distances",
    "directional_cost",
    "directional_distance",
    "greedy_many_to_one",
    "load_track_set",
    "ospa",
    "ospa_per_scan",
    "ospamt_metric",
    "ospat_label",
    "ospat_labeled",
    "ospat_per_scan",
    "ospat_reorder",
    "quasi_ospamt",
    "random_scenario",
    "save_track_set",
    "scan_distances",
    "solve_one_to_one",
    "split_tracks",
]
