"""tvgeo: infer static home locations for the unlabeled nodes of a weighted
social graph by dispersion-constrained total-variation minimization."""

from .geodesy import GeoPoint, destination, geodesic_distance, geodesic_distance_detail
from .graph import (
    IngestReport,
    MentionRecord,
    SocialNetwork,
    WeightedEdge,
    build_reciprocal_network,
    total_variation,
)
from .ground_truth import (
    Gazetteer,
    GpsEvent,
    GroundTruthRecord,
    ProfileClaim,
    gazetteer_home,
    gps_home,
    max_speed,
    merge_seeds,
    seed_points,
)
from .robust_stats import WeightedPointSet, dispersion, geodesic_l1_median, mad_spread
from .solver import (
    EstimateState,
    IterationStats,
    LocationEstimate,
    SolverConfig,
    infer,
    nodal_variation,
    node_update,
    spatial_label_propagation,
)
from .synth import SynthConfig, SynthResult, generate
from .evaluation import (
    CityEntry,
    CityTable,
    EvalReport,
    HoldoutSplit,
    city_accuracy,
    error_histogram,
    evaluate,
    gamma_sweep,
    holdout_split,
)

__version__ = "0.1.0"

__all__ = [
    "GeoPoint",
    "destination",
    "geodesic_distance",
    "geodesic_distance_detail",
    "WeightedPointSet",
    "geodesic_l1_median",
    "dispersion",
    "mad_spread",
    "MentionRecord",
    "WeightedEdge",
    "SocialNetwork",
    "IngestReport",
    "build_reciprocal_network",
    "total_variation",
    "GpsEvent",
    "ProfileClaim",
    "GroundTruthRecord",
    "Gazetteer",
    "gps_home",
    "max_speed",
    "gazetteer_home",
    "merge_seeds",
    "seed_points",
    "SolverConfig",
    "LocationEstimate",
    "EstimateState",
    "IterationStats",
    "nodal_variation",
    "node_update",
    "infer",
    "spatial_label_propagation",
    "SynthConfig",
    "SynthResult",
    "generate",
    "HoldoutSplit",
    "EvalReport",
    "CityEntry",
    "CityTable",
    "holdout_split",
    "evaluate",
    "city_accuracy",
    "gamma_sweep",
    "error_histogram",
    "__version__",
]
