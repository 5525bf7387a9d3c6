"""tvgeo: infer static home locations for the unlabeled nodes of a weighted
social graph by dispersion-constrained total-variation minimization."""

from .geodesy import GeoPoint, destination, geodesic_distance, geodesic_distance_detail
from .graph import (
    IngestReport,
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
from .robust_stats import WeightedPointSet, dispersion, geodesic_l1_median
from .solver import (
    EstimateState,
    IterationStats,
    LocationEstimate,
    SolverConfig,
    infer,
    spatial_label_propagation,
)
from .synth import SynthConfig, SynthResult, generate
from .evaluation import (
    CityEntry,
    CityTable,
    EvalReport,
    city_accuracy,
    evaluate,
    gamma_sweep,
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
    "infer",
    "spatial_label_propagation",
    "SynthConfig",
    "SynthResult",
    "generate",
    "EvalReport",
    "CityEntry",
    "CityTable",
    "evaluate",
    "city_accuracy",
    "gamma_sweep",
    "__version__",
]
