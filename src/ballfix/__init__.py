"""Near-fixed points of discontinuous self-maps of the Euclidean unit ball.

Quantitative toolkit around a sharp threshold: a map whose local image
diameters stay below eps always has a point displaced by less than any
bound above eps / jung_radius(dim), and the Voronoi extremal construction
shows nothing below that is attainable.  The package builds the extremal
maps, runs the constructive certificate pipeline, and verifies the bound
by independent brute force at desk scale.
"""

from .errors import (
    BallfixError,
    BudgetExceededError,
    CertificateError,
    DomainError,
    HypothesisError,
    InvalidCombinationError,
    InvalidDimensionError,
    NoConvergenceError,
    SolverError,
)
from .geometry import (
    TOL_GEOM,
    TOL_WEIGHTS,
    Ball,
    ConvexCombination,
    PointSet,
    jung_radius,
    min_enclosing_ball,
    regular_simplex_vertices,
)
from .maps import (
    ConstantMap,
    DiscontinuityWitness1D,
    ExtremalMap,
    IdentityMap,
    SampledMap,
    StepMap1D,
    discontinuity_witness_1d,
    eps_fixed_indices,
    image_diameter,
    sample_map_on_grid,
)
from .oracle import (
    GridSpec,
    TightnessReport,
    jung_random_test,
    min_displacement_grid,
    modulus_grid,
    tightness_report,
)
from .pipeline import (
    EmbeddedPoint,
    EpsFixedPointCertificate,
    FixedPointResult,
    PipelineParams,
    PipelineRun,
    SampleGrid,
    averaged_map_eval,
    build_sample_grid,
    embed,
    extract_certificate,
    find_fixed_point,
    run_pipeline,
    simplicial_image_check,
)

__version__ = "0.1.0"
