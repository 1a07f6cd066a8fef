"""Numerical geometry of curvature-bounded submanifolds.

Constructs the centered, rescaled rank-one-projection embeddings of the
projective spaces over R, C, H, O, flat-torus embeddings from frequency
families, and discrete-curve comparison tools, and verifies their
quantitative properties (normal and sectional curvatures, enclosing
radii, circle geodesics, chordal distances, the minimax torus constant)
at desk scale.
"""

from .algebra import (
    ALGEBRAS,
    COMPLEX,
    OCTONION,
    QUATERNION,
    REAL,
    Algebra,
    algebra_by_kind,
)
from .ball import Ball, min_enclosing_ball
from .curves import (
    BowReport,
    DiscreteCurve,
    FaryReport,
    InvalidComparison,
    bow_check,
    discrete_curvature,
    fary_check,
    fit_circle,
    monotonicity_check,
)
from .flat_torus import (
    TorusEmbedding,
    curvature_bound,
    optimize_weights,
    torus_worst_direction,
)
from .manifold import (
    ImplicitManifold,
    ProjectionError,
    SingularPointError,
    integrate_geodesic,
    integrate_geodesics,
    mean_curvature_vector,
    normal_curvature,
    second_fundamental_form,
    sectional_curvature,
    tangent_basis,
)
from .veronese import (
    VeroneseSpace,
    base_point,
    chordal_distance,
    point_from_homogeneous,
    sample_points,
    simplex_circumradius,
    space,
    space_from_name,
    standard_planes,
    unflatten,
    variety,
)

__version__ = "0.1.0"
