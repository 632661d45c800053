"""Numerical projective Finsler geometry.

Finsler structures with their sprays and Ricci curvature, projective normal
parameters via the Schwarzian reduction, Funk metrics and distances, and an
upper estimator for the chain pseudo-distance, plus report-style checkers
for the associated curvature inequalities.
"""

from .core import (FinslerMetric, ValidationReport, arc_length,
                   validate_homogeneity, validate_strong_convexity)
from .curvature import (CurvatureData, ProjectiveFactor, RicciBoundReport,
                        check_ricci_bound, curvature_matrix, projective_factor,
                        ricci_scalar, ricci_scalar_batch, ricci_tensor,
                        verify_ric_transformation, weighted_ricci)
from .diffengine import Jet, fundamental_tensor
from .distance import (Chain, ChainLink, CorollaryReport, PositivityReport,
                       PseudoDistanceOptions, PseudoDistanceReport, SchwarzReport,
                       corollary_check, funk_distance_interval, positivity_probe,
                       pseudo_distance_upper, schwarz_ratio)
from .errors import (AccuracyError, ChartError, ConfigError, ConnectivityError,
                     ConstructionError, ConvexityError, CriticalPointError,
                     DomainError, FinslerError, HypothesisError,
                     InadmissibleChartError, NotProjectiveError, PoleError,
                     StiffnessError)
from .geodesics import (BVPResult, GeodesicSegment, connect, extend_geodesic,
                        finsler_distance, integrate_geodesic, spray_vector)
from .metrics import (EuclideanMetric, KleinMetric, QuadraticDomainSpec,
                      QuadraticFunkMetric, RandersMetric, RandersSpec,
                      RiemannianMetric, RiemannianSpec, funk_ball, funk_from_quadratic,
                      interval_funk_eval, klein_metric, randers_metric)
from .projective import (MobiusTransform, ProjectiveParameter, check_composition,
                         cross_ratio, invariance_cross_check, projective_parameter,
                         schwarzian)

__version__ = "0.1.0"
