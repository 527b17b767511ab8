"""Circle-inversion groups on the hyperbolic plane: certified
Hausdorff-dimension upper bounds, estimators and limit-point diagnostics."""

from .scalars import (IntervalContext, certainly_le, certainly_lt, contains,
                      default_context, error_radius, lower, midpoint,
                      parse_rational, upper)
from .hyperbolic import (BoundaryPoint, Circle, DegenerateInversionError,
                         DiskPoint, ExteriorImageError, HPoint,
                         boundary_gromov_product,
                         chain_metric, circle_invert_circle,
                         circle_invert_point, cosh_distance,
                         disk_from_half_plane, gromov_product, hyp_distance)
from .schedule import (GeneratorSchedule, ScheduleEntry, ValidationReport,
                       load_schedule, paper_schedule, schedule_from_json,
                       validate_schedule)
from .words import (BeardonReport, DiskNode, DiskTree, NestingError,
                    ReducedWord, beardon_check, disk_tree, enumerate_words,
                    mu_constant, word_disk)
from .certify import (Certificate, CheckRecord, TailBoundError, alpha_sum,
                      center_control, certificate_from_json,
                      certify_dimension_upper, level_sums,
                      paper_center_bound, paper_radii_bound,
                      radii_tail_bound, reverify)
from .estimators import (BisectResult, BoxCountResult, BracketError,
                         PoincareSummary, box_count, level_dimension_bisect,
                         poincare_partial)
from .explore import (DELTA_0, ESCAPING, RECURRENT, JorgensenResult,
                      OrbitBall, RayProfile, WordPath, beta_depth,
                      conicality_profile, default_basepoint,
                      dirichlet_membership, geodesic_ray_point,
                      jorgensen_check, limit_point, orbit_distance)

__version__ = "0.1.0"
