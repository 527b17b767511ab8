"""Circle-inversion groups on the hyperbolic plane: certified
Hausdorff-dimension upper bounds, estimators and limit-point diagnostics.

The public names below are imported from their modules on first use
(PEP 562), so that importing the package alone loads none of them.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "scalars": (
        "IntervalContext", "certainly_le", "contains", "default_context",
        "lower", "midpoint", "parse_rational", "upper"),
    "hyperbolic": (
        "BoundaryPoint", "Circle", "DegenerateInversionError", "DiskPoint",
        "ExteriorImageError", "HPoint", "boundary_gromov_product",
        "circle_invert_circle", "circle_invert_point", "cosh_distance",
        "disk_from_half_plane"),
    "schedule": (
        "GeneratorSchedule", "ScheduleEntry", "ValidationReport",
        "load_schedule", "paper_schedule", "schedule_from_json",
        "validate_schedule"),
    "words": (
        "BeardonReport", "DiskNode", "DiskTree", "NestingError",
        "ReducedWord", "beardon_check", "disk_tree", "enumerate_words",
        "word_disk"),
    "certify": (
        "Certificate", "CheckRecord", "TailBoundError", "alpha_sum",
        "center_control", "certificate_from_json", "certify_dimension_upper",
        "level_sums", "paper_center_bound", "paper_radii_bound",
        "radii_tail_bound", "reverify"),
    "estimators": (
        "BisectResult", "BoxCountResult", "BracketError", "box_count",
        "level_dimension_bisect"),
    "explore": (
        "DELTA_0", "ESCAPING", "RECURRENT", "JorgensenResult", "OrbitBall",
        "RayProfile", "WordPath", "beta_depth", "conicality_profile",
        "default_basepoint", "dirichlet_membership", "geodesic_ray_point",
        "jorgensen_check", "limit_point", "orbit_distance"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    """A public name, or one of the modules above, imported on first use."""
    module = name if name in _EXPORTS else _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = import_module(f".{module}", __name__)
    if module != name:
        value = getattr(value, name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | set(__all__))
