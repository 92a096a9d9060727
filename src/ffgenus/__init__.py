"""Genus-field and ramification toolkit for radical extensions of F_q(T)."""

from .carlitz import carlitz_action, euler_phi, subfield_FP
from .ffpoly import (
    DomainError,
    FqPoly,
    ParseError,
    factor,
    is_irreducible,
    make_context,
    parse_element,
    parse_poly,
    render_element,
    render_poly,
)
from .genus import (
    estar_interval,
    genus_report,
    genus_report_abstract,
    render_report,
    report_json,
)
from .oracle import (
    carlitz_compose_check,
    naive_factor,
    splitting_at_finite,
    t0_root_degrees,
    unit_count,
)
from .ramify import (
    build_profile,
    profile_from_dict,
    radical_extension,
    ram_finite,
    ram_infinity,
    t0_radical,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError", "FqPoly", "ParseError",
    "build_profile", "carlitz_action",
    "carlitz_compose_check", "estar_interval", "euler_phi",
    "factor", "genus_report", "genus_report_abstract", "is_irreducible",
    "make_context", "naive_factor", "parse_element", "parse_poly",
    "profile_from_dict",
    "radical_extension", "ram_finite", "ram_infinity", "render_element",
    "render_poly", "render_report", "report_json", "splitting_at_finite",
    "subfield_FP", "t0_radical", "t0_root_degrees", "unit_count",
]
