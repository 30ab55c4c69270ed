"""Non-left-orderability certificates for surgeries on twisted torus knots."""

from .alexander import (
    LaurentPolynomial,
    alexander_polynomial,
    lspace_surgery_threshold,
    torus_alexander,
)
from .certificates import (
    Certificate,
    certify,
    slope_range,
    verify_certificate,
    xy_change,
)
from .cosets import CosetTable, check_peripheral_commutation, todd_coxeter
from .families import (
    FamilyParams,
    KnotData,
    Slope,
    build,
    lspace_case,
    surgery_presentation,
)
from .homology import abelianization_matrix, h1, surgery_h1
from .presentation import (
    GeneratorChange,
    Presentation,
    TraceStep,
    apply_relation,
)
from .words import Word, format_word, parse_word

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "CosetTable",
    "FamilyParams",
    "GeneratorChange",
    "KnotData",
    "LaurentPolynomial",
    "Presentation",
    "Slope",
    "TraceStep",
    "Word",
    "__version__",
    "abelianization_matrix",
    "alexander_polynomial",
    "apply_relation",
    "build",
    "certify",
    "check_peripheral_commutation",
    "format_word",
    "h1",
    "lspace_case",
    "lspace_surgery_threshold",
    "parse_word",
    "slope_range",
    "surgery_h1",
    "surgery_presentation",
    "todd_coxeter",
    "torus_alexander",
    "verify_certificate",
    "xy_change",
]
