"""Exact symbolic engine for differential bigraded commutative algebras.

Sparse elements with exact rational or Gaussian-rational coefficients,
Koszul-signed products, differentials and cohomology, central extensions,
cyclification, twisted Laurent complexes and Fourier-Mukai transforms, plus
the super-Minkowski spinor constructions that exercise all of it.
"""

from .algebra import Algebra, Element, Generator, transport
from .constructions import (
    CentralExtension,
    Cyclification,
    ExtensionFiberProduct,
    adjunction_transpose,
    adjunction_transpose_inverse,
    central_extension,
    cocycle_as_morphism,
    cyclify,
    extension_fiber_product,
    fiber_integration,
    fiber_integration_via_cyclification,
    loopify,
    shifted_complex_d,
    strip_generator,
)
from .dgca import (
    CohomologyReport,
    Morphism,
    Presentation,
    closed_basis,
    cohomology,
    identity_morphism,
)
from .fields import FIELDS, QI, QQ, GaussianRational
from .parsing import ParseError, format_element, parse_element
from .tduality import (
    LIBRARY,
    btfold,
    btfold_quintuple,
    contractible,
    derive_quintuple,
    library_presentation,
    line_model,
    phi1_isomorphism,
    sphere_model,
    validate_config,
)
from .twisted import (
    FMQuintuple,
    TwistSpec,
    TwistedCochain,
    beck_chevalley_check,
    compose_fm,
    fm_inverse,
    fm_transform,
    gauge_transform,
    twisted_cohomology,
    twisted_d,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
