"""Exact prime spectra of finite and finitely presented commutative monoids."""

from .congruence import Congruence, congruence_closure, grillet_relation, quotient, sl_reflection
from .core import (
    FiniteMonoid,
    MonoidMap,
    direct_product,
    is_hom,
    is_idempotent,
    monoid_homs,
    parse_monoid_table,
    sierpinski,
    submonoid_closure,
    trivial_monoid,
    units,
    validate_monoid,
)
from .errors import (
    CapExceeded,
    InputError,
    IntegrityError,
    ParseError,
    ValidationError,
)
from .semilattice import (
    JoinSemilattice,
    MonotoneMap,
    check_adjunction,
    from_monoid,
    left_adjoint,
    monotone_map,
    right_adjoint,
    top,
)
from .spectrum import (
    Spectrum,
    alpha,
    beta,
    generator_supports,
    primes_bruteforce,
    spec_monoid,
    theta,
    theta_inverse,
)

#: Names re-exported from `presentation`, which loads on the first read of one
#: (PEP 562): `import monospec.cli` and `import monospec.limits` never compile it.
_PRESENTATION = ("Presentation", "free_semilattice", "parse_presentation", "sl_of_presentation")


def __getattr__(name):
    if name in _PRESENTATION:
        from . import presentation

        return getattr(presentation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# the API: the names imported above and the lazy ones, never a submodule
__all__ = [
    "CapExceeded", "Congruence", "FiniteMonoid", "InputError", "IntegrityError",
    "JoinSemilattice", "MonoidMap", "MonotoneMap", "ParseError", "Presentation",
    "Spectrum", "ValidationError", "alpha", "beta", "check_adjunction",
    "congruence_closure", "direct_product", "free_semilattice", "from_monoid",
    "generator_supports", "grillet_relation", "is_hom", "is_idempotent", "left_adjoint",
    "monoid_homs", "monotone_map", "parse_monoid_table", "parse_presentation",
    "primes_bruteforce", "quotient", "right_adjoint", "sierpinski",
    "sl_of_presentation", "sl_reflection", "spec_monoid", "submonoid_closure", "theta",
    "theta_inverse", "top", "trivial_monoid", "units", "validate_monoid",
]
