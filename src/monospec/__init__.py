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
from .presentation import Presentation, free_semilattice, parse_presentation, sl_of_presentation
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

__all__ = [name for name in dir() if not name.startswith("_")]
