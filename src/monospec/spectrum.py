"""Prime ideals and spectra, computed by three independent routes.

A prime ideal is a proper subset that absorbs multiplication and whose
complement is a submonoid.  The three routes are: direct subset enumeration,
homomorphisms into the two-element monoid (`monoid_homs(M, sierpinski())`,
read off by `theta` as kernels of the absorbing fiber), and the
downset-complement bijection on the idempotent reflection.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import reduce
from itertools import compress
from operator import eq

from .congruence import sl_reflection
from .core import (
    SUBSET_CAP,
    FiniteMonoid,
    MonoidMap,
    enforce_cap,
    is_hom,
    is_submonoid,
    monoid_homs,
    render_set,
    sierpinski,
    submonoid_as_monoid,
    units,
)
from .errors import HypothesisError, IntegrityError, ValidationError
from .presentation import Presentation, sl_of_presentation
from .semilattice import (
    JoinSemilattice,
    MonotoneMap,
    from_monoid,
    is_join_morphism,
    right_adjoint,
)


def canonical_key(members: frozenset[int]):
    return (len(members), tuple(sorted(members)))


@dataclass(frozen=True)
class Spectrum:
    """All prime ideals of a monoid, as a monoid under union.

    Points are canonically ordered by cardinality then membership; the union
    table indexes points, with the empty prime as identity.
    """

    owner: FiniteMonoid
    points: tuple[frozenset[int], ...]
    union_table: tuple[tuple[int, ...], ...]


def build_spectrum(M: FiniteMonoid, points) -> Spectrum:
    """Canonicalize a complete set of primes and tabulate the union monoid."""
    pts = sorted(set(frozenset(p) for p in points), key=canonical_key)
    index = {p: i for i, p in enumerate(pts)}
    table = []
    for p in pts:
        row = []
        for q in pts:
            u = p | q
            if u not in index:
                raise IntegrityError(f"union of primes {sorted(p)} and {sorted(q)} is not a prime point")
            row.append(index[u])
        table.append(tuple(row))
    if not pts or pts[0] != frozenset():
        raise IntegrityError("the empty prime is missing")
    return Spectrum(M, tuple(pts), tuple(table))


def primes_bruteforce(M: FiniteMonoid, cap: int = SUBSET_CAP) -> Spectrum:
    """Scan all subsets (identity excluded up front) for the prime laws.

    The ideal generated by every identity-free mask is tabulated first:
    closure[h] is the ideal of the mask 2h, doubled one element at a time
    (closure[h | 2^(x-1)] = closure[h] | rowmask[x]) in an `array` of 32-bit
    entries, about 2^(n+1) bytes, so at most 32 elements whatever the cap.  A mask lies in its own closure (x*1 = x), so it is an
    ideal exactly when it equals its closure; only ideals get the
    complement test.
    """
    n = M.size
    enforce_cap("size", n, min(cap, 32))  # a closure entry is at most 32 bits
    rowmask = [0] * n
    for a in range(n):
        m = 0
        for x in range(n):
            m |= 1 << M.table[a][x]
        rowmask[a] = m
    closure = array("I", [0])
    for x in range(1, n):
        closure.extend(array("I", map(rowmask[x].__or__, closure)))
    evens = range(0, 1 << n, 2)  # bit 0 (the identity) always clear
    points = []
    for mask in compress(evens, map(eq, closure, evens)):
        comp = [x for x in range(n) if not (mask >> x) & 1]
        ok = True
        for i, a in enumerate(comp):
            row = M.table[a]
            if any((mask >> row[b]) & 1 for b in comp[i:]):
                ok = False
                break
        if ok:
            points.append(frozenset(x for x in range(n) if (mask >> x) & 1))
    return build_spectrum(M, points)


def theta(f: MonoidMap) -> frozenset[int]:
    """The prime f^{-1}(absorbing element)."""
    return frozenset(x for x in f.source.elements() if f.images[x] == 1)


def theta_inverse(M: FiniteMonoid, members) -> MonoidMap:
    """The indicator homomorphism of a prime: absorbing on it, unit off it."""
    members = frozenset(members)
    f = MonoidMap(M, sierpinski(), tuple(1 if x in members else 0 for x in M.elements()))
    if not is_hom(f):
        raise ValidationError(f"{render_set(M, members)} is not a prime ideal")
    return f


def alpha(L: JoinSemilattice, a: int) -> frozenset[int]:
    """The prime complementary to the downset of a."""
    return frozenset(x for x in L.elements() if not L.leq[x][a])


def beta(L: JoinSemilattice, members) -> int:
    """Greatest element of the complement subsemilattice; inverse of `alpha`."""
    members = frozenset(members)
    comp = [x for x in L.elements() if x not in members]
    if not comp:
        raise ValidationError("a prime never contains the least element")
    return reduce(L.join, comp)


def spec_monoid(M: FiniteMonoid, cap: int = SUBSET_CAP) -> Spectrum:
    """Spec via the reduction route: reflect, enumerate downset complements, pull back."""
    L, q = sl_reflection(M)
    enforce_cap("reflection size", L.size, cap)
    points = []
    for a in L.elements():
        pa = alpha(L, a)
        points.append(frozenset(x for x in M.elements() if q.images[x] in pa))
    return build_spectrum(M, points)


def spec_presentation(P: Presentation, cap: int = SUBSET_CAP):
    """Spec of a presented (possibly infinite) monoid, as generator supports.

    Returns (L, gen_images, spectrum of L, supports) where each support is the
    frozenset of generator indices whose principal ideals the prime contains.
    Raises CapExceeded when P has more than `cap` generators or L more than
    `cap` elements.
    """
    L, gen_images = sl_of_presentation(P, cap)
    S = build_spectrum(L.monoid, [alpha(L, a) for a in L.elements()])
    supports = tuple(
        frozenset(i for i, g in enumerate(gen_images) if g in p) for p in S.points
    )
    if len(set(supports)) != len(S.points):
        raise IntegrityError("generator supports do not separate the primes")
    return L, gen_images, S, supports


def render_support(P: Presentation, gens) -> str:
    """A prime of a presented monoid as the ideal its generators generate."""
    return "(" + ", ".join(P.generators[i] for i in sorted(gens)) + ")"


def spectrum_monoid(S: Spectrum) -> FiniteMonoid:
    """The union monoid of a spectrum, points named by canonical member lists."""
    names = tuple(render_set(S.owner, p) for p in S.points)
    return FiniteMonoid(S.union_table, names)


def induced_spec_map(f: MonoidMap, S2: Spectrum) -> tuple[frozenset[int], ...]:
    """Preimages of the points of Spec(target) along f, aligned with S2.points."""
    return tuple(
        frozenset(x for x in f.source.elements() if f.images[x] in q) for q in S2.points
    )


def naturality_square(f: MonotoneMap) -> bool:
    """Check alpha after the right adjoint equals preimage after alpha."""
    if not is_join_morphism(f):
        raise ValidationError("map does not preserve joins and the least element")
    g = right_adjoint(f)
    L, Lp = f.source, f.target
    for y in Lp.elements():
        lhs = alpha(L, g.images[y])
        rhs = frozenset(x for x in L.elements() if f.images[x] in alpha(Lp, y))
        if lhs != rhs:
            return False
    return True


def _hom_monoid(homs: list[MonoidMap]) -> tuple[FiniteMonoid, dict[tuple[int, ...], int]]:
    """The pointwise-product monoid on a complete hom set into the 2-element monoid."""
    index = {h.images: i for i, h in enumerate(homs)}
    table = []
    for h in homs:
        row = []
        for g in homs:
            prod = tuple(a | b for a, b in zip(h.images, g.images))
            if prod not in index:
                raise IntegrityError("hom set is not closed under pointwise product")
            row.append(index[prod])
        table.append(tuple(row))
    names = tuple("f" + "".join(str(v) for v in h.images) for h in homs)
    M = FiniteMonoid(tuple(table), names)
    if table and homs[0].images != tuple([0] * len(homs[0].images)):
        raise IntegrityError("constant-unit hom missing from hom set")
    return M, index


def ev_check(M: FiniteMonoid) -> bool:
    """Double-dual check for idempotent monoids: ev is a monoid isomorphism."""
    enforce_cap("size", M.size)
    homs1 = monoid_homs(M, sierpinski())
    H1, _ = _hom_monoid(homs1)
    homs2 = monoid_homs(H1, sierpinski())
    H2, index2 = _hom_monoid(homs2)
    ev_images = []
    for m in M.elements():
        vec = tuple(h.images[m] for h in homs1)
        if vec not in index2:
            return False
        ev_images.append(index2[vec])
    if len(set(ev_images)) != M.size or M.size != len(homs2):
        return False
    return is_hom(MonoidMap(M, H2, tuple(ev_images)))


def spec_spec_check(L: JoinSemilattice) -> bool:
    """The double application of alpha is a semilattice isomorphism."""
    S = primes_bruteforce(L.monoid)
    SM = spectrum_monoid(S)
    LS = from_monoid(SM)
    SS = primes_bruteforce(SM)
    point1 = {p: i for i, p in enumerate(S.points)}
    point2 = {p: i for i, p in enumerate(SS.points)}

    composite = []
    for a in L.elements():
        i1 = point1[alpha(L, a)]
        p2 = alpha(LS, i1)
        if p2 not in point2:
            return False
        composite.append(point2[p2])
    if len(set(composite)) != len(SS.points):
        return False
    # monoid (= join) structure must be preserved
    for a in L.elements():
        for b in L.elements():
            lhs = composite[L.join(a, b)]
            rhs = SS.union_table[composite[a]][composite[b]]
            if lhs != rhs:
                return False
    return True


def spec_cubed_check(M: FiniteMonoid) -> bool:
    """|Spec^3(M)| = |Spec(M)| with the natural bijection, via the union monoid."""
    S = spec_monoid(M)
    return spec_spec_check(from_monoid(spectrum_monoid(S)))


def power_submonoid_check(A: FiniteMonoid, B) -> bool:
    """Restriction of primes is a bijection Spec(A) -> Spec(B).

    Requires B to be a submonoid with some power of every element of A inside
    it; a failing hypothesis raises HypothesisError and refutes nothing.
    """
    B = frozenset(B)
    if not is_submonoid(A, B):
        raise HypothesisError("B is not a submonoid of A")
    for a in A.elements():
        acc = a
        for _ in range(A.size):
            if acc in B:
                break
            acc = A.table[acc][a]
        else:
            raise HypothesisError(f"no power of element {a} lies in B")
    Bmon, local = submonoid_as_monoid(A, B)
    spec_a = primes_bruteforce(A)
    spec_b = primes_bruteforce(Bmon)
    restricted = [frozenset(local[x] for x in p if x in B) for p in spec_a.points]
    if len(set(restricted)) != len(spec_a.points):
        return False
    return sorted(restricted, key=canonical_key) == list(spec_b.points)


def greatest_prime(M: FiniteMonoid) -> frozenset[int]:
    """The noninvertible elements: the absorbing point of the union monoid."""
    return frozenset(M.elements()) - units(M)
