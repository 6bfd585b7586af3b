"""Prime ideals and spectra, computed by three independent routes.

A prime ideal is a proper subset that absorbs multiplication and whose
complement is a submonoid.  The three routes are: direct subset enumeration,
homomorphisms into the two-element monoid (`monoid_homs(M, sierpinski())`,
read off by `theta` as kernels of the absorbing fiber), and the
downset-complement bijection on the idempotent reflection.
"""

from __future__ import annotations

from functools import reduce
from typing import NamedTuple

from .congruence import sl_reflection
from .core import (
    SUBSET_CAP,
    FiniteMonoid,
    MonoidMap,
    enforce_cap,
    is_hom,
    is_submonoid,
    memoized,
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


#: The spectrum routes `spec --via` accepts, in output order.
ROUTES = ("brute", "hom", "alpha")


def canonical_key(members: frozenset[int]):
    return (len(members), tuple(sorted(members)))


class Spectrum(NamedTuple):
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


@memoized
def primes_bruteforce(M: FiniteMonoid, cap: int = SUBSET_CAP) -> Spectrum:
    """Scan all subsets (identity excluded up front) for the prime laws.

    The scan is bit-sliced: the identity-free mask 2h is bit h of a
    2^(n-1)-bit lane, and lane P[x] has bit h set when mask 2h contains x.
    Each instance of a prime law is one bitwise expression over whole lanes,
    so every mask is tested at once: the masks that break the ideal law
    (a in the mask, a*x not) or the submonoid law on the complement (a and
    b outside, a*b inside) are ORed into `bad`, and the rest are the primes,
    read off the top bit down.
    """
    n = M.size
    # 2n lanes of 2^(n-1) bits take n * 2^(n-3) bytes: 16 GB at 32 elements
    enforce_cap("size", n, min(cap, 32))
    width = 1 << (n - 1)
    full = (1 << width) - 1
    P = [0] * n  # P[0] stays 0: no mask holds the identity
    for x in range(1, n):
        run = 1 << (x - 1)  # runs of 2^(x-1) zeros, then as many ones
        lane, span = ((1 << run) - 1) << run, 2 * run
        while span < width:
            lane |= lane << span
            span *= 2
        P[x] = lane
    NP = [full ^ lane for lane in P]
    table = M.table
    bad = 0
    for a, v in {(a, v) for a in range(1, n) for v in table[a] if v != a}:
        bad |= P[a] & NP[v]
    for a, b, p in {(a, b, table[a][b]) for a in range(1, n) for b in range(a, n) if table[a][b]}:
        bad |= NP[a] & NP[b] & P[p]
    survivors = full ^ bad
    points = []
    while survivors:  # one prime per element of the reflection, so at most n
        h = survivors.bit_length() - 1
        survivors ^= 1 << h
        points.append(frozenset(x for x in range(1, n) if (h >> (x - 1)) & 1))
    return build_spectrum(M, points)


def theta(f: MonoidMap) -> frozenset[int]:
    """The prime f^{-1}(absorbing element)."""
    images = f.images
    return frozenset(x for x in f.source.elements() if images[x] == 1)


def theta_inverse(M: FiniteMonoid, members) -> MonoidMap:
    """The indicator homomorphism of a prime: absorbing on it, unit off it."""
    members = frozenset(members)
    f = MonoidMap(M, sierpinski(), tuple(1 if x in members else 0 for x in M.elements()))
    if not is_hom(f):
        raise ValidationError(f"{render_set(M, members)} is not a prime ideal")
    return f


def alpha(L: JoinSemilattice, a: int) -> frozenset[int]:
    """The prime complementary to the downset of a."""
    leq = L.leq
    return frozenset(x for x in L.elements() if not leq[x][a])


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
    images = q.images
    for a in L.elements():
        pa = alpha(L, a)
        points.append(frozenset(x for x in M.elements() if images[x] in pa))
    return build_spectrum(M, points)


def route_primes(M: FiniteMonoid, via: str, cap: int = SUBSET_CAP) -> tuple[frozenset[int], ...]:
    """The primes of M by the route named `via` (one of ROUTES), canonically ordered.

    The hom route sorts its kernels here instead of calling `build_spectrum`,
    which the brute and alpha routes share: a fault there then reaches two
    routes, never all three, so the comparison still catches it.
    """
    if via == "brute":
        return primes_bruteforce(M, cap).points
    if via == "alpha":
        return spec_monoid(M, cap).points
    enforce_cap("size", M.size, cap)
    return tuple(sorted(map(theta, monoid_homs(M, sierpinski())), key=canonical_key))


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


def ev_check(M: FiniteMonoid) -> bool:
    """Double-dual check for idempotent monoids: ev is a monoid isomorphism.

    Both duals are hom sets into the two-element monoid, read as spectra; ev
    sends m to the prime "evaluate at m" of the first dual, the set of points
    that contain m.
    """
    S1 = build_spectrum(M, route_primes(M, "hom"))
    H1 = spectrum_monoid(S1)
    S2 = build_spectrum(H1, route_primes(H1, "hom"))
    index2 = {p: i for i, p in enumerate(S2.points)}
    ev_images = []
    for m in M.elements():
        ev = frozenset(i for i, p in enumerate(S1.points) if m in p)
        if ev not in index2:
            return False
        ev_images.append(index2[ev])
    if len(set(ev_images)) != M.size or M.size != len(S2.points):
        return False
    return is_hom(MonoidMap(M, spectrum_monoid(S2), tuple(ev_images)))


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
        i1 = point1.get(alpha(L, a))
        if i1 is None:
            return False
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
