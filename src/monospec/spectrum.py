"""Prime ideals and spectra, computed by three independent routes.

A prime ideal is a proper subset that absorbs multiplication and whose
complement is a submonoid.  The three routes are: direct subset enumeration,
homomorphisms into the two-element monoid (`monoid_homs(M, sierpinski())`,
read off by `theta` as kernels of the absorbing fiber), and the
downset-complement bijection on the idempotent reflection.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from typing import TYPE_CHECKING, NamedTuple

from .congruence import sl_reflection
from .core import (
    SUBSET_CAP,
    FiniteMonoid,
    MonoidMap,
    enforce_cap,
    is_hom,
    lanes,
    members,
    memoized,
    monoid_homs,
    render_set,
    sierpinski,
    units,
)
from .errors import IntegrityError, ValidationError
from .semilattice import JoinSemilattice

if TYPE_CHECKING:  # a `.pres` input loads it, not this module
    from .presentation import Presentation


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
    """Canonicalize a complete set of primes of M and tabulate the union monoid."""
    return Spectrum(M, *_tabulate(points))


def _tabulate(points) -> tuple[tuple[frozenset[int], ...], tuple[tuple[int, ...], ...]]:
    """A spectrum's canonical points and union table, from a complete set of primes.

    Each point is also a bitmask of its members, so a union is one int OR
    and one dict lookup.
    """
    pts = sorted(set(frozenset(p) for p in points), key=canonical_key)
    masks = [sum(1 << x for x in p) for p in pts]
    index = {m: i for i, m in enumerate(masks)}
    table = []
    for p, m in zip(pts, masks):
        row = tuple(map(index.get, [m | q for q in masks]))
        if None in row:
            q = pts[row.index(None)]
            raise IntegrityError(f"union of primes {sorted(p)} and {sorted(q)} is not a prime point")
        table.append(row)
    if not pts or pts[0] != frozenset():
        raise IntegrityError("the empty prime is missing")
    return tuple(pts), tuple(table)


def primes_bruteforce(M: FiniteMonoid, cap: int = SUBSET_CAP) -> Spectrum:
    """The spectrum of M by the subset scan, which reads M's table alone."""
    return Spectrum(M, *_brute_primes(M.table, cap))


#: The most elements a level of the brute scan puts on lanes, `lanes(W)`: W
#: lanes of 2^W bits; it fixes the others per window, listed a level down.
W = 15


@memoized
def _brute_primes(table, cap: int):
    """The subsets `_scan` keeps of the non-identity elements, tabulated.

    Past W elements they are ordered by how often they occur as products,
    sinks first, so the scan fixes the sinks per window and the instances
    that hang on them prune the windows early: the null monoid's zero leaves
    two.  D[a] names the ideal aM (equal ideals, equal names).
    """
    n = len(table)
    # each level of the scan holds at most 2n lanes of 2^W bits, n * 2^(W - 2)
    # bytes: 256 KB at 32 elements, where the last of three levels has 2 bits
    enforce_cap("size", n, min(cap, 32))
    order = list(range(1, n))
    if n - 1 > W:
        hits = Counter(v for row in table for v in row)
        order.sort(key=lambda x: (-hits[x], x))
    rows = [frozenset(row) for row in table]
    ideals = {}
    D = [ideals.setdefault(row, len(ideals)) for row in rows]
    return _tabulate(_scan(table, rows, D, order, n))


def _scan(table, rows, D, elements, limit=None):
    """The subsets of elements that break neither prime law among elements
    and the identity, lazily.

    `bad` collects the subsets that break the ideal law (a in, a multiple of
    a out), one AND per element a against the OR of the complements of its
    multiples, or the submonoid law on the complement (a and b out, a*b in).
    That law is tested only on pairs whose product p generates a smaller
    ideal than both: if D[p] == D[a], a lies in pM, so a subset that holds p
    and passes the ideal law holds a too.  That skips p in {a, b} and every
    pair that holds a unit.

    The last W elements are low, low element i on lane i of `lanes`; a window
    fixes each other (high) element in or out, so each law instance stays one
    lane expression over the subsets of the low elements.  The windows are
    what this scan keeps of the high elements alone (one empty window up to
    W elements): an inner scan sees only its own elements' multiples, and a
    product outside them is on no lane.  At the top level the running count
    of kept subsets is checked against `limit`, the table's size, after each
    window and before any of its subsets is yielded.
    """
    if not elements:
        yield []
        return
    high, low = elements[:-W], elements[-W:]
    if limit is None:
        known = {0, *elements}
        rows = [row & known for row in rows]
    full = (1 << (1 << len(low))) - 1
    P = [0] * len(table)  # no subset holds the identity
    for x, lane in zip(low, lanes(len(low))):
        P[x] = lane
    kept = 0
    for window in _scan(table, rows, D, high):
        for x in high:
            P[x] = full if x in window else 0
        NP = [full ^ lane for lane in P]
        bad = 0
        for a in elements:
            out = 0
            for v in rows[a]:  # a itself included: P[a] & NP[a] is empty
                out |= NP[v]
            bad |= P[a] & out
        for i, a in enumerate(elements):
            for b in elements[i:]:
                p = table[a][b]
                if D[p] != D[a] and D[p] != D[b]:
                    bad |= P[p] & NP[a] & NP[b]
        # one prime per element of the reflection: a faulty scan stops here,
        # before it yields any of up to 2^(n-1) subsets
        kept += (full ^ bad).bit_count()
        if limit is not None and kept > limit:
            raise IntegrityError(f"the subset scan kept {kept} subsets of {limit} elements, "
                                 f"more than {limit} primes")
        for h in members(full ^ bad):
            yield [*window, *map(low.__getitem__, members(h))]


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
    t = L.monoid.table  # read inline: L.le calls here and in limits cost `limits` 9 % of wall_s
    return frozenset(x for x, row in enumerate(t) if row[a] != a)


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

    The hom route sorts its kernels here instead of tabulating them with
    `_tabulate`, which the brute and alpha routes share: a fault there then
    reaches two routes, never all three, so the comparison still catches it.
    """
    if via == "brute":
        return primes_bruteforce(M, cap).points
    if via == "alpha":
        return spec_monoid(M, cap).points
    enforce_cap("size", M.size, cap)
    return tuple(sorted(map(theta, monoid_homs(M, sierpinski())), key=canonical_key))


def generator_supports(gen_images, points) -> tuple[frozenset[int], ...]:
    """Each prime of a presented monoid's reflection as the set of generator
    indices whose images it contains; raises IntegrityError unless these
    sets tell the primes apart."""
    supports = tuple(frozenset(i for i, g in enumerate(gen_images) if g in p) for p in points)
    if len(set(supports)) != len(supports):
        raise IntegrityError("generator supports do not separate the primes")
    return supports


def render_support(P: Presentation, gens) -> str:
    """A prime of a presented monoid as the ideal its generators generate."""
    return "(" + ", ".join(P.generators[i] for i in sorted(gens)) + ")"


def spectrum_monoid(S: Spectrum) -> FiniteMonoid:
    """The union monoid of a spectrum, points named by canonical member lists."""
    names = tuple(render_set(S.owner, p) for p in S.points)
    return FiniteMonoid(S.union_table, names)


def greatest_prime(M: FiniteMonoid) -> frozenset[int]:
    """The noninvertible elements: the absorbing point of the union monoid."""
    return frozenset(M.elements()) - units(M)
