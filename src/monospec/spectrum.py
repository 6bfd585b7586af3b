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


#: The brute scan's low elements: at most W non-identity elements take a lane
#: of `lanes(W)` each, 2^W bits, and the others are fixed per window.
W = 15


@memoized
def _brute_primes(table, cap: int):
    """Scan all subsets (identity excluded up front) for the prime laws; `_tabulate` them.

    The subsets that break the ideal law (a in, some multiple of a out) or
    the submonoid law on the complement (a and b out, a*b in) are ORed into
    `bad`, and the rest are the primes.  The ideal law is one AND per element
    a, against the OR of the complements of its multiples.  With D[a] naming
    the ideal aM (equal ideals, equal names), the complement law is tested
    only on pairs a <= b whose product p generates a smaller ideal than both:
    if D[p] == D[a], then a lies in pM, so every subset that holds p and
    passes the ideal law holds a too, and the instance cannot fire.  That
    skips p in {a, b} and every pair that holds a unit.

    The scan runs in windows.  The non-identity elements are ordered by how
    often they occur as products, sinks first; the last W of them are low,
    low element i on lane i of `lanes`, and the others are high.  A window
    fixes every high element in or out, so its lanes are all ones or all
    zeros and each law instance stays one lane expression over the subsets
    of the low elements.  `_windows` lists the windows that break no instance
    among the high elements alone.  Up to W + 1 elements there are no high
    elements and one window.  The running count of kept subsets is checked
    after each window, so a faulty scan stops before it builds any point.
    """
    n = len(table)
    # 2n lanes of at most 2^W bits take n * 2^(W - 2) bytes: 256 KB at 32 elements
    enforce_cap("size", n, min(cap, 32))
    split = max(0, n - 1 - W)
    if split:
        hits = Counter(v for row in table for v in row)
        order = sorted(range(1, n), key=lambda x: (-hits[x], x))
    else:
        order = range(1, n)
    high, low = order[:split], order[split:]
    rows = [frozenset(row) for row in table]
    ideals = {}
    D = [ideals.setdefault(row, len(ideals)) for row in rows]
    full = (1 << (1 << len(low))) - 1
    P = [0] * n  # no subset holds the identity
    for x, lane in zip(low, lanes(len(low))):
        P[x] = lane
    kept, found = 0, []
    for window in _windows(table, high) if high else (0,):
        for x in high:
            P[x] = full if window >> x & 1 else 0
        NP = [full ^ lane for lane in P]
        bad = 0
        for a in range(1, n):
            out = 0
            for v in rows[a]:  # a itself included: P[a] & NP[a] is empty
                out |= NP[v]
            bad |= P[a] & out
        for a in range(1, n):
            for b in range(a, n):
                p = table[a][b]
                if D[p] != D[a] and D[p] != D[b]:
                    bad |= NP[a] & NP[b] & P[p]
        # one prime per element of the reflection, so at most n: a faulty scan
        # stops here, before it builds a point for any of up to 2^(n-1) subsets
        kept += (full ^ bad).bit_count()
        if kept > n:
            raise IntegrityError(f"the subset scan kept {kept} subsets of {n} elements, more than {n} primes")
        found.append(([*members(window)], full ^ bad))
    points = [frozenset([*fixed, *map(low.__getitem__, members(h))])
              for fixed, survivors in found for h in members(survivors)]
    return _tabulate(points)


def _windows(table, high):
    """The windows of the brute scan, each as the mask of the high elements it puts in.

    The high elements are assigned depth first, out before in.  An instance
    of either law among the high elements and the identity is tested as soon
    as its last element is set, and an assignment that breaks one is dropped
    with all its extensions: no subset in their windows is a prime.  Sinks
    come first, so the instances that hang on them prune early; the null
    monoid's zero, assigned first, leaves two windows.
    """
    rank = {x: i for i, x in enumerate(high)}
    rank[0] = -1  # the identity, in no subset
    # (need, forbid): the instance fires when the high elements in need are
    # all in and those in forbid all out
    tests = [[] for _ in high]
    for a in high:
        for v in set(table[a]):  # the ideal law: a in, its multiple v out
            if v in rank:
                tests[max(rank[a], rank[v])].append((1 << a, 1 << v))
        for b in high:  # the complement law: a and b out, a*b in
            p = table[a][b]
            if p in rank:
                tests[max(rank[a], rank[b], rank[p])].append((1 << p, 1 << a | 1 << b))
    stack = [(0, 0)]
    while stack:
        i, window = stack.pop()
        if i == len(high):
            yield window
            continue
        for w in (window | 1 << high[i], window):  # popped out first
            if all(w & need != need or w & forbid for need, forbid in tests[i]):
                stack.append((i + 1, w))


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
