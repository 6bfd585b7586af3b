"""Finite topologies on spectra, semilattices, and hom sets.

Open families are stored in full (the spaces are tiny) and kept in the
canonical order: by cardinality, then lexicographic membership.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import SUBSET_CAP, FiniteMonoid, enforce_cap, monoid_homs, sierpinski
from .errors import ValidationError
from .semilattice import JoinSemilattice
from .spectrum import (
    Spectrum,
    alpha,
    canonical_key,
    primes_bruteforce,
    theta,
)


class FiniteTopology(NamedTuple):
    """An open-set family over points 0..size-1, saturated and canonical."""

    size: int
    opens: tuple[frozenset[int], ...]


def _canonical(opens) -> tuple[frozenset[int], ...]:
    return tuple(sorted(set(opens), key=canonical_key))


def topology(size: int, opens) -> FiniteTopology:
    """The topology a family of opens generates on points 0..size-1.

    On a finite space every open is a union of finite intersections of the
    family, so the family is closed under intersection once, with the full
    set as the empty intersection, and then under union, with the empty set
    as the empty union.
    """
    family = set(frozenset(o) for o in opens)
    for o in family:
        for x in o:
            if not 0 <= x < size:
                raise ValidationError(f"open set mentions point {x} outside 0..{size - 1}")
    meets = {frozenset(range(size))}
    for o in family:
        meets |= {o & m for m in meets}
    unions = {frozenset()}
    for m in meets:
        unions |= {m | u for u in unions}
    return FiniteTopology(size, _canonical(unions))


def basis_D(M: FiniteMonoid, S: Spectrum) -> list[frozenset[int]]:
    """The basic opens, one per element: the points avoiding that element."""
    seen = []
    for a in M.elements():
        d = frozenset(i for i, p in enumerate(S.points) if a not in p)
        if d not in seen:
            seen.append(d)
    return seen


def spec_topology(M: FiniteMonoid, S: Spectrum) -> FiniteTopology:
    return topology(len(S.points), basis_D(M, S))


def ideal_opens(L: JoinSemilattice, cap: int = SUBSET_CAP) -> FiniteTopology:
    """Opens are the monoid ideals of L, i.e. the upward-closed subsets.

    The scan is bit-sliced: mask m is bit m of a 2^n-bit lane, and lane
    P[x] has bit m set when m contains x.  A mask that holds x but not some
    y >= x is not upward closed, so `P[x] & ~P[y]` over every such pair
    marks all of them at once; the unmarked masks are the opens, read off
    the top bit down.
    """
    n = L.size
    # n lanes of 2^n bits take n * 2^(n-3) bytes: 16 GB at 32 elements
    enforce_cap("size", n, min(cap, 32))
    width = 1 << n
    full = (1 << width) - 1
    P = []
    for x in range(n):
        run = 1 << x  # runs of 2^x zeros, then as many ones
        lane, span = ((1 << run) - 1) << run, 2 * run
        while span < width:
            lane |= lane << span
            span *= 2
        P.append(lane)
    bad = 0
    for x in range(n):
        for y in range(n):
            if x != y and L.leq[x][y]:
                bad |= P[x] & ~P[y]
    survivors = full ^ bad
    opens = []
    while survivors:
        m = survivors.bit_length() - 1
        survivors ^= 1 << m
        opens.append(frozenset(x for x in range(n) if (m >> x) & 1))
    return FiniteTopology(n, _canonical(opens))


def product_topology_on_homs(M: FiniteMonoid, homs=None) -> FiniteTopology:
    """Topology induced on Hom(M, 2) by the product of Sierpinski factors.

    Subbasic opens fix one source element to the unit value.
    """
    if homs is None:
        homs = monoid_homs(M, sierpinski())
    subbasis = [
        frozenset(j for j, h in enumerate(homs) if h.images[m] == 0) for m in M.elements()
    ]
    return topology(len(homs), subbasis)


def is_homeomorphism(bijection, T1: FiniteTopology, T2: FiniteTopology) -> bool:
    """Check a point bijection carries opens to opens both ways."""
    bijection = list(bijection)
    if T1.size != T2.size or sorted(bijection) != list(range(T1.size)):
        raise ValidationError("not a bijection between the point sets")
    opens2 = set(T2.opens)
    images = set(frozenset(bijection[x] for x in o) for o in T1.opens)
    return images == opens2


def min_neighborhood(T: FiniteTopology, x: int) -> frozenset[int]:
    """Smallest open containing x (exists in any finite space)."""
    out = frozenset(range(T.size))
    for o in T.opens:
        if x in o and len(o) < len(out):
            out = o
    return out


def union_continuous(S: Spectrum, T: FiniteTopology) -> bool:
    """Continuity of the union map Spec x Spec -> Spec for the product topology.

    A subset of the product is open iff it contains the product of minimal
    neighborhoods around each of its points.
    """
    k = len(S.points)
    mins = [min_neighborhood(T, i) for i in range(k)]
    for o in T.opens:
        pre = {(i, j) for i in range(k) for j in range(k) if S.union_table[i][j] in o}
        for i, j in pre:
            for a in mins[i]:
                for b in mins[j]:
                    if (a, b) not in pre:
                        return False
    return True


def theta_homeo_check(M: FiniteMonoid) -> bool:
    """The hom/prime correspondence is a homeomorphism for the two topologies."""
    S = primes_bruteforce(M)
    homs = monoid_homs(M, sierpinski())
    if len(homs) != len(S.points):
        return False
    point_index = {p: i for i, p in enumerate(S.points)}
    bijection = [point_index.get(theta(h)) for h in homs]
    if None in bijection or sorted(bijection) != list(range(len(S.points))):
        return False
    T1 = product_topology_on_homs(M, homs)
    T2 = spec_topology(M, S)
    return is_homeomorphism(bijection, T1, T2)


def alpha_opens_check(L: JoinSemilattice) -> bool:
    """Downset-complement map carries the ideal topology onto the spectral one."""
    S = primes_bruteforce(L.monoid)
    point_index = {p: i for i, p in enumerate(S.points)}
    amap = [point_index.get(alpha(L, a)) for a in L.elements()]
    if None in amap:
        return False
    T_ideal = ideal_opens(L)
    T_spec = spec_topology(L.monoid, S)
    images = set(frozenset(amap[a] for a in o) for o in T_ideal.opens)
    return images == set(T_spec.opens)


def format_opens(T: FiniteTopology, names=None) -> str:
    """One open per line, canonical order."""
    lines = []
    for o in T.opens:
        if names is None:
            lines.append("{" + ", ".join(str(x) for x in sorted(o)) + "}")
        else:
            lines.append("{" + ", ".join(names[x] for x in sorted(o)) + "}")
    return "\n".join(lines) + "\n"
