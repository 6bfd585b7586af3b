"""Finite topologies on spectra, semilattices, and hom sets.

Open families are stored in full (the spaces are tiny) and kept in the
canonical order: by cardinality, then lexicographic membership.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import SUBSET_CAP, FiniteMonoid, enforce_cap, lanes, members, monoid_homs, sierpinski
from .errors import ValidationError
from .semilattice import JoinSemilattice
from .spectrum import Spectrum, canonical_key


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

    The scan runs over all subsets of L on the lanes of `lanes`: a subset
    that holds x but not some y >= x is not upward closed, so
    `P[x] & ~P[y]` over every such pair marks all of them at once, and the
    unmarked subsets are the opens.
    """
    n = L.size
    # n lanes of 2^n bits take n * 2^(n-3) bytes: 16 GB at 32 elements
    enforce_cap("size", n, min(cap, 32))
    P = lanes(n)
    bad = 0
    for x in range(n):
        for y in range(n):
            if x != y and L.leq[x][y]:
                bad |= P[x] & ~P[y]
    survivors = ((1 << (1 << n)) - 1) ^ bad
    return FiniteTopology(n, _canonical(frozenset(members(m)) for m in members(survivors)))


def product_topology_on_homs(M: FiniteMonoid) -> FiniteTopology:
    """Topology induced on Hom(M, 2) by the product of Sierpinski factors.

    Its points are the homs in the order `monoid_homs(M, sierpinski())`
    lists them.  Subbasic opens fix one source element to the unit value.
    """
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


def format_opens(T: FiniteTopology, names) -> str:
    """One open per line, canonical order, each point by its name."""
    return "".join("{" + ", ".join(names[x] for x in sorted(o)) + "}\n" for o in T.opens)
