"""Finite topologies on spectra, semilattices, and hom sets.

A finite space is fixed by each point's least open neighbourhood N(x), the
intersection of the subbasic opens that hold x (Alexandrov, "Diskrete
Räume", 1937): y lies in N(x) exactly when every open that holds x holds y.
So a bijection is a homeomorphism exactly when it carries each N(x) onto
N(image of x), and a map of two variables is continuous for the product
topology exactly when it sends N(p) x N(q) into N of the image of (p, q).
The checks hold each N(x) as one bitmask of points, never an open family.
The `topology` command prints the ideal opens, which `core.closed_sets`
lists, in the canonical order: by cardinality, then lexicographic membership.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import SUBSET_CAP, FiniteMonoid, closed_sets, enforce_cap, members
from .semilattice import JoinSemilattice
from .spectrum import Spectrum, canonical_key


class FiniteTopology(NamedTuple):
    """An open-set family over points 0..size-1, saturated and canonical."""

    size: int
    opens: tuple[frozenset[int], ...]


def least_opens(size: int, subbasis) -> list[int]:
    """N(x) for each point x of the space on 0..size-1 that the subbasic
    opens generate, each open and each N(x) a bitmask of points: the AND of
    the subbasic opens that hold x, all points when none does."""
    N = [(1 << size) - 1] * size
    for o in subbasis:
        for x in members(o):
            N[x] &= o
    return N


def basic_opens(M: FiniteMonoid, S: Spectrum) -> list[int]:
    """D(a) = {p : a not in p} for each element a, a bitmask of S's points."""
    return [sum(1 << i for i, p in enumerate(S.points) if a not in p) for a in M.elements()]


def hom_opens(M: FiniteMonoid, homs) -> list[int]:
    """The subbasic opens of the product topology on homs M -> {1, 0}: for
    each element m, the bitmask of the positions in `homs` of the h with
    h(m) = 1, the unit."""
    return [sum(1 << j for j, h in enumerate(homs) if h.images[m] == 0) for m in M.elements()]


def carries(bijection, N1, N2) -> bool:
    """The point bijection sends each least open N1[x] onto N2[bijection[x]]:
    for a bijection, exactly a homeomorphism."""
    return all(sum(1 << bijection[y] for y in members(n)) == N2[bijection[x]]
               for x, n in enumerate(N1))


def union_continuous(S: Spectrum, N) -> bool:
    """The union map Spec x Spec -> Spec, read from S's union table, is
    continuous for the product topology: it sends N[p] x N[q] into N[p u q]."""
    u = S.union_table
    return all(N[u[p][q]] >> u[a][b] & 1
               for p in range(len(N)) for q in range(len(N))
               for a in members(N[p]) for b in members(N[q]))


def ideal_opens(L: JoinSemilattice, cap: int = SUBSET_CAP) -> FiniteTopology:
    """Opens are the monoid ideals of L, i.e. the upward-closed subsets.

    They are the sets that the closure X -> the union of the principal
    upsets of X's members fixes, so `core.closed_sets` lists them, at most
    n closures per open, and never looks at the other subsets of L.
    """
    n = L.size
    # every open is held at once: M_30, 32 elements, has 2^30 + 2 of them
    enforce_cap("size", n, min(cap, 32))
    up = [sum(1 << y for y in range(n) if L.le(x, y)) for x in range(n)]

    def close(X: int) -> int:
        for x in members(X):
            X |= up[x]
        return X

    opens = (frozenset(members(m)) for m in closed_sets(n, close))
    return FiniteTopology(n, tuple(sorted(opens, key=canonical_key)))


def format_opens(T: FiniteTopology, names) -> str:
    """One open per line, canonical order, each point by its name."""
    return "".join("{" + ", ".join(names[x] for x in sorted(o)) + "}\n" for o in T.opens)
