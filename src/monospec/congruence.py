"""Monoid congruences, quotients, and the idempotent reflection.

The reflection is computed two independent ways: as the congruence closure of
{(x, x*x)} and, for cross-checking, through the power-divisibility relation
(a related to b iff some power of a lies in (b) and vice versa).
"""

from __future__ import annotations

from typing import NamedTuple

from .core import FiniteMonoid, MonoidMap, memoized
from .errors import IntegrityError, ValidationError
from .semilattice import JoinSemilattice, from_monoid


class Congruence(NamedTuple):
    """A multiplication-compatible partition; classes sorted by least member."""

    owner: FiniteMonoid
    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]


def _congruence_from_class_of(M: FiniteMonoid, class_of) -> Congruence:
    buckets: dict[int, list[int]] = {}
    for x in M.elements():
        buckets.setdefault(class_of[x], []).append(x)
    classes = tuple(sorted((tuple(sorted(v)) for v in buckets.values()), key=lambda c: c[0]))
    index = {}
    for i, cls in enumerate(classes):
        for x in cls:
            index[x] = i
    cong = Congruence(M, classes, tuple(index[x] for x in M.elements()))
    _check_compatible(cong)
    return cong


def _check_compatible(C: Congruence) -> None:
    M, class_of = C.owner, C.class_of
    table = M.table
    for cls in C.classes:
        a = cls[0]
        for b in cls[1:]:
            for c in M.elements():
                if class_of[table[a][c]] != class_of[table[b][c]]:
                    raise IntegrityError(
                        f"partition is not a congruence: {a} ~ {b} but "
                        f"{a}*{c} and {b}*{c} fall in different classes"
                    )


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True


def congruence_closure(M: FiniteMonoid, pairs) -> Congruence:
    """Least congruence containing the given pairs.

    Union-find with a worklist: merging (a, b) enqueues (a*c, b*c) for every c.
    """
    uf = _UnionFind(M.size)
    table = M.table
    work = [(a, b) for a, b in pairs]
    while work:
        a, b = work.pop()
        ra, rb = uf.find(a), uf.find(b)
        if ra == rb:
            continue
        uf.union(ra, rb)
        work.extend(zip(table[ra], table[rb]))  # (ra*c, rb*c) for every c
    return _congruence_from_class_of(M, [uf.find(x) for x in M.elements()])


def quotient(M: FiniteMonoid, C: Congruence) -> tuple[FiniteMonoid, MonoidMap]:
    """The quotient monoid on class representatives plus the projection map.

    The identity's class is first (representatives are sorted), so the quotient
    needs no relabeling.
    """
    if C.owner is not M and C.owner != M:
        raise ValidationError("congruence belongs to a different monoid")
    reps = [cls[0] for cls in C.classes]
    class_of, mt = C.class_of, M.table
    table = tuple(
        tuple(class_of[mt[a][b]] for b in reps) for a in reps
    )
    if len(reps) == M.size:
        names = M.names
    else:
        names = tuple(f"[{M.names[r]}]" for r in reps)
    Q = FiniteMonoid(table, names)
    return Q, MonoidMap(M, Q, C.class_of)


@memoized
def sl_reflection(M: FiniteMonoid) -> tuple[JoinSemilattice, MonoidMap]:
    """The universal idempotent quotient, as a join semilattice, with q."""
    C = congruence_closure(M, [(x, M.table[x][x]) for x in M.elements()])
    Q, q = quotient(M, C)
    return from_monoid(Q), q


def grillet_relation(M: FiniteMonoid) -> Congruence:
    """The reflection congruence by power-divisibility.

    a ~ b iff there are m, n >= 1 and u, v with a^m = u*b and b^n = v*a;
    powers are searched up to M.size (the pigeonhole bound for one element).
    """
    n = M.size
    ideal = [frozenset(M.table[b]) for b in M.elements()]  # (b) = bM
    powers = []
    for a in M.elements():
        ps = set()
        acc = a
        for _ in range(n):
            ps.add(acc)
            acc = M.table[acc][a]
        powers.append(ps)

    def related(a: int, b: int) -> bool:
        return any(p in ideal[b] for p in powers[a]) and any(p in ideal[a] for p in powers[b])

    uf = _UnionFind(n)
    for a in M.elements():
        for b in range(a + 1, n):
            if related(a, b):
                uf.union(a, b)
    return _congruence_from_class_of(M, [uf.find(x) for x in M.elements()])
