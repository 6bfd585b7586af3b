"""Join semilattices: derived order, meets, adjoints, and the finite duality.

A join semilattice here is an idempotent commutative monoid together with the
order x <= y iff x*y = y; the monoid identity is the least element and x*y is
the least upper bound.  By finiteness every such semilattice is a lattice.
"""

from __future__ import annotations

from functools import reduce
from typing import NamedTuple

from .core import FiniteMonoid, is_idempotent, memoized
from .errors import IntegrityError, ValidationError


class JoinSemilattice(NamedTuple):
    monoid: FiniteMonoid
    leq: tuple[tuple[bool, ...], ...]

    @property
    def size(self) -> int:
        return self.monoid.size

    @property
    def names(self):
        return self.monoid.names

    def le(self, a: int, b: int) -> bool:
        return self.leq[a][b]

    def join(self, a: int, b: int) -> int:
        return self.monoid.table[a][b]

    def elements(self):
        return range(self.monoid.size)


class MonotoneMap(NamedTuple):
    """An order-preserving map between join semilattices."""

    source: JoinSemilattice
    target: JoinSemilattice
    images: tuple[int, ...]


def from_monoid(M: FiniteMonoid) -> JoinSemilattice:
    """Wrap an idempotent monoid with its derived partial order."""
    if not is_idempotent(M):
        bad = next(i for i in M.elements() if M.table[i][i] != i)
        raise ValidationError(f"not idempotent: element {bad} has {bad}*{bad} = {M.table[bad][bad]}")
    table = M.table
    leq = tuple(tuple(table[x][y] == y for y in M.elements()) for x in M.elements())
    # reflexivity, antisymmetry and transitivity follow from the monoid laws
    return JoinSemilattice(M, leq)


def top(L: JoinSemilattice) -> int:
    """The greatest element: the join of everything."""
    return reduce(L.join, L.elements(), 0)


def meet(L: JoinSemilattice, a: int, b: int) -> int:
    """Greatest lower bound: the top of {x | x <= a and x <= b}.

    The bound set contains the least element and is join-closed, so its join
    stays inside it and is its maximum.
    """
    m = 0
    for x in L.elements():
        if L.leq[x][a] and L.leq[x][b]:
            m = L.join(m, x)
    return m


@memoized
def meet_table(L: JoinSemilattice) -> tuple[tuple[int, ...], ...]:
    """All binary meets: row a, column b holds the meet of a and b.

    With down[a] the downset of a as a bitmask, down[a] & down[b] is the set
    of common lower bounds, which in a lattice is the downset of the meet; so
    each meet is a lookup instead of the O(n) scan of `meet`.
    """
    down = [sum(1 << x for x, row in enumerate(L.leq) if row[a]) for a in range(L.size)]
    element = {d: a for a, d in enumerate(down)}
    try:
        return tuple(tuple([element[da & db] for db in down]) for da in down)
    except KeyError:
        raise IntegrityError("a set of common lower bounds is not a downset: not a lattice") from None


def monotone_map(source: JoinSemilattice, target: JoinSemilattice, images) -> MonotoneMap:
    images = tuple(images)
    if len(images) != source.size:
        raise ValidationError(f"{len(images)} images for {source.size} elements")
    for v in images:
        if not 0 <= v < target.size:
            raise ValidationError(f"image {v} out of range")
    for x in source.elements():
        for y in source.elements():
            if source.leq[x][y] and not target.leq[images[x]][images[y]]:
                raise ValidationError(f"not monotone: {x} <= {y} but images {images[x]} !<= {images[y]}")
    return MonotoneMap(source, target, images)


def is_join_morphism(f: MonotoneMap) -> bool:
    """Preserves the least element and binary joins."""
    if f.images[0] != 0:
        return False
    src, tgt, im = f.source.monoid.table, f.target.monoid.table, f.images
    return all(
        im[src[a][b]] == tgt[im[a]][im[b]]
        for a in range(len(src))
        for b in range(len(src))
    )


def is_meet_morphism(f: MonotoneMap) -> bool:
    """Preserves the top and binary meets."""
    if f.images[top(f.source)] != top(f.target):
        return False
    im = f.images
    src_meet, tgt_meet = meet_table(f.source), meet_table(f.target)
    return all(
        im[m] == tgt_meet[im[a]][im[b]]
        for a, row in enumerate(src_meet)
        for b, m in enumerate(row)
    )


def right_adjoint(f: MonotoneMap) -> MonotoneMap:
    """The map y -> Max{x | f(x) <= y}, characterized by f(x) <= y iff x <= g(y).

    f is checked to preserve joins and the least element, which guarantees
    every Max exists.
    """
    if not is_join_morphism(f):
        raise ValidationError("map does not preserve joins and the least element")
    src, tgt = f.source, f.target
    images = []
    for y in tgt.elements():
        cand = [x for x in src.elements() if tgt.leq[f.images[x]][y]]
        if not cand:
            raise ValidationError(f"no greatest element: nothing maps below target element {y}")
        g = reduce(src.join, cand)
        if not tgt.leq[f.images[g]][y]:
            raise ValidationError(f"no greatest element in the bound set for target element {y}")
        images.append(g)
    return monotone_map(tgt, src, images)


def left_adjoint(g: MonotoneMap) -> MonotoneMap:
    """The map y -> Min{x | y <= g(x)}, characterized by h(y) <= x iff y <= g(x)."""
    if not is_meet_morphism(g):
        raise ValidationError("map does not preserve meets and the top")
    src, tgt = g.source, g.target
    src_meet = meet_table(src)
    images = []
    for y in tgt.elements():
        cand = [x for x in src.elements() if tgt.leq[y][g.images[x]]]
        if not cand:
            raise ValidationError(f"no least element: nothing maps above target element {y}")
        m = reduce(lambda a, b: src_meet[a][b], cand)
        if not tgt.leq[y][g.images[m]]:
            raise ValidationError(f"no least element in the bound set for target element {y}")
        images.append(m)
    return monotone_map(tgt, src, images)


def check_adjunction(f: MonotoneMap, g: MonotoneMap) -> bool:
    """Exhaustively check f(x) <= y iff x <= g(y) over all pairs.

    Here f : X -> Y and g : Y -> X, i.e. f is the left and g the right adjoint.
    """
    if f.source is not g.target and f.source != g.target:
        raise ValidationError("adjunction endpoints do not match")
    if f.target is not g.source and f.target != g.source:
        raise ValidationError("adjunction endpoints do not match")
    X, Y = f.source, f.target
    return all(
        Y.leq[f.images[x]][y] == X.leq[x][g.images[y]]
        for x in X.elements()
        for y in Y.elements()
    )


def compose_monotone(f: MonotoneMap, g: MonotoneMap) -> MonotoneMap:
    """g after f."""
    if f.target is not g.source and f.target != g.source:
        raise ValidationError("composition endpoints do not match")
    return MonotoneMap(f.source, g.target, tuple(g.images[x] for x in f.images))


def cover_pairs(L: JoinSemilattice) -> list[tuple[int, int]]:
    """The Hasse covers: (a, b) with a < b and nothing strictly between."""
    covers = []
    for a in L.elements():
        for b in L.elements():
            if a == b or not L.leq[a][b]:
                continue
            if any(c != a and c != b and L.leq[a][c] and L.leq[c][b] for c in L.elements()):
                continue
            covers.append((a, b))
    return covers
