"""Join semilattices: derived order, meets, adjoints, and the finite duality.

A join semilattice here is an idempotent commutative monoid, and its table is
its order too: x <= y iff x*y = y, read off the table and stored nowhere else.
The identity is the least element, x*y the least upper bound, and by
finiteness every such semilattice is a lattice.
"""

from __future__ import annotations

from functools import reduce
from typing import NamedTuple

from .core import FiniteMonoid, MonoidMap, is_hom, is_idempotent, memoized
from .errors import IntegrityError, ValidationError


class JoinSemilattice(NamedTuple):
    monoid: FiniteMonoid

    @property
    def size(self) -> int:
        return self.monoid.size

    @property
    def names(self):
        return self.monoid.names

    def le(self, a: int, b: int) -> bool:
        return self.monoid.table[a][b] == b

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
    """Wrap an idempotent monoid; its order is read off the table, so no matrix is built."""
    if not is_idempotent(M):
        bad = next(i for i in M.elements() if M.table[i][i] != i)
        b = M.names[bad]
        raise ValidationError(f"not idempotent: element {b} has {b}*{b} = {M.names[M.table[bad][bad]]}")
    return JoinSemilattice(M)


def top(L: JoinSemilattice) -> int:
    """The greatest element: the join of everything."""
    return reduce(L.join, L.elements(), 0)


@memoized
def meet_table(L: JoinSemilattice) -> tuple[tuple[int, ...], ...]:
    """All binary meets: row a, column b holds the meet of a and b.

    With down[a] the downset of a as a bitmask, down[a] & down[b] is the set
    of common lower bounds, which in a lattice is the downset of the meet; so
    each meet is a lookup instead of an O(n) scan for the top of the common
    lower bounds.
    """
    t = L.monoid.table  # read inline, as in spectrum.alpha: L.le calls cost `limits` 9 %
    down = [sum(1 << x for x, row in enumerate(t) if row[a] == a) for a in range(L.size)]
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
            if source.le(x, y) and not target.le(images[x], images[y]):
                s, t = source.names, [target.names[v] for v in images]
                raise ValidationError(f"not monotone: {s[x]} <= {s[y]} but images {t[x]} !<= {t[y]}")
    return MonotoneMap(source, target, images)


def is_join_morphism(f: MonotoneMap) -> bool:
    """Preserves the least element and binary joins: a hom of the underlying monoids."""
    return is_hom(MonoidMap(f.source.monoid, f.target.monoid, f.images))


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


def _adjoint(f: MonotoneMap, related, combine) -> MonotoneMap:
    """The map y -> combine of {x | related(f(x), y)}, from f's target to its source."""
    src, tgt, im = f.source, f.target, f.images
    images = tuple(reduce(combine, [x for x in src.elements() if related(im[x], y)])
                   for y in tgt.elements())
    return MonotoneMap(tgt, src, images)


@memoized
def right_adjoint(f: MonotoneMap) -> MonotoneMap:
    """The map y -> Max{x | f(x) <= y}, characterized by f(x) <= y iff x <= g(y).

    f is checked to preserve joins and the least element, which guarantees
    every Max exists: f(0) = 0 <= y, so the set is nonempty, and f of its
    join is the join of its images, again below y.
    """
    if not is_join_morphism(f):
        raise ValidationError("map does not preserve joins and the least element")
    t = f.target.monoid.table  # read inline, as in spectrum.alpha: L.le calls cost `limits` 9 %
    return _adjoint(f, lambda fx, y: t[fx][y] == y, f.source.join)


def left_adjoint(g: MonotoneMap) -> MonotoneMap:
    """The map y -> Min{x | y <= g(x)}, characterized by h(y) <= x iff y <= g(x).

    g is checked to preserve meets and the top, which guarantees every Min
    exists, dually to `right_adjoint`.
    """
    if not is_meet_morphism(g):
        raise ValidationError("map does not preserve meets and the top")
    t, meets = g.target.monoid.table, meet_table(g.source)  # order read inline, as in right_adjoint
    return _adjoint(g, lambda gx, y: t[y][gx] == gx, lambda a, b: meets[a][b])


def check_adjunction(f: MonotoneMap, g: MonotoneMap) -> bool:
    """Exhaustively check f(x) <= y iff x <= g(y) over all pairs.

    Here f : X -> Y and g : Y -> X, i.e. f is the left and g the right adjoint.
    """
    if f.source != g.target or f.target != g.source:
        raise ValidationError("adjunction endpoints do not match")
    X, Y = f.source, f.target
    return all(
        Y.le(f.images[x], y) == X.le(x, g.images[y])
        for x in X.elements()
        for y in Y.elements()
    )


def compose_monotone(f: MonotoneMap, g: MonotoneMap) -> MonotoneMap:
    """g after f."""
    if f.target != g.source:
        raise ValidationError("composition endpoints do not match")
    return MonotoneMap(f.source, g.target, tuple(g.images[x] for x in f.images))

