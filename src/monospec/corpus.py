"""Seeded corpus generation: structured monoid families plus random quotients.

Everything is deterministic for a fixed seed; the verification suites and the
acceptance tests run over these corpora.
"""

from __future__ import annotations

import random
from itertools import islice

from .congruence import congruence_closure, quotient, sl_reflection
from .core import (
    SUBSET_CAP,
    FiniteMonoid,
    direct_product,
    memoized,
    monoid_homs,
    sierpinski,
    submonoid_closure,
    trivial_monoid,
    validate_monoid,
)
from .errors import CapExceeded
from .presentation import Presentation, free_semilattice, sl_of_presentation
from .semilattice import JoinSemilattice, MonotoneMap, from_monoid


@memoized
def cyclic_monoid(index: int, period: int) -> FiniteMonoid:
    """The monogenic monoid with t^(index+period) = t^index."""
    size = index + period
    if size < 1 or period < 1:
        raise ValueError("need index >= 0 and period >= 1 with at least one element")

    def reduce_exp(e: int) -> int:
        if e >= size:
            e = index + (e - index) % period
        return e

    table = [[reduce_exp(a + b) for b in range(size)] for a in range(size)]
    names = ["1"] + [f"t{k}" if k > 1 else "t" for k in range(1, size)]
    return validate_monoid(table, identity=0, names=names)


def cyclic_group(n: int) -> FiniteMonoid:
    return cyclic_monoid(0, n)


@memoized
def chain_semilattice(n: int) -> JoinSemilattice:
    """The n-element chain as a join semilattice (join = max)."""
    table = [[max(a, b) for b in range(n)] for a in range(n)]
    return from_monoid(validate_monoid(table, names=[f"c{k}" for k in range(n)]))


def random_quotient(M: FiniteMonoid, rng: random.Random) -> FiniteMonoid:
    n = M.size
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 2))]
    Q, _ = quotient(M, congruence_closure(M, pairs))
    return Q


def _structured_monoids(max_size: int) -> list[FiniteMonoid]:
    out = [trivial_monoid(), sierpinski()]
    for n in range(2, max_size + 1):
        out.append(cyclic_group(n))
    for index in range(1, 5):
        for period in range(1, 5):
            if index + period <= max_size:
                out.append(cyclic_monoid(index, period))
    for n in range(2, max_size + 1):
        out.append(chain_semilattice(n).monoid)
    for k in range(1, 4):
        if 2 ** k <= max_size:
            out.append(free_semilattice(k).monoid)
    # the first 40 products in pair order; later pairs are never built
    pairs = ((a, b) for a in out for b in out if 1 < a.size * b.size <= max_size)
    out.extend([direct_product(a, b) for a, b in islice(pairs, 40)])
    return [m for m in out if m.size <= max_size]


class _Seeded:
    """An endless seeded sequence, evaluated only as far as it has been read.

    Its items are fixed by the seed, so reading further never changes a
    prefix already handed out; `prefix` hands out a fresh list each time.
    """

    def __init__(self, items):
        self._items, self._read = items, []

    def prefix(self, count: int) -> list:
        self._read.extend(islice(self._items, max(0, count - len(self._read))))
        return self._read[:count]


@memoized
def _monoid_sequence(seed: int, max_size: int) -> _Seeded:
    """The structured monoids, then random quotients of them, for ever."""
    def items():
        rng = random.Random(f"monoids:{seed}")
        base = _structured_monoids(max_size)
        yield from base
        while True:
            M = rng.choice(base)
            yield random_quotient(M, rng)

    return _Seeded(items())


def corpus_monoids(seed: int, count: int = 150, max_size: int = 10) -> list[FiniteMonoid]:
    """The first `count` monoids of the seeded sequence of tables of at most max_size.

    A shorter corpus is a prefix of a longer one; inside a `memo_scope` every
    count for one (seed, max_size) reads the same sequence, built once.
    """
    return _monoid_sequence(seed, max_size).prefix(count)


def corpus_semilattices(seed: int, count: int = 40, max_size: int = 10) -> list[JoinSemilattice]:
    rng = random.Random(f"semilattices:{seed}")
    out = []
    for n in range(1, max_size + 1):
        out.append(chain_semilattice(n))
    for k in range(0, 4):
        if 2 ** k <= max_size:
            out.append(free_semilattice(k))
    for a in range(2, 6):
        for b in range(a, 6):
            if a * b <= max_size:
                out.append(from_monoid(direct_product(chain_semilattice(a).monoid,
                                                      chain_semilattice(b).monoid)))
    for M in corpus_monoids(seed, count=60, max_size=max_size):
        if len(out) >= count:
            break
        L, _ = sl_reflection(M)
        if 3 <= L.size <= max_size:
            out.append(L)
    # quotients of the larger structured ones keep the corpus away from chains
    rich = [L for L in out if L.size >= 4]
    while len(out) < count:
        L = rng.choice(rich)
        out.append(from_monoid(random_quotient(L.monoid, rng)))
    return out[:count]


def corpus_presentations(seed: int, count: int = 60, max_gens: int = 6,
                         max_reflection: int = 12) -> list[Presentation]:
    """Random presentations whose reflections stay within brute-force reach."""
    rng = random.Random(f"presentations:{seed}")
    out = [Presentation(("t",), ())]
    while len(out) < count:
        k = rng.randint(1, max_gens)
        rels = []
        for _ in range(rng.randint(0, k)):
            u = tuple(rng.choice([0, 0, 1, 2]) for _ in range(k))
            v = tuple(rng.choice([0, 0, 1, 3]) for _ in range(k))
            rels.append((u, v))
        P = Presentation(tuple(f"g{i + 1}" for i in range(k)), tuple(rels))
        try:
            # the cap `spec_presentation` passes, so a run's memo serves both
            L, _ = sl_of_presentation(P, SUBSET_CAP)
        except CapExceeded:
            continue
        if L.size <= max_reflection:
            out.append(P)
    return out


def corpus_join_morphisms(seed: int, count: int = 120, max_size: int = 6) -> list[MonotoneMap]:
    """Join-morphisms sampled as monoid homs between corpus semilattices."""
    rng = random.Random(f"morphisms:{seed}")
    lattices = [L for L in corpus_semilattices(seed, count=30, max_size=max_size)
                if 2 <= L.size <= max_size]
    out = []
    attempts = 0
    while len(out) < count and attempts < count * 20:
        attempts += 1
        src = rng.choice(lattices)
        tgt = rng.choice(lattices)
        homs = monoid_homs(src.monoid, tgt.monoid, limit=128)
        if homs:
            h = rng.choice(homs)
            out.append(MonotoneMap(src, tgt, h.images))
    return out


def corpus_submonoid_chains(seed: int, count: int = 60, max_size: int = 8):
    """(ambient, increasing submonoid chain) pairs."""
    rng = random.Random(f"chains:{seed}")
    monoids = [M for M in corpus_monoids(seed, count=80, max_size=max_size)
               if M.size <= max_size]
    out = []
    while len(out) < count:
        M = rng.choice(monoids)
        stages = []
        current = submonoid_closure(M, ())
        stages.append(current)
        for _ in range(rng.randint(1, 3)):
            extra = rng.randrange(M.size)
            current = submonoid_closure(M, current | {extra})
            stages.append(current)
        out.append((M, stages))
    return out


def corpus_power_pairs(seed: int, count: int = 60, max_size: int = 8):
    """(A, B) with B a submonoid containing a power of every element of A."""
    rng = random.Random(f"powers:{seed}")
    monoids = [M for M in corpus_monoids(seed, count=80, max_size=max_size)
               if M.size <= max_size]
    out = []
    while len(out) < count:
        A = rng.choice(monoids)
        gens = {A.power(a, rng.randint(1, 3)) for a in A.elements()}
        B = submonoid_closure(A, gens)
        out.append((A, B))
    return out
