"""Colimits of submonoid chains and inverse limits of finite stage systems.

General categorical colimits are deliberately replaced by unions of submonoid
chains, the only shape needed here.  The systems built here are directed:
chain stages are related to the next stage and subsemilattices to the
subsemilattices they cover.  Their inverse limits are the coherent families
(one point per stage, compatible with every transition map), read down from
the greatest stage.  Each system is a plain record whose maps have their
shape by construction; a wrong map value fails coherence in `inverse_limit`.
"""

from __future__ import annotations

from functools import reduce
from typing import NamedTuple

from .core import FiniteMonoid, enforce_cap, is_submonoid, submonoid_as_monoid
from .errors import ValidationError
from .semilattice import JoinSemilattice
from .spectrum import alpha, canonical_key, primes_bruteforce


class InverseSystem(NamedTuple):
    """Finite point sets per stage with transition maps toward smaller stages.

    `relations` holds pairs (low, high), the keys of `maps`, unchecked;
    `maps[(low, high)]` sends each point of stage `high` to a point of `low`.
    """

    sizes: list[int]
    relations: list[tuple[int, int]]
    maps: dict[tuple[int, int], tuple[int, ...]]


def inverse_limit(system: InverseSystem) -> list[tuple[int, ...]]:
    """All coherent families, canonically sorted, read down from the greatest stage.

    The greatest stage is the one stage that is never the low end of a
    non-self relation and that reaches every stage along the relations.  Each
    of its points is carried down the relations in BFS order, and the family
    is kept when it is coherent on every relation.  The BFS tree and every
    relation are paired with their maps once, before the families are read.
    A finite directed system has a greatest stage; raises ValidationError
    when there is none.
    """
    n = len(system.sizes)
    if n == 0:
        return [()]
    below: dict[int, list[int]] = {}
    for (i, j) in system.relations:
        if i != j:
            below.setdefault(j, []).append(i)
    tops = set(range(n)).difference(*below.values())
    order, edges = list(tops)[:1], []
    seen = set(order)
    for high in order:  # grows while it is read: BFS from the top
        for low in below.get(high, ()):
            if low not in seen:
                seen.add(low)
                order.append(low)
                edges.append((low, high))
    if len(tops) != 1 or len(order) != n:
        raise ValidationError("the system has no greatest stage")
    maps = system.maps
    tree = [(i, j, maps[(i, j)]) for (i, j) in edges]
    relations = [(i, j, maps[(i, j)]) for (i, j) in system.relations]
    families = []
    for p in range(system.sizes[order[0]]):
        choice = [0] * n
        choice[order[0]] = p
        for i, j, t in tree:
            choice[i] = t[choice[j]]
        if all(t[choice[j]] == choice[i] for i, j, t in relations):
            families.append(tuple(choice))
    return sorted(families)


def _checked_chain(ambient: FiniteMonoid, chain) -> list[frozenset[int]]:
    """The chain's stages as frozensets; raises ValidationError unless it is
    a nonempty increasing chain of submonoids of `ambient`."""
    chain = [frozenset(s) for s in chain]
    if not chain:
        raise ValidationError("empty chain")
    prev = None
    for k, stage in enumerate(chain):
        if not is_submonoid(ambient, stage):
            raise ValidationError(f"stage {k} is not a submonoid")
        if prev is not None and not prev <= stage:
            raise ValidationError(f"chain is not increasing at stage {k}")
        prev = stage
    return chain


def colimit_of_submonoid_chain(ambient: FiniteMonoid, chain) -> tuple[FiniteMonoid, dict[int, int]]:
    """The union of an increasing chain of submonoids, as a monoid of its own."""
    return submonoid_as_monoid(ambient, _checked_chain(ambient, chain)[-1])


def _restrict(p, ambient_of, stage) -> int | None:
    """The point of `stage`'s spectrum that the prime p cuts out of it.

    `ambient_of` sends p's local indices to the ambient monoid's.  None when
    the cut is not a point of the stage, which no correct spectrum allows.
    """
    local, position = stage
    return position.get(frozenset(local[ambient_of[x]] for x in p if ambient_of[x] in local))


def _stage_spectra(ambient: FiniteMonoid, chain):
    """Stages as (local indices, position of each prime), plus the restriction
    maps to the previous stage; the maps are None when a restriction is missing."""
    stages = []
    for stage in chain:
        mon, local = submonoid_as_monoid(ambient, stage)
        stages.append((local, {p: k for k, p in enumerate(primes_bruteforce(mon).points)}))
    maps = {}
    for i in range(len(stages) - 1):
        local_j, position_j = stages[i + 1]
        ambient_j = {v: k for k, v in local_j.items()}
        t = tuple(_restrict(p, ambient_j, stages[i]) for p in position_j)
        if None in t:
            return stages, None
        maps[(i, i + 1)] = t
    return stages, maps


def zg_check(ambient: FiniteMonoid, chain) -> bool:
    """Spec of the chain union matches the inverse limit of the stage spectra.

    A prime whose restriction to some stage is not a point of that stage's
    spectrum fails the check.
    """
    stages, maps = _stage_spectra(ambient, _checked_chain(ambient, chain))
    if maps is None:
        return False
    system = InverseSystem([len(position) for _, position in stages], list(maps), maps)
    local, position = stages[-1]  # the union is the last stage; its primes are known
    ambient_c = {v: k for k, v in local.items()}
    images = [tuple(_restrict(p, ambient_c, stage) for stage in stages) for p in position]
    if any(None in image for image in images):
        return False
    return len(set(images)) == len(images) and sorted(images) == inverse_limit(system)


def subsemilattices(L: JoinSemilattice) -> list[tuple[int, ...]]:
    """All join-closed subsets containing the least element, canonical order.

    Every subsemilattice of a finite semilattice is finitely generated, and a
    subsemilattice generated by S has at most 2^|S| elements, so this is the
    full system of finitely generated subsemilattices.

    The scan is bit-sliced like `primes_bruteforce`: the mask 2h + 1 (the
    least element 0 always in) is bit h of a 2^(n-1)-bit lane, and lane P[x]
    has bit h set when that mask contains x.  A mask that holds a and b but
    not a v b is not join-closed, so `P[a] & P[b] & ~P[a v b]` over every
    pair whose join is neither of them marks all of them at once; the
    unmarked masks are the subsemilattices, read off the top bit down.
    """
    n = L.size
    # n - 1 lanes of 2^(n-1) bits take about n * 2^(n-4) bytes: 64 KB at 16
    enforce_cap("size", n)
    width = 1 << (n - 1)
    P = [0] * n
    for x in range(1, n):
        run = 1 << (x - 1)  # runs of 2^(x-1) zeros, then as many ones
        lane, span = ((1 << run) - 1) << run, 2 * run
        while span < width:
            lane |= lane << span
            span *= 2
        P[x] = lane
    bad = 0
    for a in range(1, n):
        for b in range(a + 1, n):
            j = L.join(a, b)
            if j != a and j != b:
                bad |= P[a] & P[b] & ~P[j]
    survivors = ((1 << width) - 1) ^ bad
    out = []
    while survivors:
        h = survivors.bit_length() - 1
        survivors ^= 1 << h
        out.append((0,) + tuple(x for x in range(1, n) if (h >> (x - 1)) & 1))
    return sorted(out, key=lambda s: (len(s), s))


def profinite_system(L: JoinSemilattice) -> tuple[list[tuple[int, ...]], InverseSystem]:
    """The inverse system of all subsemilattices on their covers, dualized via right adjoints.

    T covers S exactly when S = T less one element x: for S < T, a minimal
    element x of T - S is join-irreducible in T (the elements of T strictly
    below x lie in S, whose joins stay in S), so T - {x} is a subsemilattice
    between S and T.  Each cover is therefore found by looking up the bitmask of T
    less one non-bottom element among the stages.  The transition is the
    right adjoint of the inclusion: y goes to the greatest element of S below
    y, so it fixes S and sends x to the join of S below x.  Right adjoints
    compose, so the covers determine the transition between any two stages.
    """
    stages = subsemilattices(L)
    index = {sum(1 << x for x in s): k for k, s in enumerate(stages)}
    join, leq = L.join, L.leq
    maps = {}
    for mask, j in index.items():
        high = stages[j]
        for x in high[1:]:
            i = index.get(mask ^ (1 << x))
            if i is not None:
                low = stages[i]
                t = [k - (y > x) for k, y in enumerate(high)]  # positions in high less x
                t[high.index(x)] = low.index(reduce(join, [s for s in low if leq[s][x]]))
                maps[(i, j)] = tuple(t)
    return stages, InverseSystem([len(s) for s in stages], sorted(maps), maps)


def profinite_spec(L: JoinSemilattice):
    """Coherent families of the dualized subsemilattice system, with the
    element of L each family evaluates to at the full stage."""
    stages, system = profinite_system(L)
    families = inverse_limit(system)
    full = stages.index(tuple(range(L.size)))
    return stages, families, [fam[full] for fam in families]


def profinite_check(L: JoinSemilattice) -> bool:
    """Families biject with Spec(L) through the downset-complement map.

    Each family must also be the restriction of its prime alpha(L, a) to
    every stage S: the point it picks at S is the greatest element of S
    below a.  The bijection alone reads each family at the full stage, where
    it starts, so it would miss a wrong transition.  With down[a] the bitmask
    of the downset of a and m that of S, the point S[k] is the greatest
    element of S below a exactly when the two downsets agree on S, that is
    when `down[a] & m == down[S[k]] & m`.
    """
    stages, families, evaluations = profinite_spec(L)
    if len(families) != L.size or len(set(evaluations)) != len(evaluations):
        return False
    leq = L.leq
    down = [sum(1 << s for s in L.elements() if leq[s][a]) for a in L.elements()]
    masks = [sum(1 << s for s in S) for S in stages]
    if not all(down[a] & m == down[S[k]] & m
               for fam, a in zip(families, evaluations)
               for S, m, k in zip(stages, masks, fam)):
        return False
    image = sorted((alpha(L, a) for a in evaluations), key=canonical_key)
    return image == list(primes_bruteforce(L.monoid).points)
