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

from typing import NamedTuple

from .core import FiniteMonoid, enforce_cap, is_submonoid, lanes, members, submonoid_as_monoid
from .errors import IntegrityError, ValidationError
from .semilattice import JoinSemilattice
from .spectrum import alpha, canonical_key, primes_bruteforce, route_primes


class InverseSystem(NamedTuple):
    """Finite point sets per stage with transition maps toward smaller stages.

    `maps[(low, high)]` sends each point of stage `high` to a point of `low`;
    the system's relations are the keys of `maps`.
    """

    sizes: list[int]
    maps: dict[tuple[int, int], tuple[int, ...]]

    @property
    def relations(self) -> list[tuple[int, int]]:
        """The pairs (low, high) that have a transition map, sorted."""
        return sorted(self.maps)


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
    maps = system.maps
    for (i, j) in maps:
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
    tree = [(i, j, maps[(i, j)]) for (i, j) in edges]
    relations = [(i, j, t) for (i, j), t in maps.items()]
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
    for k, stage in enumerate(chain):
        if not is_submonoid(ambient, stage):
            raise ValidationError(f"stage {k} is not a submonoid")
        if k and not chain[k - 1] <= stage:
            raise ValidationError(f"chain is not increasing at stage {k}")
    return chain


def zg_check(ambient: FiniteMonoid, chain) -> bool:
    """Spec of the chain union matches the inverse limit of the stage spectra.

    Each stage's primes are kept as sets of ambient elements, so a prime p
    restricts to stage S as p & S.  The transitions restrict each stage's
    primes to the stage below; the union's primes, restricted to every stage
    at once, must be the coherent families, so on a finite chain this checks
    that restriction composes.  A restriction that is not a point of its
    stage's spectrum fails the check.  The stages below the last read their
    primes by brute force and the last, the union, by the hom route, so the
    restriction test compares two independent routes: a stage spectrum that
    misses the restriction of a prime of the union fails it.
    """
    chain = _checked_chain(ambient, chain)
    spectra = []  # per stage: its primes, as sets of ambient elements, by position
    last = len(chain) - 1
    for i, stage in enumerate(chain):
        members = sorted(stage)  # a local index's ambient element
        M = submonoid_as_monoid(ambient, stage)[0]
        primes = route_primes(M, "hom") if i == last else primes_bruteforce(M).points
        spectra.append({frozenset(members[x] for x in p): k for k, p in enumerate(primes)})
    maps = {}
    for i in range(len(chain) - 1):
        t = tuple(spectra[i].get(p & chain[i]) for p in spectra[i + 1])
        if None in t:
            return False
        maps[(i, i + 1)] = t
    system = InverseSystem(list(map(len, spectra)), maps)
    # the union is the last stage, so each image ends at its own prime; every
    # p & S is a point, being (p & T) & S for the stage T just above S
    images = [tuple(position[p & stage] for stage, position in zip(chain, spectra))
              for p in spectra[-1]]
    return sorted(images) == inverse_limit(system)


def subsemilattices(L: JoinSemilattice) -> list[tuple[int, ...]]:
    """All join-closed subsets containing the least element, canonical order.

    Every subsemilattice of a finite semilattice is finitely generated, and a
    subsemilattice generated by S has at most 2^|S| elements, so this is the
    full system of finitely generated subsemilattices.

    The scan runs over the subsets that hold the least element 0, element x
    on lane x - 1 of `lanes`.  A subset that holds a and b but not a v b is
    not join-closed, so `P[a] & P[b] & ~P[a v b]` over every pair whose join
    is neither of them marks all of them at once, and the unmarked subsets
    are the subsemilattices.
    """
    n = L.size
    # n - 1 lanes of 2^(n-1) bits take about n * 2^(n-4) bytes: 64 KB at 16
    enforce_cap("size", n)
    P = [0] + lanes(n - 1)
    bad = 0
    for a in range(1, n):
        for b in range(a + 1, n):
            j = L.join(a, b)
            if j != a and j != b:
                bad |= P[a] & P[b] & ~P[j]
    survivors = ((1 << (1 << (n - 1))) - 1) ^ bad
    out = [(0,) + tuple(sorted(x + 1 for x in members(h))) for h in members(survivors)]
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
    A stage that is not join-closed raises IntegrityError.

    Conversely T - {x} is a subsemilattice whenever no two other elements of
    T join to x, so such a T - {x} missing from the stages raises
    IntegrityError too.  With the full stage listed, induction down the
    covers then proves the list complete.  The pairs that join to each x
    are bitmasks, found once.
    """
    stages = subsemilattices(L)
    index = {sum(1 << x for x in s): k for k, s in enumerate(stages)}
    table = L.monoid.table
    joined = [[] for _ in L.elements()]  # x -> the pairs {a, b}, x not in it, with a v b = x
    for a in L.elements():
        for b in range(a + 1, L.size):
            if table[a][b] not in (a, b):
                joined[table[a][b]].append(1 << a | 1 << b)
    maps = {}
    for mask, j in index.items():
        high = stages[j]
        for x in high[1:]:
            i = index.get(mask ^ (1 << x))
            if i is None and not any(pair & mask == pair for pair in joined[x]):
                raise IntegrityError(f"stage {high} less {x} is missing")
            if i is not None:
                low = stages[i]
                t = [k - (y > x) for k, y in enumerate(high)]  # positions in high less x
                below = 0  # the least element, which every stage holds
                for s in low:
                    if table[s][x] == x:  # s <= x read inline: L.le calls cost `limits` 9 %
                        below = table[below][s]
                try:
                    t[high.index(x)] = low.index(below)
                except ValueError:  # a subsemilattice holds its joins
                    raise IntegrityError(f"stage {low} is not join-closed") from None
                maps[(i, j)] = tuple(t)
    return stages, InverseSystem([len(s) for s in stages], maps)


def profinite_spec(L: JoinSemilattice):
    """Coherent families of the dualized subsemilattice system, with the
    element of L each family evaluates to at the full stage; raises
    IntegrityError when L itself is not a stage."""
    stages, system = profinite_system(L)
    families = inverse_limit(system)
    whole = tuple(range(L.size))
    if whole not in stages:
        raise IntegrityError("the full stage is missing")
    full = stages.index(whole)
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
    t = L.monoid.table  # read inline, as in profinite_system: L.le calls cost `limits` 9 %
    down = [sum(1 << s for s, row in enumerate(t) if row[a] == a) for a in L.elements()]
    masks = [sum(1 << s for s in S) for S in stages]
    if not all(down[a] & m == down[S[k]] & m
               for fam, a in zip(families, evaluations)
               for S, m, k in zip(stages, masks, fam)):
        return False
    image = sorted((alpha(L, a) for a in evaluations), key=canonical_key)
    return image == list(primes_bruteforce(L.monoid).points)
