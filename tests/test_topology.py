from itertools import combinations
from pathlib import Path

import pytest

from faults import drop_last_closed_set, patch_every_binding
from monospec import verify
from monospec.cli import main
from monospec.core import members, monoid_homs, parse_monoid_table, sierpinski, validate_monoid
from monospec.corpus import chain_semilattice, corpus_monoids, corpus_semilattices
from monospec.errors import CapExceeded, ValidationError
from monospec.presentation import free_semilattice
from monospec.semilattice import from_monoid
from monospec.spectrum import alpha, canonical_key, primes_bruteforce, theta
from monospec.topology import (
    FiniteTopology,
    basic_opens,
    carries,
    format_opens,
    hom_opens,
    ideal_opens,
    least_opens,
    union_continuous,
)
from monospec.verify import alpha_holds, theta_holds

DATA = Path(__file__).resolve().parent.parent / "data"


def topology(size: int, opens) -> FiniteTopology:
    """The topology a family of opens generates on points 0..size-1: the
    open-family oracle for the least-neighbourhood checks.

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
    return FiniteTopology(size, tuple(sorted(unions, key=canonical_key)))


def homeomorphic_by_opens(bijection, T1, T2) -> bool:
    """The bijection carries the opens of T1 onto those of T2."""
    return {frozenset(bijection[x] for x in o) for o in T1.opens} == set(T2.opens)


def union_continuous_by_opens(union_table, T) -> bool:
    """Each open's preimage under the union map holds, with each of its
    points, the product of their smallest opens."""
    k = T.size
    smallest = [min((o for o in T.opens if x in o), key=len) for x in range(k)]
    for o in T.opens:
        pre = {(i, j) for i in range(k) for j in range(k) if union_table[i][j] in o}
        if any((a, b) not in pre for i, j in pre for a in smallest[i] for b in smallest[j]):
            return False
    return True


def _masks(sets):
    return [sum(1 << x for x in s) for s in sets]


def test_basis_D_sierpinski():
    I = sierpinski()
    S = primes_bruteforce(I)
    # D(identity) is everything, D(absorber) only keeps the empty prime
    assert basic_opens(I, S) == _masks([{0, 1}, {0}])


def test_basis_D_free_semilattice():
    F = free_semilattice(2).monoid
    S = primes_bruteforce(F)
    assert len(set(basic_opens(F, S))) == 4


def test_topology_from_basis():
    T = topology(2, [frozenset({0, 1})])
    assert T.opens == (frozenset(), frozenset({0, 1}))
    I = sierpinski()
    T = topology(2, [set(members(o)) for o in basic_opens(I, primes_bruteforce(I))])
    assert T.opens == (frozenset(), frozenset({0}), frozenset({0, 1}))
    T = topology(3, [frozenset({0}), frozenset({1}), frozenset({2})])
    assert len(T.opens) == 8  # discrete


def test_topology_saturation_and_validation():
    T = topology(3, [frozenset({0}), frozenset({1, 2})])
    assert frozenset({0, 1, 2}) in T.opens
    with pytest.raises(ValidationError):
        topology(2, [frozenset({5})])


def test_ideal_opens():
    L = chain_semilattice(3)
    T = ideal_opens(L)
    assert T.opens == (frozenset(), frozenset({2}), frozenset({1, 2}), frozenset({0, 1, 2}))
    assert ideal_opens(chain_semilattice(1)).opens == (frozenset(), frozenset({0}))
    assert len(ideal_opens(free_semilattice(2)).opens) == 6


def _upsets(L):
    """Every subset S with y in S whenever x in S and x <= y, on frozensets."""
    above = [[y for y in L.elements() if L.le(x, y)] for x in L.elements()]
    subsets = (frozenset(S) for k in range(L.size + 1)
               for S in combinations(L.elements(), k))
    return [S for S in subsets if all(y in S for x in S for y in above[x])]


def test_ideal_opens_matches_definition():
    lattices = [L for s in range(3) for L in corpus_semilattices(s, 40, 10)]
    lattices += [free_semilattice(4), chain_semilattice(16), chain_semilattice(1)]
    for L in lattices:
        expected = tuple(sorted(_upsets(L), key=canonical_key))
        assert ideal_opens(L).opens == expected
    assert len(ideal_opens(free_semilattice(4)).opens) == 168
    assert len(ideal_opens(chain_semilattice(16)).opens) == 17
    with pytest.raises(CapExceeded, match="size 33 exceeds the cap of 32"):
        ideal_opens(chain_semilattice(33), cap=100)


def test_closed_sets_dropping_its_last_set_fails_the_upsets_oracle(monkeypatch, capsys):
    """A listing that loses its last closed set loses the full set of L from
    its ideal opens.  No runtime check sees it: `topology data/free3.mon`
    exits 0 with 19 opens, so `_upsets` (and the golden) must."""
    L = from_monoid(parse_monoid_table((DATA / "free3.mon").read_text()))
    expected = tuple(sorted(_upsets(L), key=canonical_key))
    assert ideal_opens(L).opens == expected and len(expected) == 20
    drop_last_closed_set(monkeypatch)
    assert ideal_opens(L).opens == expected[:-1] != expected
    assert main(["topology", str(DATA / "free3.mon")]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 19 and "{e, a, b, c, ab, ac, bc, abc}" not in out


def test_ideal_opens_are_unions_of_principal_upsets():
    """The least open that holds x in the ideal topology is x's principal
    upset, which is what `alpha_holds` reads as N(x)."""
    lattices = [L for s in range(3) for L in corpus_semilattices(s, 40, 10)]
    for L in lattices + [free_semilattice(4)]:
        unions = {0}
        for x in L.elements():
            up = sum(1 << y for y in L.elements() if L.le(x, y))
            unions |= {up | u for u in unions}
        assert set(_masks(ideal_opens(L).opens)) == unions


def test_ideal_opens_closed_under_union_and_intersection():
    T = ideal_opens(free_semilattice(2))
    family = set(T.opens)
    for a in family:
        for b in family:
            assert a | b in family and a & b in family


def test_product_topology_on_homs():
    """The subbasis {h : h(m) = 1} of Hom(M, {1, 0}) and the least opens it gives."""
    I = sierpinski()
    homs = monoid_homs(I, I)
    assert least_opens(len(homs), hom_opens(I, homs)) == [0b1, 0b11]  # Sierpinski again
    trivial = validate_monoid([[0]])
    assert least_opens(1, hom_opens(trivial, monoid_homs(trivial, I))) == [0b1]
    z2 = validate_monoid([[0, 1], [1, 0]])
    assert hom_opens(z2, monoid_homs(z2, I)) == [0b1, 0b1]


def test_is_homeomorphism():
    sier = least_opens(2, [0b01])
    disc = least_opens(2, [0b01, 0b10])
    assert carries([0, 1], sier, sier)
    assert not carries([1, 0], sier, sier)
    assert not carries([0, 1], sier, disc)
    assert carries([1, 0], disc, disc)


def test_min_neighborhood():
    assert least_opens(2, [0b01]) == [0b01, 0b11]
    assert least_opens(3, []) == [0b111] * 3  # indiscrete
    assert least_opens(3, [0b011, 0b110]) == [0b011, 0b010, 0b110]


def _distinct(items, table):
    return list({table(x): x for x in items}.values())


def _bijections(bijection):
    """The bijection and three permutations of it."""
    b = list(bijection)
    return [b, b[1:] + b[:1], b[::-1], b[1:2] + b[:1] + b[2:]]


def _union_tables(table):
    """The table and three copies with one entry moved to the next point."""
    k = len(table)
    out = [table]
    for i, j in ((0, k - 1), (k - 1, 0), (k // 2, k // 2)):
        rows = [list(row) for row in table]
        rows[i][j] = (rows[i][j] + 1) % k
        out.append(rows)
    return out


def test_least_neighbourhood_verdicts_match_open_families():
    """On every corpus table of at most 8 elements, seeds 0-2, the
    least-neighbourhood verdicts equal the open-family ones: the θ
    homeomorphism and the union map's continuity, the α homeomorphism,
    and each under permuted bijections and altered union tables."""
    I = sierpinski()
    monoids = [M for s in range(3) for n in (8, 10) for M in corpus_monoids(s, 150, n)
               if M.size <= 8]
    checked = set()
    for M in _distinct(monoids, lambda M: M.table):
        S, homs = primes_bruteforce(M), monoid_homs(M, I)
        k = len(S.points)
        D = [frozenset(i for i, p in enumerate(S.points) if a not in p) for a in M.elements()]
        H = [frozenset(j for j, h in enumerate(homs) if h.images[m] == 0) for m in M.elements()]
        T_spec, T_hom = topology(k, D), topology(len(homs), H)
        N_spec = least_opens(k, basic_opens(M, S))
        N_hom = least_opens(len(homs), hom_opens(M, homs))
        index = {p: i for i, p in enumerate(S.points)}
        for b in _bijections(index[theta(h)] for h in homs):
            expected = homeomorphic_by_opens(b, T_hom, T_spec)
            assert carries(b, N_hom, N_spec) == expected
            checked.add(("theta", expected))
        for table in _union_tables(S.union_table):
            expected = union_continuous_by_opens(table, T_spec)
            assert union_continuous(S._replace(union_table=table), N_spec) == expected
            checked.add(("union", expected))
    lattices = [L for s in range(3) for n in (8, 10) for L in corpus_semilattices(s, 40, n)
                if L.size <= 8]
    for L in _distinct(lattices, lambda L: L.monoid.table):
        S = primes_bruteforce(L.monoid)
        D = [frozenset(i for i, p in enumerate(S.points) if a not in p) for a in L.elements()]
        T_ideal, T_spec = ideal_opens(L), topology(L.size, D)
        N_spec = least_opens(L.size, basic_opens(L.monoid, S))
        upsets = [sum(1 << y for y in L.elements() if L.le(x, y)) for x in L.elements()]
        index = {p: i for i, p in enumerate(S.points)}
        for b in _bijections(index[alpha(L, a)] for a in L.elements()):
            expected = homeomorphic_by_opens(b, T_ideal, T_spec)
            assert carries(b, upsets, N_spec) == expected
            checked.add(("alpha", expected))
    # each comparison met both verdicts
    assert checked == {(c, v) for c in ("theta", "union", "alpha") for v in (True, False)}


def test_theta_homeo_and_basis_identity_on_corpus():
    for M in corpus_monoids(13, count=25, max_size=8):
        assert theta_holds(M)
        S = primes_bruteforce(M)
        D = basic_opens(M, S)
        for a in M.elements():
            for b in M.elements():
                assert D[a] & D[b] == D[M.table[a][b]]
        assert union_continuous(S, least_opens(len(S.points), D))


def test_alpha_transports_ideal_opens():
    for L in (chain_semilattice(1), chain_semilattice(4), free_semilattice(2)):
        assert alpha_holds(L)


def test_theta_and_alpha_hold_on_M14():
    """M_14, the 16-element lattice 0 < 14 atoms < 1, whose ideal topology
    has 2^14 + 2 opens."""
    top = 15
    join = [[a if b in (0, a) else b if a == 0 else top for b in range(16)] for a in range(16)]
    M = validate_monoid(join, identity=0)
    assert len(ideal_opens(from_monoid(M)).opens) == 2 ** 14 + 2
    assert theta_holds(M)
    assert alpha_holds(from_monoid(M))


def test_format_opens():
    out = format_opens(ideal_opens(chain_semilattice(2)), names=("a", "b"))
    assert out == "{}\n{b}\n{a, b}\n"


# Named faults in what the θ and α suites read, each failing its suite at seed 1.

def _seed1_failures(key):
    """The failing items of suite `key` on its seed-1 corpora."""
    return verify.run_suite(key, *verify.suite_corpora(1)[key])[1]


def test_dropped_basic_open_fails_theta_and_alpha(monkeypatch):
    """The Spec side reads D(a) of its last element as every point."""
    valid = basic_opens

    def dropped(M, S):
        D = valid(M, S)
        return D[:-1] + [(1 << len(S.points)) - 1]

    patch_every_binding(monkeypatch, "basic_opens", dropped)
    assert _seed1_failures("theta") > 0
    assert _seed1_failures("alpha_suite") > 0


def test_wrong_subbasic_hom_open_fails_theta(monkeypatch):
    """The Hom side's subbasic open of the last element m holds the h with
    h(m) = 0 in place of those with h(m) = 1."""
    valid = hom_opens

    def flipped(M, homs):
        H = valid(M, homs)
        return H[:-1] + [H[-1] ^ (1 << len(homs)) - 1]

    patch_every_binding(monkeypatch, "hom_opens", flipped)
    assert _seed1_failures("theta") > 0


def test_swapped_union_entry_fails_theta(monkeypatch):
    """The empty prime's unions with the last two points are swapped.  Only
    `union_continuous` reads the union table in the θ suite, so this is the
    fault that drives it to False."""
    valid = primes_bruteforce

    def swapped(M, *args, **kwargs):
        S = valid(M, *args, **kwargs)
        first = S.union_table[0]
        if len(first) < 2:
            return S
        first = first[:-2] + (first[-1], first[-2])
        return S._replace(union_table=(first,) + S.union_table[1:])

    patch_every_binding(monkeypatch, "primes_bruteforce", swapped)
    theta_items, = verify.suite_corpora(1)["theta"]
    assert _seed1_failures("theta") == sum(len(valid(M).points) >= 2 for M in theta_items) > 0
