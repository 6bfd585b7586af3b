from itertools import combinations

import pytest

from monospec.core import sierpinski, validate_monoid
from monospec.corpus import chain_semilattice, corpus_monoids, corpus_semilattices
from monospec.errors import CapExceeded, ValidationError
from monospec.presentation import free_semilattice
from monospec.spectrum import canonical_key, primes_bruteforce
from monospec.topology import (
    basis_D,
    format_opens,
    ideal_opens,
    is_homeomorphism,
    min_neighborhood,
    product_topology_on_homs,
    spec_topology,
    topology,
    union_continuous,
)
from monospec.verify import alpha_holds, theta_holds


def test_basis_D_sierpinski():
    I = sierpinski()
    S = primes_bruteforce(I)
    D = basis_D(I, S)
    assert frozenset({0, 1}) in D  # D(identity) is everything
    assert frozenset({0}) in D  # D(absorber) only keeps the empty prime


def test_basis_D_free_semilattice():
    F = free_semilattice(2).monoid
    S = primes_bruteforce(F)
    assert len(basis_D(F, S)) == 4


def test_topology_from_basis():
    T = topology(2, [frozenset({0, 1})])
    assert T.opens == (frozenset(), frozenset({0, 1}))
    I = sierpinski()
    T = spec_topology(I, primes_bruteforce(I))
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
    above = [[y for y in L.elements() if L.leq[x][y]] for x in L.elements()]
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
    assert len(ideal_opens(chain_semilattice(16)).opens) == 17  # 65536-bit lanes
    with pytest.raises(CapExceeded, match="size 33 exceeds the cap of 32"):
        ideal_opens(chain_semilattice(33), cap=100)


def test_ideal_opens_closed_under_union_and_intersection():
    T = ideal_opens(free_semilattice(2))
    family = set(T.opens)
    for a in family:
        for b in family:
            assert a | b in family and a & b in family


def test_product_topology_on_homs():
    I = sierpinski()
    T = product_topology_on_homs(I)
    assert len(T.opens) == 3  # Sierpinski again
    assert len(product_topology_on_homs(validate_monoid([[0]])).opens) == 2
    z2 = validate_monoid([[0, 1], [1, 0]])
    assert product_topology_on_homs(z2).opens == (frozenset(), frozenset({0}))


def test_is_homeomorphism():
    sier = topology(2, [frozenset({0})])
    disc = topology(2, [frozenset({0}), frozenset({1})])
    assert is_homeomorphism([0, 1], sier, sier)
    assert not is_homeomorphism([0, 1], sier, disc)
    with pytest.raises(ValidationError):
        is_homeomorphism([0, 0], sier, sier)


def test_min_neighborhood():
    sier = topology(2, [frozenset({0})])
    assert min_neighborhood(sier, 0) == frozenset({0})
    assert min_neighborhood(sier, 1) == frozenset({0, 1})


def test_theta_homeo_and_basis_identity_on_corpus():
    for M in corpus_monoids(13, count=25, max_size=8):
        assert theta_holds(M)
        S = primes_bruteforce(M)
        D = {a: frozenset(i for i, p in enumerate(S.points) if a not in p)
             for a in M.elements()}
        for a in M.elements():
            for b in M.elements():
                assert D[a] & D[b] == D[M.table[a][b]]
        assert union_continuous(S, spec_topology(M, S))


def test_alpha_transports_ideal_opens():
    for L in (chain_semilattice(1), chain_semilattice(4), free_semilattice(2)):
        assert alpha_holds(L)


def test_format_opens():
    out = format_opens(ideal_opens(chain_semilattice(2)), names=("a", "b"))
    assert out == "{}\n{b}\n{a, b}\n"
