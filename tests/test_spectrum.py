import pytest

from monospec.congruence import sl_reflection
from monospec.core import MonoidMap, monoid_homs, sierpinski, validate_monoid
from monospec.corpus import chain_semilattice, corpus_monoids, cyclic_monoid
from monospec.errors import CapExceeded, HypothesisError
from monospec.presentation import free_semilattice, parse_presentation
from monospec.semilattice import from_monoid
from monospec.spectrum import (
    alpha,
    beta,
    canonical_key,
    ev_check,
    greatest_prime,
    induced_spec_map,
    naturality_square,
    power_submonoid_check,
    primes_bruteforce,
    render_support,
    spec_cubed_check,
    spec_monoid,
    spec_presentation,
    spec_spec_check,
    spectrum_monoid,
    theta,
    theta_inverse,
)


def z2():
    return validate_monoid([[0, 1], [1, 0]], identity=0, names=["1", "g"])


def test_primes_bruteforce_examples():
    assert primes_bruteforce(sierpinski()).points == (frozenset(), frozenset({1}))
    assert primes_bruteforce(z2()).points == (frozenset(),)
    assert len(primes_bruteforce(free_semilattice(2).monoid).points) == 4


def test_bruteforce_cap():
    with pytest.raises(CapExceeded, match="size 4 exceeds the cap of 3"):
        primes_bruteforce(free_semilattice(2).monoid, cap=3)


def test_homs_to_I_counts():
    I = sierpinski()
    assert len(monoid_homs(I, I)) == 2
    assert len(monoid_homs(z2(), I)) == 1
    assert len(monoid_homs(validate_monoid([[0]]), I)) == 1


def test_theta_round_trip():
    I = sierpinski()
    ident = MonoidMap(I, I, (0, 1))
    const = MonoidMap(I, I, (0, 0))
    assert theta(ident) == frozenset({1})
    assert theta(const) == frozenset()
    assert theta_inverse(I, {1}) == ident
    for f in monoid_homs(free_semilattice(2).monoid, I):
        assert theta_inverse(f.source, theta(f)) == f


def test_alpha_beta_examples():
    L = chain_semilattice(3)
    assert alpha(L, 1) == frozenset({2})
    assert alpha(L, 2) == frozenset()
    assert alpha(L, 0) == frozenset({1, 2})
    assert beta(L, {2}) == 1
    assert beta(L, set()) == 2
    assert beta(L, {1, 2}) == 0
    for a in L.elements():
        assert beta(L, alpha(L, a)) == a


def test_spec_monoid_reduction_route():
    assert spec_monoid(z2()).points == (frozenset(),)
    M = cyclic_monoid(1, 2)  # 1, t, t2 with t3 = t
    assert spec_monoid(M).points == primes_bruteforce(M).points


def test_spec_presentation_examples():
    P = parse_presentation("gens: t")
    _, _, S, supports = spec_presentation(P)
    assert sorted(supports, key=canonical_key) == [frozenset(), frozenset({0})]
    assert render_support(P, supports[1]) == "(t)"

    P2 = parse_presentation("gens: x y")
    _, _, S2, supports2 = spec_presentation(P2)
    assert sorted(len(s) for s in supports2) == [0, 1, 1, 2]


def test_spec_union():
    S = primes_bruteforce(free_semilattice(2).monoid)
    for i in range(4):
        assert S.union_table[0][i] == i
        assert S.union_table[i][i] == i
    # the two mid-size primes union to the greatest one
    assert S.points[S.union_table[1][2]] == S.points[1] | S.points[2]
    assert S.points[3] == greatest_prime(free_semilattice(2).monoid)


def test_spec_I_is_sierpinski_again():
    S = primes_bruteforce(sierpinski())
    assert spectrum_monoid(S).table == sierpinski().table


def test_induced_spec_map():
    I = sierpinski()
    S = primes_bruteforce(I)
    assert induced_spec_map(MonoidMap(I, I, (0, 1)), S) == (frozenset(), frozenset({1}))
    # the reflection projection induces a bijection on spectra
    M = cyclic_monoid(2, 2)
    L, q = sl_reflection(M)
    SL = primes_bruteforce(L.monoid)
    pre = induced_spec_map(q, SL)
    assert sorted(pre, key=canonical_key) == list(primes_bruteforce(M).points)
    # first-factor inclusion into the product monoid
    P = validate_monoid(
        [[0, 1, 2, 3], [1, 1, 3, 3], [2, 3, 2, 3], [3, 3, 3, 3]]
    )
    inc = MonoidMap(I, P, (0, 1))
    SP = primes_bruteforce(P)
    for p in induced_spec_map(inc, SP):
        assert p in set(primes_bruteforce(I).points)


def test_naturality_square():
    from monospec.semilattice import identity_map, monotone_map

    L3 = chain_semilattice(3)
    assert naturality_square(identity_map(L3))
    f = monotone_map(chain_semilattice(2), L3, [0, 1])
    assert naturality_square(f)


def test_ev_and_double_spectrum():
    assert ev_check(sierpinski())
    assert ev_check(validate_monoid([[0]]))
    assert ev_check(free_semilattice(2).monoid)
    with pytest.raises(CapExceeded):
        ev_check(chain_semilattice(17).monoid)
    assert spec_spec_check(from_monoid(sierpinski()))
    assert spec_spec_check(chain_semilattice(3))
    assert spec_spec_check(free_semilattice(2))
    assert spec_cubed_check(cyclic_monoid(2, 2))


def test_power_submonoid_check():
    A = cyclic_monoid(2, 2)
    assert power_submonoid_check(A, frozenset(A.elements()))
    B = frozenset({0, 2, 3})  # generated by t2; t's square lands in it
    assert power_submonoid_check(A, B)
    assert power_submonoid_check(z2(), {0})
    with pytest.raises(HypothesisError, match="not a submonoid"):
        power_submonoid_check(A, {0, 1})
    # {1} inside the free semilattice: no power of a generator ever returns
    with pytest.raises(HypothesisError, match="no power"):
        power_submonoid_check(free_semilattice(1).monoid, {0})


def test_theta_is_monoid_iso_pointwise():
    for M in corpus_monoids(12, count=20, max_size=8):
        homs = monoid_homs(M, sierpinski())
        assert len(homs) == len(primes_bruteforce(M).points)
        for f in homs:
            for g in homs:
                prod = MonoidMap(M, sierpinski(),
                                 tuple(a | b for a, b in zip(f.images, g.images)))
                assert theta(prod) == theta(f) | theta(g)
