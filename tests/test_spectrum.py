from itertools import combinations
from pathlib import Path

import pytest

from monospec import cli, limits, spectrum, topology, verify
from monospec.congruence import sl_reflection
from monospec.core import MonoidMap, direct_product, monoid_homs, sierpinski, validate_monoid
from monospec.corpus import chain_semilattice, corpus_monoids, cyclic_group, cyclic_monoid
from monospec.errors import CapExceeded, HypothesisError
from monospec.presentation import free_semilattice, parse_presentation
from monospec.semilattice import from_monoid
from monospec.spectrum import (
    alpha,
    beta,
    canonical_key,
    ev_check,
    greatest_prime,
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


def _primes_by_definition(M):
    """Every subset tested against the prime laws, on frozensets."""
    elements = frozenset(M.elements())
    primes = []
    for r in range(M.size + 1):
        for P in map(frozenset, combinations(M.elements(), r)):
            C = elements - P
            if (P != elements
                    and all(M.mul(x, p) in P for p in P for x in elements)
                    and 0 in C
                    and all(M.mul(a, b) in C for a in C for b in C)):
                primes.append(P)
    return primes


def test_primes_bruteforce_matches_definition():
    monoids = [M for s in range(3) for M in corpus_monoids(s, 150, 10)] + [
        validate_monoid([[0]]), free_semilattice(4).monoid, chain_semilattice(12).monoid,
        # lanes of 2, 4 and 256 bits: shorter and longer than one 30-bit int digit
        sierpinski(), z2(), chain_semilattice(3).monoid, cyclic_group(3), cyclic_monoid(1, 2),
        direct_product(cyclic_group(3), chain_semilattice(3).monoid),
    ]
    for M in monoids:
        expected = sorted(_primes_by_definition(M), key=canonical_key)
        assert list(primes_bruteforce(M).points) == expected, M.table
    assert primes_bruteforce(validate_monoid([[0]])).points == (frozenset(),)
    # 2^16-bit lanes: the primes of a chain under max are its proper upsets
    chain17 = primes_bruteforce(chain_semilattice(17).monoid, cap=17)
    assert len(chain17.points) == 17
    assert chain17.points == tuple(frozenset(range(k, 17)) for k in range(17, 0, -1))


def _drop_last_point(monkeypatch, module):
    valid = module.primes_bruteforce

    def faulty(M, *args, **kwargs):
        S = valid(M, *args, **kwargs)
        return S._replace(points=S.points[:-1])

    monkeypatch.setattr(module, "primes_bruteforce", faulty)


def _routes_disagree(capsys):
    """`spec --via all` exits 2 on data/i.mon; returns the route suite's counts."""
    data = Path(__file__).resolve().parent.parent / "data"
    assert cli.main(["spec", "--via", "all", str(data / "i.mon")]) == 2
    assert "routes agree: NO" in capsys.readouterr().out
    _, fails, total = verify.check_three_routes(corpus_monoids(0, 20, 6), [])
    return fails, total


def test_brute_fault_is_caught(monkeypatch, capsys):
    """A brute route missing one prime makes the route cross-checks fail."""
    _drop_last_point(monkeypatch, spectrum)
    fails, _ = _routes_disagree(capsys)
    assert fails >= 1


def test_hom_fault_is_caught(monkeypatch, capsys):
    """A hom route missing one hom makes the route cross-checks fail."""
    valid = spectrum.monoid_homs
    monkeypatch.setattr(spectrum, "monoid_homs", lambda M, N: valid(M, N)[:-1])
    fails, _ = _routes_disagree(capsys)
    assert fails >= 1


def test_build_spectrum_fault_is_caught(monkeypatch, capsys):
    """A `build_spectrum` that drops a point reaches brute and alpha, not hom.

    The hom route sorts its own kernels, so it still disagrees with the other
    two; a hom route through `build_spectrum` would agree with them here.
    """
    valid = spectrum.build_spectrum

    def faulty(M, points):
        S = valid(M, points)
        return S._replace(points=S.points[:-1])

    monkeypatch.setattr(spectrum, "build_spectrum", faulty)
    assert _routes_disagree(capsys) == (20, 20)


def test_brute_fault_fails_topology_checks(monkeypatch):
    """A missing or swapped prime makes the topology checks fail, not raise."""
    L = free_semilattice(2)
    _drop_last_point(monkeypatch, topology)
    assert topology.alpha_opens_check(L) is False
    _, fails, _ = verify.check_alpha_suite([L])
    assert fails == 1

    valid = verify.primes_bruteforce

    def swapped(M, *args, **kwargs):
        S = valid(M, *args, **kwargs)
        return S._replace(points=S.points[:-1] + (S.points[-1] | {0},))

    monkeypatch.setattr(topology, "primes_bruteforce", swapped)
    M = L.monoid
    assert len(topology.primes_bruteforce(M).points) == len(valid(M).points)
    assert topology.theta_homeo_check(M) is False
    _, fails, _ = verify.check_theta([M])
    assert fails == 1


def test_alpha_fault_fails_alpha_suite(monkeypatch):
    """Two elements' primes swapped in one lattice make the alpha suite fail."""
    L = free_semilattice(2)
    valid = verify.alpha

    def swapped(K, a):
        return valid(K, {1: 2, 2: 1}.get(a, a) if K is L else a)

    monkeypatch.setattr(verify, "alpha", swapped)
    _, fails, total = verify.check_alpha_suite([chain_semilattice(3), L])
    assert (fails, total) == (1, 2)


def test_brute_fault_fails_duals_checks(monkeypatch):
    """A missing prime makes the double-spectrum check fail, not raise."""
    L = free_semilattice(2)
    _drop_last_point(monkeypatch, spectrum)
    assert spectrum.spec_spec_check(L) is False
    _, fails, _ = verify.check_duals([L])
    assert fails == 1


def test_brute_fault_fails_limits_checks(monkeypatch):
    """A missing prime makes the colimit and profinite checks fail, not raise."""
    L = free_semilattice(2)
    chain = [frozenset({0}), frozenset({0, 1}), frozenset(range(4))]
    _drop_last_point(monkeypatch, limits)
    assert limits.zg_check(L.monoid, chain) is False
    assert limits.profinite_check(L) is False
    _, fails, _ = verify.check_limits([(L.monoid, chain)], [L])
    assert fails >= 1


def test_bruteforce_cap():
    with pytest.raises(CapExceeded, match="size 4 exceeds the cap of 3"):
        primes_bruteforce(free_semilattice(2).monoid, cap=3)
    # a raised cap: 2.5 MB of lanes; past 32 elements they would take over 16 GB
    assert len(primes_bruteforce(chain_semilattice(20).monoid, cap=20).points) == 20
    with pytest.raises(CapExceeded, match="size 33 exceeds the cap of 32"):
        primes_bruteforce(chain_semilattice(33).monoid, cap=100)


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
    """Preimages of the points of Spec(target) along a hom are primes of the source."""
    I = sierpinski()
    S = primes_bruteforce(I)
    f = MonoidMap(I, I, (0, 1))
    assert tuple(frozenset(x for x in I.elements() if f.images[x] in p)
                 for p in S.points) == (frozenset(), frozenset({1}))
    # the reflection projection induces a bijection on spectra
    M = cyclic_monoid(2, 2)
    L, q = sl_reflection(M)
    SL = primes_bruteforce(L.monoid)
    pre = [frozenset(x for x in M.elements() if q.images[x] in p) for p in SL.points]
    assert sorted(pre, key=canonical_key) == list(primes_bruteforce(M).points)
    # that pull-back is the reduction route
    assert spec_monoid(M).points == primes_bruteforce(M).points
    # first-factor inclusion into the product monoid
    P = validate_monoid(
        [[0, 1, 2, 3], [1, 1, 3, 3], [2, 3, 2, 3], [3, 3, 3, 3]]
    )
    inc = MonoidMap(I, P, (0, 1))
    SP = primes_bruteforce(P)
    for p in SP.points:
        pre = frozenset(x for x in I.elements() if inc.images[x] in p)
        assert pre in set(primes_bruteforce(I).points)


def test_naturality_square():
    from monospec.semilattice import monotone_map

    L3 = chain_semilattice(3)
    assert naturality_square(monotone_map(L3, L3, L3.elements()))
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
