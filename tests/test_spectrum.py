import random
import re
import time
from itertools import combinations, combinations_with_replacement
from pathlib import Path

import pytest

from monospec import cli, limits, spectrum, verify
from monospec.congruence import sl_reflection
from monospec.core import (
    MonoidMap,
    direct_product,
    lanes,
    members,
    monoid_homs,
    parse_monoid_table,
    sierpinski,
    validate_monoid,
)
from monospec.corpus import chain_semilattice, corpus_monoids, cyclic_group, cyclic_monoid
from monospec.errors import CapExceeded, IntegrityError, ValidationError
from monospec.presentation import free_semilattice, parse_presentation, sl_of_presentation
from monospec.semilattice import from_monoid
from monospec.spectrum import (
    alpha,
    beta,
    build_spectrum,
    canonical_key,
    generator_supports,
    greatest_prime,
    primes_bruteforce,
    render_support,
    route_primes,
    spec_monoid,
    spectrum_monoid,
    theta,
    theta_inverse,
)
from monospec.verify import (
    ev_check,
    naturality_square,
    power_submonoid_check,
    spec_cubed_check,
    spec_spec_check,
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


@pytest.mark.parametrize("width", [1, 3])
def test_windowed_scan_matches_definition(monkeypatch, width):
    """With W low elements, a table of more than W + 1 elements is scanned in
    windows over its high elements, which a scan of those lists, W elements a
    level; the primes are still those of the definition, and no lanes wider
    than W are asked for."""
    monkeypatch.setattr(spectrum, "W", width)
    widths = []
    monkeypatch.setattr(spectrum, "lanes", lambda k: widths.append(k) or lanes(k))
    for M in (M for s in range(3) for M in corpus_monoids(s, 150, 12) if M.size <= 12):
        expected = sorted(_primes_by_definition(M), key=canonical_key)
        assert list(primes_bruteforce(M).points) == expected, M.table
    assert max(widths) == width


def _every_instance_scan(table):
    """The primes of a table by the lane scan that tests every instance of both laws."""
    n = len(table)
    full = (1 << (1 << (n - 1))) - 1
    P = [0] + lanes(n - 1)
    NP = [full ^ lane for lane in P]
    bad = 0
    for a, v in {(a, v) for a in range(1, n) for v in table[a] if v != a}:
        bad |= P[a] & NP[v]
    for a, b, p in {(a, b, table[a][b]) for a in range(1, n) for b in range(a, n) if table[a][b]}:
        bad |= NP[a] & NP[b] & P[p]
    points = (frozenset(x + 1 for x in members(h)) for h in members(full ^ bad))
    return sorted(points, key=canonical_key)


def test_primes_bruteforce_matches_every_instance_scan():
    """The scan that skips the complement-law instances which cannot fire
    finds the primes of the scan that tests them all."""
    base = [cyclic_monoid(i, p) for i in range(16) for p in range(1, 17 - i)]
    base += [chain_semilattice(n).monoid for n in range(1, 18)]
    base += [free_semilattice(k).monoid for k in range(5)]
    products = [direct_product(M, N) for M, N in combinations_with_replacement(base, 2)
                if M.size * N.size <= 16]
    corpus = [M for s in range(3) for M in corpus_monoids(s, 150, 10)]
    for M in base + products + corpus:
        assert list(primes_bruteforce(M, cap=17).points) == _every_instance_scan(M.table), M.table
    # 24 elements: a prime of a product is the union of a proper upset of
    # each chain, pair (i, j) at i * 6 + j
    M = direct_product(chain_semilattice(4).monoid, chain_semilattice(6).monoid)
    expected = {frozenset(i * 6 + j for i in range(4) for j in range(6) if i >= k or j >= l)
                for k in range(1, 5) for l in range(1, 7)}
    points = primes_bruteforce(M, cap=24).points
    assert len(points) == 24 and set(points) == expected


def _union_oracle(points):
    index = {p: i for i, p in enumerate(points)}
    return tuple(tuple(index[p | q] for q in points) for p in points)


def test_build_spectrum_union_table_matches_frozensets():
    for s in range(3):
        for M in corpus_monoids(s, 150, 10):
            S = primes_bruteforce(M)
            assert S.union_table == _union_oracle(S.points), M.table
    # the primes of free(2) less {1, 2, 3}, the union of {1, 3} and {2, 3}
    M = free_semilattice(2).monoid
    with pytest.raises(IntegrityError, match=r"union of primes \[1, 3\] and \[2, 3\] is not a prime"):
        build_spectrum(M, [frozenset(), frozenset({2, 3}), frozenset({1, 3})])


def test_kernels_scale_to_free_8():
    """Free semilattice on 8 generators, a | b on 256 elements: validation, a
    rejection and the union table.  Nothing is timed; the test stays fast
    while associativity costs O(n^2 |G|) and a union one int OR."""
    n = 256
    table = [[a | b for b in range(n)] for a in range(n)]
    M = validate_monoid(table)
    broken = [row[:] for row in table]
    broken[1][2] = broken[2][1] = 4  # still commutative, with identity 0
    with pytest.raises(ValidationError, match="associative") as err:
        validate_monoid(broken)
    i, j, k = map(int, re.search(r"triple \((\d+),(\d+),(\d+)\)", str(err.value)).groups())
    assert broken[broken[i][j]][k] != broken[i][broken[j][k]]
    # the primes are the complements of the principal downsets, and the
    # union of the complements of a and b is the complement of a & b
    primes = [frozenset(x for x in range(n) if x & ~a) for a in range(n)]
    S = build_spectrum(M, primes)
    position = {p: k for k, p in enumerate(S.points)}
    at = [position[p] for p in primes]
    expected = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            expected[at[a]][at[b]] = at[a & b]
    assert S.union_table == tuple(map(tuple, expected))


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
    _, fails, total = verify.run_suite("three_routes", corpus_monoids(0, 20, 6), [])
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
    """A tabulation that drops a point reaches brute and alpha, not hom.

    Both `build_spectrum` and the brute scan tabulate through `_tabulate`.
    The hom route sorts its own kernels, so it still disagrees with the other
    two; a hom route through `build_spectrum` would agree with them here.
    """
    valid = spectrum._tabulate

    def faulty(points):
        points, table = valid(points)
        return points[:-1], table

    monkeypatch.setattr(spectrum, "_tabulate", faulty)
    I = sierpinski()
    assert route_primes(I, "brute") == route_primes(I, "alpha") == (frozenset(),)
    assert _routes_disagree(capsys) == (20, 20)


def test_alpha_fault_is_caught_on_a_presentation(monkeypatch, capsys):
    """`spec` prints the alpha route's own points for a `.pres` too, so an
    alpha route missing a prime makes the routes disagree there."""
    valid = spectrum.spec_monoid

    def faulty(M, *args, **kwargs):
        S = valid(M, *args, **kwargs)
        return S._replace(points=S.points[:-1])

    monkeypatch.setattr(spectrum, "spec_monoid", faulty)
    data = Path(__file__).resolve().parent.parent / "data"
    assert cli.main(["spec", "--via", "all", str(data / "xy.pres")]) == 2
    captured = capsys.readouterr()
    assert "routes agree: NO" in captured.out
    assert "routes disagree" in captured.err


def test_brute_fault_fails_topology_checks(monkeypatch):
    """A missing or swapped prime makes the topology checks fail, not raise."""
    L = free_semilattice(2)
    valid = verify.primes_bruteforce
    _drop_last_point(monkeypatch, verify)
    assert verify.alpha_holds(L) is False
    _, fails, _ = verify.run_suite("alpha_suite", [L])
    assert fails == 1

    def swapped(M, *args, **kwargs):
        S = valid(M, *args, **kwargs)
        return S._replace(points=S.points[:-1] + (S.points[-1] | {0},))

    monkeypatch.setattr(verify, "primes_bruteforce", swapped)
    M = L.monoid
    assert len(verify.primes_bruteforce(M).points) == len(valid(M).points)
    assert verify.theta_holds(M) is False
    _, fails, _ = verify.run_suite("theta", [M])
    assert fails == 1


def test_alpha_fault_fails_alpha_suite(monkeypatch):
    """Two elements' primes swapped in one lattice make the alpha suite fail."""
    L = free_semilattice(2)
    valid = verify.alpha

    def swapped(K, a):
        return valid(K, {1: 2, 2: 1}.get(a, a) if K is L else a)

    monkeypatch.setattr(verify, "alpha", swapped)
    _, fails, total = verify.run_suite("alpha_suite", [chain_semilattice(3), L])
    assert (fails, total) == (1, 2)


def test_brute_fault_fails_duals_checks(monkeypatch):
    """A missing prime makes the double-spectrum check fail, not raise."""
    L = free_semilattice(2)
    _drop_last_point(monkeypatch, verify)
    assert verify.spec_spec_check(L) is False
    _, fails, _ = verify.run_suite("duals", [L])
    assert fails == 1


def test_brute_fault_fails_limits_checks(monkeypatch):
    """A missing prime makes the colimit and profinite checks fail, not raise."""
    L = free_semilattice(2)
    chain = [frozenset({0}), frozenset({0, 1}), frozenset(range(4))]
    _drop_last_point(monkeypatch, limits)
    assert limits.zg_check(L.monoid, chain) is False
    assert limits.profinite_check(L) is False
    _, fails, _ = verify.run_suite("limits", [(L.monoid, chain)], [L])
    assert fails >= 1


def test_bruteforce_cap():
    with pytest.raises(CapExceeded, match="size 4 exceeds the cap of 3"):
        primes_bruteforce(free_semilattice(2).monoid, cap=3)
    # a raised cap: 15 lanes of 2^15 bits (60 KB) in windows over the 4 other
    # elements; whatever the cap, the scan stops at 32 elements
    assert len(primes_bruteforce(chain_semilattice(20).monoid, cap=20).points) == 20
    with pytest.raises(CapExceeded, match="size 33 exceeds the cap of 32"):
        primes_bruteforce(chain_semilattice(33).monoid, cap=100)


def test_faulty_scan_stops_before_building_its_subsets(monkeypatch):
    """A scan that keeps more subsets than the table has elements raises at
    once: with empty lanes no law fires, so the scan of the high elements
    keeps each subset of them and yields the largest first, and that first
    window, every high element in, keeps all its 2^15 subsets."""
    monkeypatch.setattr(spectrum, "lanes", lambda k: [0] * k)
    with pytest.raises(IntegrityError, match="kept 32768 subsets of 20 elements"):
        primes_bruteforce(chain_semilattice(20).monoid, cap=20)


@pytest.mark.parametrize("n", [24, 32])
def test_faulty_scan_stops_in_its_first_window_at_scale(monkeypatch, n):
    monkeypatch.setattr(spectrum, "lanes", lambda k: [0] * k)
    start = time.perf_counter()
    with pytest.raises(IntegrityError, match=f"kept 32768 subsets of {n} elements"):
        primes_bruteforce(chain_semilattice(n).monoid, cap=32)
    assert time.perf_counter() - start < 1


def _relabelled(M, seed):
    """M with its non-identity elements permuted by a seeded shuffle."""
    perm = [0, *random.Random(seed).sample(range(1, M.size), M.size - 1)]
    table = [[0] * M.size for _ in M.table]
    for a, row in enumerate(M.table):
        for b, v in enumerate(row):
            table[perm[a]][perm[b]] = perm[v]
    return validate_monoid(table)


def test_brute_scan_agrees_with_alpha_at_32_elements(monkeypatch):
    """At 32 elements the scan takes its windows from a scan of its 16 high
    elements, which takes its own from a scan of one: the primes are the alpha
    route's, each run takes under a second, and no level asks for lanes wider
    than W."""
    def bounded(k):
        if k > spectrum.W:
            raise AssertionError(f"lanes of width {k} asked for")
        return lanes(k)

    monkeypatch.setattr(spectrum, "lanes", bounded)
    scale = Path(__file__).resolve().parent / "scale"
    free5, null32 = (parse_monoid_table((scale / name).read_text()) for name in ("free5.mon", "null32.mon"))
    null_zero_last = validate_monoid([[b if a == 0 else a if b == 0 else 31 for b in range(32)]
                                      for a in range(32)])
    chains = direct_product(chain_semilattice(4).monoid, chain_semilattice(8).monoid)
    cases = [(free5, 32), (null32, 2), (null_zero_last, 2), (chains, 32)]
    cases += [(_relabelled(free5, seed), 32) for seed in range(3)]
    for M, count in cases:
        start = time.perf_counter()
        points = primes_bruteforce(M, cap=32).points
        assert time.perf_counter() - start < 1
        assert len(points) == count and points == spec_monoid(M, cap=32).points


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


def _presented_supports(P):
    """The generator supports of P's primes, read off its reflection's alpha route."""
    L, gen_images = sl_of_presentation(P)
    return generator_supports(gen_images, route_primes(L.monoid, "alpha"))


def test_spec_presentation_examples():
    P = parse_presentation("gens: t")
    supports = _presented_supports(P)
    assert sorted(supports, key=canonical_key) == [frozenset(), frozenset({0})]
    assert render_support(P, supports[1]) == "(t)"

    P2 = parse_presentation("gens: x y")
    supports2 = _presented_supports(P2)
    assert sorted(len(s) for s in supports2) == [0, 1, 1, 2]


def test_generator_supports_must_separate_the_primes():
    """Two primes holding the same generators are a bug, not bad input."""
    points = (frozenset(), frozenset({1}), frozenset({1, 2}))
    assert generator_supports((1, 2), points) == (frozenset(), frozenset({0}), frozenset({0, 1}))
    with pytest.raises(IntegrityError, match="do not separate"):
        generator_supports((1,), points)


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
    # a monoid that is not idempotent has more elements than its double dual
    for index, period in ((2, 2), (1, 2), (2, 3), (3, 1)):
        assert ev_check(cyclic_monoid(index, period)) is False


def test_power_submonoid_check():
    A = cyclic_monoid(2, 2)
    assert power_submonoid_check((A, frozenset(A.elements())))
    B = frozenset({0, 2, 3})  # generated by t2; t's square lands in it
    assert power_submonoid_check((A, B))
    assert power_submonoid_check((z2(), {0}))
    with pytest.raises(ValidationError, match="not a submonoid"):
        power_submonoid_check((A, {0, 1}))
    # {1} inside the free semilattice: no power of a generator ever returns
    with pytest.raises(ValidationError, match="no power"):
        power_submonoid_check((free_semilattice(1).monoid, {0}))


def test_theta_is_monoid_iso_pointwise():
    for M in corpus_monoids(12, count=20, max_size=8):
        homs = monoid_homs(M, sierpinski())
        assert len(homs) == len(primes_bruteforce(M).points)
        for f in homs:
            for g in homs:
                prod = MonoidMap(M, sierpinski(),
                                 tuple(a | b for a, b in zip(f.images, g.images)))
                assert theta(prod) == theta(f) | theta(g)
