from time import perf_counter

import pytest

from monospec.core import sierpinski, submonoid_as_monoid, submonoid_closure, validate_monoid
from monospec.corpus import chain_semilattice, corpus_semilattices, corpus_submonoid_chains
from monospec.errors import CapExceeded, ValidationError
from monospec import limits
from monospec.limits import (
    InverseSystem,
    inverse_limit,
    profinite_check,
    profinite_spec,
    profinite_system,
    subsemilattices,
    zg_check,
)
from monospec.presentation import free_semilattice
from monospec.semilattice import from_monoid
from monospec.spectrum import primes_bruteforce


def test_inverse_limit_identity_self_transition():
    assert inverse_limit(InverseSystem([2], {(0, 0): (0, 1)})) == [(0,), (1,)]


def test_inverse_limit_single_stage():
    sys1 = InverseSystem([3], {})
    assert inverse_limit(sys1) == [(0,), (1,), (2,)]


def test_inverse_limit_constant_map():
    sys2 = InverseSystem([1, 3], {(0, 1): (0, 0, 0)})
    assert inverse_limit(sys2) == [(0, 0), (0, 1), (0, 2)]


def test_inverse_limit_needs_a_greatest_stage():
    with pytest.raises(ValidationError, match="greatest stage"):
        inverse_limit(InverseSystem([2, 2], {}))


def test_zg_on_free_semilattice_chain():
    F = free_semilattice(2).monoid
    chain = [frozenset({0}), frozenset({0, 1}), frozenset(range(4))]
    assert zg_check(F, chain)


def test_zg_trivial_chain():
    assert zg_check(sierpinski(), [frozenset({0}), frozenset({0, 1})])
    assert zg_check(validate_monoid([[0]]), [frozenset({0})])


def test_zg_computes_each_spectrum_once(monkeypatch):
    """The union is the last stage, so its primes are not computed again;
    they come from the hom route, so brute force reads only the stages below."""
    calls = []

    def counting(M, *args, **kwargs):
        calls.append(M.size)
        return primes_bruteforce(M, *args, **kwargs)

    monkeypatch.setattr(limits, "primes_bruteforce", counting)
    F = free_semilattice(2).monoid
    assert zg_check(F, [frozenset({0}), frozenset({0, 1}), frozenset(range(4))])
    assert calls == [1, 2]


def test_zg_fails_when_every_stage_spectrum_is_cut_to_the_empty_prime(monkeypatch):
    """The union's primes come from an independent route, so stage spectra
    missing primes cannot agree with each other and pass."""
    def faulty(M, *args, **kwargs):
        S = primes_bruteforce(M, *args, **kwargs)
        return S._replace(points=S.points[:1])

    monkeypatch.setattr(limits, "primes_bruteforce", faulty)
    F = free_semilattice(2).monoid
    assert zg_check(F, [frozenset({0}), frozenset({0, 1}), frozenset(range(4))]) is False


def test_zg_fails_on_a_stage_spectrum_missing_a_prime(monkeypatch):
    """The middle stage {0, 1} of free_semilattice(2) losing its last prime
    leaves a prime of the union with no restriction there."""
    def faulty(M, *args, **kwargs):
        S = primes_bruteforce(M, *args, **kwargs)
        return S._replace(points=S.points[:-1]) if M.size == 2 else S

    monkeypatch.setattr(limits, "primes_bruteforce", faulty)
    F = free_semilattice(2).monoid
    assert not zg_check(F, [frozenset({0}), frozenset({0, 1}), frozenset(range(4))])


def test_zg_builds_each_stage_monoid_once(monkeypatch):
    """The union is the last stage, so no stage monoid is built twice."""
    built = []

    def counting(M, S):
        built.append(frozenset(S))
        return submonoid_as_monoid(M, S)

    monkeypatch.setattr(limits, "submonoid_as_monoid", counting)
    F = free_semilattice(2).monoid
    chain = [frozenset({0}), frozenset({0, 1}), frozenset(range(4))]
    assert zg_check(F, chain)
    assert built == chain
    for M, stages in corpus_submonoid_chains(21, count=10):
        built.clear()
        assert zg_check(M, stages)
        assert built == [frozenset(s) for s in stages]


def test_zg_rejects_a_chain_that_is_not_one():
    F = free_semilattice(2).monoid
    with pytest.raises(ValidationError, match="empty chain"):
        zg_check(F, [])
    with pytest.raises(ValidationError, match="stage 1 is not a submonoid"):
        zg_check(F, [frozenset({0}), frozenset({1})])
    with pytest.raises(ValidationError, match="chain is not increasing at stage 1"):
        zg_check(F, [frozenset({0, 1}), frozenset({0})])


def test_zg_on_corpus_chains():
    for M, stages in corpus_submonoid_chains(21, count=25):
        assert zg_check(M, stages)


def test_subsemilattices_of_chain():
    L = chain_semilattice(3)
    # all subsets containing the bottom are join closed in a chain
    assert len(subsemilattices(L)) == 4


def _subsemilattices_by_definition(L):
    """Every subset holding the least element and closed under join, over all 2^n subsets."""
    out = []
    for mask in range(1 << L.size):
        members = [x for x in L.elements() if (mask >> x) & 1]
        if 0 in members and all(L.join(a, b) in members for a in members for b in members):
            out.append(tuple(members))
    return sorted(out, key=lambda s: (len(s), s))


def test_subsemilattices_match_definition():
    lattices = [L for s in range(3) for L in corpus_semilattices(s, 40, 10)]
    lattices += [chain_semilattice(1), from_monoid(sierpinski())]
    for L in lattices:
        assert subsemilattices(L) == _subsemilattices_by_definition(L)
    assert subsemilattices(chain_semilattice(1)) == [(0,)]
    for L, count in ((free_semilattice(3), 61), (free_semilattice(4), 2480),
                     (chain_semilattice(12), 2048)):
        stages = subsemilattices(L)
        assert len(stages) == count
        assert stages == _subsemilattices_by_definition(L)


def test_profinite_examples():
    L = from_monoid(sierpinski())
    stages, families, evaluations = profinite_spec(L)
    assert len(families) == 2
    assert profinite_check(L)
    assert profinite_check(chain_semilattice(1))
    assert profinite_check(chain_semilattice(3))
    assert profinite_check(free_semilattice(2))


def test_profinite_system_relates_covers():
    _, system = profinite_system(chain_semilattice(3))
    assert system.relations == [(0, 1), (0, 2), (1, 3), (2, 3)]


def test_inverse_limit_checks_relations_off_the_tree():
    """On the diamond of chain(3)'s covers the BFS tree from stage 3 uses
    (1, 3), (2, 3) and (0, 1); a fault in (0, 2) shows only in the check."""
    maps = {(0, 1): (0, 0, 1), (0, 2): (0, 0, 1), (1, 3): (0, 1, 2), (2, 3): (0, 1, 2)}
    coherent = inverse_limit(InverseSystem([2, 3, 3, 3], maps))
    assert coherent == [(0, 0, 0, 0), (0, 1, 1, 1), (1, 2, 2, 2)]
    maps[(0, 2)] = (0, 1, 1)  # top point 1 reaches stage 0 as 0 via stage 1, as 1 via stage 2
    assert inverse_limit(InverseSystem([2, 3, 3, 3], maps)) == [
        (0, 0, 0, 0), (1, 2, 2, 2)]


def test_profinite_free_semilattice_4():
    stages, system = profinite_system(free_semilattice(4))
    assert (len(stages), len(system.relations)) == (2480, 10825)
    assert profinite_check(free_semilattice(4))
    # 32 elements: refused before the 2^31-mask subsemilattice scan
    start = perf_counter()
    with pytest.raises(CapExceeded, match="size 32 exceeds the cap of 16"):
        profinite_check(free_semilattice(5))
    assert perf_counter() - start < 0.5


def test_wrong_transition_is_caught(monkeypatch):
    """Changing one entry of one transition makes both checks fail."""
    valid_limit = limits.inverse_limit

    def faulty(system):
        sizes, maps = system.sizes, dict(system.maps)
        rel = next(r for r in system.relations if r[0] != r[1] and sizes[r[0]] >= 2)
        t = list(maps[rel])
        t[0] = (t[0] + 1) % sizes[rel[0]]
        maps[rel] = tuple(t)
        return valid_limit(InverseSystem(sizes, maps))

    monkeypatch.setattr(limits, "inverse_limit", faulty)
    for L in (free_semilattice(2), chain_semilattice(3), free_semilattice(3)):
        assert not profinite_check(L)
    F = free_semilattice(2).monoid
    assert not zg_check(F, [frozenset({0}), frozenset({0, 1}), frozenset(range(4))])
