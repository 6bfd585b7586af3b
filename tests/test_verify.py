"""The suites judge each distinct table once and still count every occurrence.

Under a brute-force fault that fails only the 3-element tables, the suites
must count exactly what a plain per-item loop counts, and renaming every
element leaves every suite's counts unchanged: verdicts read tables, not
names, which is what makes keying them by table sound.
"""

from dataclasses import replace

import pytest

from monospec import limits, spectrum, topology, verify
from monospec.core import FiniteMonoid
from monospec.corpus import (
    corpus_join_morphisms,
    corpus_monoids,
    corpus_power_pairs,
    corpus_presentations,
    corpus_semilattices,
    corpus_submonoid_chains,
)
from monospec.presentation import Presentation
from monospec.semilattice import JoinSemilattice, MonotoneMap, is_join_morphism


@pytest.fixture
def size3_fault(monkeypatch):
    """Every binding of brute force drops its last prime on 3-element tables."""
    valid = spectrum.primes_bruteforce

    def faulty(M, *args, **kwargs):
        S = valid(M, *args, **kwargs)
        return replace(S, points=S.points[:-1]) if M.size == 3 else S

    for module in (spectrum, verify, topology, limits):
        monkeypatch.setattr(module, "primes_bruteforce", faulty)


def test_counts_match_a_per_item_loop(size3_fault):
    monoids = corpus_monoids(0, 150, 10)
    for check, holds in ((lambda ms: verify.check_three_routes(ms, []), verify.routes_agree),
                         (verify.check_theta, verify.theta_holds),
                         (verify.check_grillet, verify.grillet_holds)):
        fails = 0
        for M in monoids:
            if not holds(M):
                fails += 1
        assert check(monoids)[1:] == (fails, len(monoids))
    failing = [M.table for M in monoids if not verify.routes_agree(M)]
    # the fault bites, and repeated tables count once per occurrence
    assert 0 < len(set(failing)) < len(failing) < len(monoids)


def _renamed(item):
    """`item` with every element named m0, m1, ... and generators x0, x1, ..."""
    if isinstance(item, FiniteMonoid):
        return replace(item, names=tuple(f"m{i}" for i in item.elements()))
    if isinstance(item, JoinSemilattice):
        return replace(item, monoid=_renamed(item.monoid))
    if isinstance(item, MonotoneMap):
        return replace(item, source=_renamed(item.source), target=_renamed(item.target))
    if isinstance(item, Presentation):
        return replace(item, generators=tuple(f"x{i}" for i in range(len(item.generators))))
    if isinstance(item, (tuple, list)):
        return type(item)(map(_renamed, item))
    return item


def test_names_do_not_change_verdicts(size3_fault):
    lattices = corpus_semilattices(0, count=40, max_size=10)
    join_maps = [f for f in corpus_join_morphisms(0, count=120) if is_join_morphism(f)]
    monoids = corpus_monoids(0, count=150, max_size=10)
    suites = [
        (verify.check_three_routes, monoids, corpus_presentations(0, count=60, max_gens=6)),
        (verify.check_theta, [M for M in monoids[:120] if M.size <= 8]),
        (verify.check_alpha_suite, lattices),
        (verify.check_naturality, join_maps),
        (verify.check_grillet, [M for M in monoids if M.size <= 7]),
        (verify.check_power_submonoid, corpus_power_pairs(0, count=60)),
        (verify.check_duals, [L for L in lattices if L.size <= 8]),
        (verify.check_limits, corpus_submonoid_chains(0, count=60),
         [L for L in corpus_semilattices(0, count=40, max_size=8) if L.size <= 8]),
        (verify.check_adjoints, join_maps),
        (verify.check_module_invariants, corpus_monoids(0, count=60, max_size=8)),
    ]
    failing = 0
    for check, *corpora in suites:
        result = check(*corpora)
        assert check(*map(_renamed, corpora)) == result
        failing += result[1] > 0
    assert failing >= 5
