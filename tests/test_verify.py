"""The suites judge each distinct table once and still count every occurrence.

Under a brute-force fault that fails only the 3-element tables, the suites
must count exactly what a plain per-item loop counts, and renaming every
element leaves every suite's counts unchanged: verdicts read tables, not
names, which is what makes keying them by table sound.  One `run_all` shares
a memo that it drops when it returns or raises, hands out values no caller
can change, and never hides a patched route.
"""

import contextlib

import pytest

from monospec import core, limits, spectrum, topology, verify
from monospec.cli import main
from monospec.core import SUBSET_CAP, FiniteMonoid
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
        return S._replace(points=S.points[:-1]) if M.size == 3 else S

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
        return item._replace(names=tuple(f"m{i}" for i in item.elements()))
    if isinstance(item, JoinSemilattice):
        return item._replace(monoid=_renamed(item.monoid))
    if isinstance(item, MonotoneMap):
        return item._replace(source=_renamed(item.source), target=_renamed(item.target))
    if isinstance(item, Presentation):
        return item._replace(generators=tuple(f"x{i}" for i in range(len(item.generators))))
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


def _frozen(value) -> bool:
    """True when nothing reachable from value can be changed in place."""
    if isinstance(value, (bool, int, str, type(None))):
        return True
    if isinstance(value, (tuple, frozenset)):  # records are tuples of their fields
        return all(map(_frozen, value))
    return False


@pytest.fixture
def run_memos(monkeypatch):
    """The memo of every `run_all` scope, recorded as the scope opens."""
    memos = []

    @contextlib.contextmanager
    def recording_scope():
        with core.memo_scope():
            memos.append(core._memo.table)
            yield

    monkeypatch.setattr(verify, "memo_scope", recording_scope)
    return memos


def test_run_all_drops_its_memo(run_memos, monkeypatch):
    verify.run_all(0, quick=True)
    assert core._memo.table is None
    assert len(run_memos) == 1 and run_memos[0]

    def raising(monoids):
        assert core._memo.table is run_memos[1]
        raise RuntimeError("suite crashed")

    monkeypatch.setattr(verify, "check_theta", raising)
    with pytest.raises(RuntimeError, match="suite crashed"):
        verify.run_all(0, quick=True)
    assert core._memo.table is None
    assert len(run_memos) == 2


def test_memo_hands_out_values_no_caller_can_change(run_memos):
    verify.run_all(0, quick=True)
    names = {fn.__name__ for fn, *_ in run_memos[0]}
    assert "_monoid_sequence" in names
    for (fn, *_), value in run_memos[0].items():
        assert fn.__name__ == "_monoid_sequence" or _frozen(value), fn.__name__
    # the corpus comes from a sequence that only grows; each read is a new list
    expected = corpus_monoids(0, count=30, max_size=8)
    assert len(expected) == 30 and corpus_monoids(0, 80, 8)[:30] == expected
    with core.memo_scope():
        corpus_monoids(0, count=30, max_size=8).clear()
        assert corpus_monoids(0, count=30, max_size=8) == expected
        assert corpus_monoids(0, count=80, max_size=8)[:30] == expected


def test_corpus_and_routes_share_presented_reflections():
    """`corpus_presentations` reflects each candidate as `spec_presentation` does,
    so inside one scope the route suite reuses every accepted reflection."""
    with core.memo_scope():
        presentations = corpus_presentations(0, count=30)
        memo = core._memo.table

        def reflected():
            return {args for fn, args, *_ in memo if fn.__name__ == "sl_of_presentation"}

        before = reflected()
        # every one past the fixed first presentation was drawn and reflected
        assert {(P, SUBSET_CAP) for P in presentations[1:]} <= before
        assert verify.check_three_routes([], presentations)[1] == 0
        assert reflected() - before == {(presentations[0], SUBSET_CAP)}


def test_brute_fault_fails_verify_through_the_cli(monkeypatch, capsys):
    """A patched route binding is seen inside the run's memo scope."""
    valid = spectrum.primes_bruteforce

    def faulty(M, *args, **kwargs):
        S = valid(M, *args, **kwargs)
        return S._replace(points=S.points[:-1])

    monkeypatch.setattr(spectrum, "primes_bruteforce", faulty)
    assert main(["verify", "--seed", "0"]) == 2
    out = capsys.readouterr().out
    assert "FAIL three-route agreement" in out.splitlines()[0]
