"""The suites judge each distinct table once and still count every occurrence.

Under a brute-force fault that fails only the 3-element tables, the suites
must count exactly what a plain per-item loop counts, and renaming every
element leaves every suite's counts unchanged: verdicts read tables, not
names, which is what makes keying them by table sound.  One `run_all` shares
a memo that it drops when it returns or raises, hands out values no caller
can change, and never hides a patched route.  A verdict that raises an input
or integrity error fails its item, so a fault that makes a checker raise
still prints every suite line, and so does a reflection fault that the
corpus meets while it is built.  Each verdict branch that no other test
drives to False has a named fault that takes it.
"""

import contextlib
import inspect
import sys

import pytest

from faults import count_kernel_runs, patch_every_binding
from monospec import congruence, core, limits, spectrum, verify
from monospec.cli import main
from monospec.core import FiniteMonoid
from monospec.corpus import corpus_monoids, corpus_presentations
from monospec.errors import IntegrityError, ValidationError
from monospec.presentation import Presentation
from monospec.semilattice import JoinSemilattice, MonotoneMap


@pytest.fixture
def size3_fault(monkeypatch):
    """Every binding of brute force drops its last prime on 3-element tables."""
    valid = spectrum.primes_bruteforce

    def faulty(M, *args, **kwargs):
        S = valid(M, *args, **kwargs)
        return S._replace(points=S.points[:-1]) if M.size == 3 else S

    patch_every_binding(monkeypatch, "primes_bruteforce", faulty)


def test_counts_match_a_per_item_loop(size3_fault):
    monoids = corpus_monoids(0, 150, 10)
    for key, holds, corpora in (("three_routes", verify.routes_agree, (monoids, [])),
                                ("theta", verify.theta_holds, (monoids,)),
                                ("grillet", verify.grillet_holds, (monoids,))):
        fails = 0
        for M in monoids:
            if not holds(M):
                fails += 1
        assert verify.run_suite(key, *corpora)[1:] == (fails, len(monoids))
    failing = [M.table for M in monoids if not verify.routes_agree(M)]
    # the fault bites, and repeated tables count once per occurrence
    assert 0 < len(set(failing)) < len(failing) < len(monoids)


@pytest.mark.parametrize("error", [ValidationError, IntegrityError])
def test_a_raising_verdict_fails_each_occurrence(error):
    judged = []

    def holds(item):
        judged.append(item)
        if item % 2:
            raise error(f"item {item}")
        return item != 4

    assert verify.count_failures(holds, [1, 2, 3, 1, 4, 3, 3, 2]) == 6
    assert judged == [1, 2, 3, 4]


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
    failing = 0
    for key, corpora in verify.suite_corpora(0).items():
        result = verify.run_suite(key, *corpora)
        assert verify.run_suite(key, *map(_renamed, corpora)) == result
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

    def raising(M):
        assert core._memo.table is run_memos[1]
        raise RuntimeError("suite crashed")

    monkeypatch.setitem(verify.SUITES, "theta", ("theta", raising))
    with pytest.raises(RuntimeError, match="suite crashed"):
        verify.run_all(0, quick=True)
    assert core._memo.table is None
    assert len(run_memos) == 2


def test_memo_hands_out_values_no_caller_can_change(run_memos):
    verify.run_all(0, quick=True)
    names = {fn.__name__ for fn, _ in run_memos[0]}
    assert {"_monoids", "right_adjoint"} <= names
    for (fn, _), value in run_memos[0].items():
        assert _frozen(value), fn.__name__
    # every count draws the same sequence; each read is a new list
    expected = corpus_monoids(0, count=30, max_size=8)
    assert len(expected) == 30 and corpus_monoids(0, 80, 8)[:30] == expected
    with core.memo_scope():
        corpus_monoids(0, count=30, max_size=8).clear()
        assert corpus_monoids(0, count=30, max_size=8) == expected
        assert corpus_monoids(0, count=80, max_size=8)[:30] == expected


def test_corpus_and_routes_share_presented_reflections():
    """`corpus_presentations` reflects each candidate as the route suite does,
    so inside one scope the route suite reuses every accepted reflection."""
    with core.memo_scope():
        presentations = corpus_presentations(0, count=30)
        memo = core._memo.table

        def reflected():
            return {args for fn, args in memo if fn.__name__ == "sl_of_presentation"}

        before = reflected()
        # every one past the fixed first presentation was drawn and reflected
        assert {(P,) for P in presentations[1:]} <= before
        assert verify.run_suite("three_routes", [], presentations)[1] == 0
        assert reflected() - before == {(presentations[0],)}


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


def _size_of_bare_table(arg):
    """The size of a table argument; else arg."""
    return len(arg) if type(arg) is tuple and arg and type(arg[0]) is tuple else arg


def _size_of_table(arg):
    """The size of a table argument, or of a monoid's or a semilattice's table; else arg."""
    arg = getattr(arg, "monoid", arg)
    return arg.size if isinstance(arg, FiniteMonoid) else _size_of_bare_table(arg)


class _SizeKeyedMemo(dict):
    """A run memo that keys each argument by `size_of` of it."""

    def __init__(self, size_of):
        super().__init__()
        self.size_of = size_of

    def _confused(self, key):
        fn, args = key
        return fn, tuple(map(self.size_of, args))

    def __getitem__(self, key):
        return super().__getitem__(self._confused(key))

    def __setitem__(self, key, value):
        super().__setitem__(self._confused(key), value)


def _verify_under_size_keyed_memo(monkeypatch, capsys, size_of):
    """The exit code and the suite lines of `verify --quick --seed 1` when its
    run memo keys each argument by `size_of` of it."""

    @contextlib.contextmanager
    def size_keyed_scope():
        with core.memo_scope():
            core._memo.table = _SizeKeyedMemo(size_of)
            yield

    monkeypatch.setattr(verify, "memo_scope", size_keyed_scope)
    code = main(["verify", "--quick", "--seed", "1"])
    return code, _suite_lines(capsys.readouterr().out)


def test_memo_that_confuses_tables_fails_verify(monkeypatch, capsys):
    """A memo that keys a table by its size alone hands one table's spectra,
    reflections, homs and meet tables to every table of that size: the routes
    then agree on wrong answers where one memo answers them all, and the
    suites must still fail."""
    code, lines = _verify_under_size_keyed_memo(monkeypatch, capsys, _size_of_table)
    assert code == 2
    assert [name for _, name in lines] == [name for name, *_ in verify.SUITES.values()]
    assert ("FAIL", "three-route agreement") in lines


def test_memo_that_confuses_bare_tables_fails_verify(monkeypatch, capsys):
    """A memo that keys only bare table arguments by their size confuses the
    hom search and the brute scan, not the reflections.  The join-map corpus
    is drawn from confused hom sets, so some of its maps are not join maps;
    the verdicts derive the right adjoints, so each such map fails its item
    instead of stopping the run before any suite line is printed."""
    code, lines = _verify_under_size_keyed_memo(monkeypatch, capsys, _size_of_bare_table)
    assert code == 2
    assert [name for _, name in lines] == [name for name, *_ in verify.SUITES.values()]
    assert ("FAIL", "naturality of the spectrum bijection") in lines
    assert ("FAIL", "adjoint existence, round trip, duality") in lines


def test_run_all_kernel_runs_stay_bounded(monkeypatch):
    """Over seeds 6-11 the run memo lets `run_all` run the hom search 702
    times and the brute scan 385 times, renamed copies of a table included,
    and compute 1619 right adjoints, each map's once for the naturality and
    adjoint suites together."""
    runs = count_kernel_runs(monkeypatch)
    for seed in range(6, 12):
        verify.run_all(seed)
    assert runs["homs"] <= 702 and runs["brute"] <= 385 and runs["adjoints"] <= 1619


def test_hom_bit_flip_fails_suites_through_the_cli(monkeypatch, capsys):
    """A hom search that flips the last image of its last hom into {1, 0}
    makes some checkers raise (a kernel that is not a prime ideal); each
    raising verdict fails its item, so every suite line is printed."""
    valid = core.monoid_homs

    def flipped(M, N, *args, **kwargs):
        homs = valid(M, N, *args, **kwargs)
        if N.size != 2 or not homs:
            return homs
        last = homs[-1]
        return homs[:-1] + (last._replace(images=last.images[:-1] + (1 - last.images[-1],)),)

    patch_every_binding(monkeypatch, "monoid_homs", flipped)
    assert main(["verify", "--quick", "--seed", "1"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" ", 1)[1].rsplit(" (", 1)[0] for line in lines] == [
        name for name, *_ in verify.SUITES.values()]
    assert any(line.startswith("FAIL ") for line in lines)


def test_reflection_fault_fails_suites_through_the_cli(monkeypatch, capsys):
    """A closure that drops the last pair (a, b) with a != b leaves reflections
    that are not idempotent.  The semilattice corpus skips the tables whose
    reflection raises, so every suite line is printed and the suites that
    reflect a table fail."""
    valid = congruence.congruence_closure

    def missed(M, pairs):
        pairs = list(pairs)
        last = max((i for i, (a, b) in enumerate(pairs) if a != b), default=len(pairs))
        return valid(M, pairs[:last] + pairs[last + 1:])

    monkeypatch.setattr(congruence, "congruence_closure", missed)
    assert main(["verify", "--quick", "--seed", "1"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" ", 1)[1].rsplit(" (", 1)[0] for line in lines] == [
        name for name, *_ in verify.SUITES.values()]
    failing = {line.split(" ", 1)[1].rsplit(" (", 1)[0] for line in lines if line.startswith("FAIL ")}
    assert {"three-route agreement", "core and reflection invariants"} <= failing


def _suite_lines(out):
    """(status, suite name) of each line `verify` printed."""
    return [tuple(line.rsplit(" (", 1)[0].split(" ", 1)) for line in out.splitlines()]


def _stages_fault(monkeypatch, broken):
    """`limits.subsemilattices` returns broken(L, its valid stages)."""
    valid = limits.subsemilattices
    monkeypatch.setattr(limits, "subsemilattices", lambda L: broken(L, valid(L)))


def _full_stage_dropped(L, stages):
    return [s for s in stages if len(s) < L.size]


def _unclosed_stage_added(L, stages):
    """range(n - 1) holds 0, so it is a stage exactly when it is join-closed."""
    extra = tuple(range(L.size - 1))
    return stages if extra in stages else stages + [extra]


def _drop_stage(L, stages, k):
    """The stages less stages[k], when it exists and is not the full stage."""
    if 0 <= k < len(stages) and len(stages[k]) < L.size:
        return stages[:k] + stages[k + 1:]
    return stages


def _bottom_stage_dropped(L, stages):
    return _drop_stage(L, stages, 0)


def _second_stage_dropped(L, stages):
    return _drop_stage(L, stages, 1)


def _middle_stage_dropped(L, stages):
    return _drop_stage(L, stages, len(stages) // 2)


def _stage_below_full_dropped(L, stages):
    return _drop_stage(L, stages, len(stages) - 2)


@pytest.mark.parametrize("broken", [_full_stage_dropped, _unclosed_stage_added,
                                    _bottom_stage_dropped, _second_stage_dropped,
                                    _middle_stage_dropped, _stage_below_full_dropped])
def test_subsemilattice_fault_fails_the_limits_suite(monkeypatch, capsys, broken):
    """A stage list that breaks a theorem is an integrity failure of the
    limits suite, not a crash: every suite line is printed.  A dropped stage
    T - {x} is one, since no two other elements of T join to x."""
    _stages_fault(monkeypatch, broken)
    assert main(["verify", "--quick", "--seed", "1"]) == 2
    lines = _suite_lines(capsys.readouterr().out)
    assert [name for _, name in lines] == [name for name, *_ in verify.SUITES.values()]
    assert ("FAIL", "colimit and profinite limits") in lines


@pytest.fixture
def lane_fault(monkeypatch):
    """Every binding of `lanes` copies its next-to-last lane into the last one from k = 3."""
    valid = core.lanes

    def faulty(k):
        P = valid(k)
        return P[:-1] + P[-2:-1] if k >= 3 else P

    patch_every_binding(monkeypatch, "lanes", faulty)


def test_lane_fault_breaks_route_agreement(lane_fault):
    assert not all(map(verify.routes_agree, corpus_monoids(0, 150, 10)))


def test_lane_fault_fails_verify_through_the_cli(lane_fault, capsys):
    assert main(["verify", "--quick", "--seed", "1"]) == 2
    lines = _suite_lines(capsys.readouterr().out)
    assert [name for _, name in lines] == [name for name, *_ in verify.SUITES.values()]
    assert ("FAIL", "three-route agreement") in lines


def _branch_taken(verdict, test, item) -> bool:
    """Whether verdict(item) runs the body of the verdict's `if <test>:`, the
    statement that makes it False."""
    lines, first = inspect.getsourcelines(verdict)
    [at] = [first + i for i, line in enumerate(lines) if line.strip() == f"if {test}:"]
    run = set()

    def trace(frame, event, arg):
        if frame.f_code is not verdict.__code__:
            return None
        run.add(frame.f_lineno)
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        verdict(item)
    finally:
        sys.settrace(previous)
    return at + 1 in run


def _last_image_flipped(theta_inverse):
    """θ⁻¹ whose indicator hom sends its last element to the other value."""
    def faulty(M, members):
        f = theta_inverse(M, members)
        return f._replace(images=f.images[:-1] + (1 - f.images[-1],))
    return faulty


def _last_row_bottom(meet_table):
    """Meets with the last element all read as the bottom, 0."""
    def faulty(L):
        meets = meet_table(L)
        return meets[:-1] + (meets[0],)
    return faulty


def _bottom_and_last_swapped(alpha):
    """α with the primes of the bottom and the last element exchanged."""
    return lambda L, a: alpha(L, {0: L.size - 1, L.size - 1: 0}.get(a, a))


def _second_read_as_bottom(alpha):
    """α that gives element 1 the prime of element 0."""
    return lambda L, a: alpha(L, 0 if a == 1 else a)


def _last_image_shifted(right_adjoint):
    """Right adjoint whose last image moves to the next element of its target."""
    def faulty(f):
        g = right_adjoint(f)
        return g._replace(images=g.images[:-1] + ((g.images[-1] + 1) % g.target.size,))
    return faulty


def _size(item):
    return item.source.size if isinstance(item, MonotoneMap) else item.size


@pytest.mark.parametrize("name, fault, verdict, test, key", [
    pytest.param("theta_inverse", _last_image_flipped, "theta_holds",
                 "theta_inverse(M, pf) != f", "theta", id="theta-round-trip"),
    pytest.param("meet_table", _last_row_bottom, "alpha_holds",
                 "points[meets[a][b]] != points[a] | points[b]", "alpha_suite", id="alpha-meets"),
    pytest.param("alpha", _bottom_and_last_swapped, "alpha_holds",
                 "L.le(a, b) != (points[a] >= points[b])", "alpha_suite", id="alpha-order"),
    pytest.param("right_adjoint", _last_image_shifted, "naturality_square",
                 "lhs != rhs", "naturality", id="naturality"),
    pytest.param("alpha", _second_read_as_bottom, "spec_spec_check",
                 "len(set(composite)) != len(SS.points)", "duals", id="double-alpha-size"),
])
def test_named_fault_takes_its_verdict_branch(monkeypatch, name, fault, verdict, test, key):
    """A fault in verify's own binding of `name` runs the branch of `verdict`
    that compares with `test`, on an item where the valid binding does not,
    and fails the suite `key` at seed 1."""
    verdict = getattr(verify, verdict)
    corpora = verify.suite_corpora(1, quick=True)[key]
    item = next(x for x in corpora[0] if _size(x) >= 3)
    assert verdict(item) and not _branch_taken(verdict, test, item)
    assert verify.run_suite(key, *corpora)[1] == 0
    monkeypatch.setattr(verify, name, fault(getattr(verify, name)))
    assert _branch_taken(verdict, test, item)
    assert verify.run_suite(key, *corpora)[1] > 0
