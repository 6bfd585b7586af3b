import re
import threading
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from faults import count_kernel_runs
from monospec import core, spectrum
from monospec.congruence import congruence_closure, sl_reflection
from monospec.core import (
    MonoidMap,
    direct_product,
    format_monoid_table,
    is_hom,
    is_idempotent,
    memo_scope,
    memoized,
    monoid_homs,
    parse_monoid_table,
    render_set,
    sierpinski,
    submonoid_closure,
    trivial_monoid,
    units,
    validate_monoid,
)
from monospec.corpus import chain_semilattice, corpus_monoids, cyclic_monoid
from monospec.errors import ParseError, ValidationError
from monospec.limits import profinite_system
from monospec.presentation import Presentation, free_semilattice, parse_presentation, sl_of_presentation
from monospec.semilattice import from_monoid, meet_table, monotone_map
from monospec.spectrum import primes_bruteforce, route_primes
from monospec.topology import ideal_opens


def z2():
    return validate_monoid([[0, 1], [1, 0]], identity=0, names=["1", "g"])


def laws_hold(table, identity):
    """Independent triple-loop oracle for the monoid laws."""
    n = len(table)
    if any(table[identity][i] != i for i in range(n)):
        return False
    if any(table[i][j] != table[j][i] for i in range(n) for j in range(n)):
        return False
    return all(
        table[table[i][j]][k] == table[i][table[j][k]]
        for i in range(n)
        for j in range(n)
        for k in range(n)
    )


def test_validate_sierpinski():
    # table given with identity at index 1, as in {0, 1} with unit 1
    M = validate_monoid([[0, 0], [0, 1]], identity=1, names=["0", "1"])
    assert M.names == ("1", "0")  # identity relabeled to the front
    assert M.table == sierpinski().table


def test_validate_trivial_and_group():
    assert trivial_monoid().size == 1
    assert units(z2()) == frozenset({0, 1})


def test_validation_witnesses():
    with pytest.raises(ValidationError, match="identity"):
        validate_monoid([[1, 1], [1, 1]], identity=0)
    with pytest.raises(ValidationError, match="commutative"):
        validate_monoid([[0, 1, 2], [1, 1, 1], [2, 2, 2]], identity=0)
    with pytest.raises(ValidationError, match="associative"):
        validate_monoid([[0, 1, 2], [1, 0, 2], [2, 2, 1]], identity=0)
    with pytest.raises(ValidationError, match="duplicate name"):
        validate_monoid([[0, 1], [1, 1]], identity=0, names=["a", "a"])
    with pytest.raises(ValidationError, match="square"):
        validate_monoid([[0, 1], [1]], identity=0)


@pytest.mark.parametrize("table, identity, names, message", [
    ([], 0, None, "empty table: a monoid needs at least the identity"),
    ([[0, 2], [1, 1]], 0, None, "entry (0,1) = 2 is out of range [0,2)"),
    ([[0, 1], [1, 1]], 2, None, "identity index 2 is out of range [0,2)"),
    ([[0, 1], [1, 1]], 0, ["a"], "1 names for 2 elements"),
])
def test_validation_errors_only_the_api_reaches(table, identity, names, message):
    with pytest.raises(ValidationError) as caught:
        validate_monoid(table, identity=identity, names=names)
    assert str(caught.value) == message


@pytest.mark.parametrize("table, names, message", [
    ([[1, 1], [1, 1]], ["e", "x"], "broken identity: e*e = x, expected e"),
    ([[0, 1, 2], [1, 1, 1], [2, 2, 2]], ["e", "x", "y"], "not commutative at pair (x,y): x != y"),
    ([[0, 1, 2], [1, 0, 2], [2, 2, 1]], ["e", "x", "y"],
     "not associative at triple (x,y,y): (x*y)*y = x but x*(y*y) = e"),
    ([[0, 1, 2], [1, 0, 2], [2, 2, 1]], None,
     "not associative at triple (1,2,2): (1*2)*2 = 1 but 1*(2*2) = 0"),
    # the names are checked before the laws
    ([[0, 1, 2], [1, 1, 1], [2, 2, 2]], ["e", "x"], "2 names for 3 elements"),
    ([[0, 1, 2], [1, 1, 1], [2, 2, 2]], ["e", "x", "x"], "duplicate name 'x' at indices 1 and 2"),
])
def test_law_errors_name_the_elements(table, names, message):
    with pytest.raises(ValidationError) as caught:
        validate_monoid(table, names=names)
    assert str(caught.value) == message


def test_is_idempotent():
    assert is_idempotent(sierpinski())
    assert not is_idempotent(z2())
    assert is_idempotent(trivial_monoid())


def test_units():
    assert units(sierpinski()) == frozenset({0})
    F = free_semilattice(2).monoid
    assert units(F) == frozenset({0})


def test_submonoid_closure():
    assert submonoid_closure(z2(), {1}) == frozenset({0, 1})
    F = free_semilattice(2).monoid
    assert submonoid_closure(F, {1}) == frozenset({0, 1})
    assert submonoid_closure(z2(), set()) == frozenset({0})


def test_direct_product():
    P = direct_product(sierpinski(), sierpinski())
    assert P.size == 4 and is_idempotent(P)
    F = free_semilattice(2).monoid
    # isomorphic to the free semilattice on two generators
    assert sorted(sorted(row) for row in P.table) == sorted(sorted(row) for row in F.table)
    Q = direct_product(z2(), trivial_monoid())
    assert Q.table == z2().table
    R = direct_product(z2(), sierpinski())
    assert len(units(R)) == 2


def test_is_hom():
    I = sierpinski()
    assert is_hom(MonoidMap(I, I, (0, 1)))
    assert is_hom(MonoidMap(z2(), I, (0, 0)))
    assert not is_hom(MonoidMap(I, I, (1, 0)))


def test_hom_composition():
    I = sierpinski()
    F = free_semilattice(2).monoid
    for f in monoid_homs(F, I):
        for g in monoid_homs(I, I):
            assert is_hom(MonoidMap(F, I, tuple(g.images[x] for x in f.images)))


def test_monoid_homs_matches_definition():
    """The homs are the maps that pass is_hom, lexicographically."""
    targets = (sierpinski(), z2(), chain_semilattice(3).monoid, cyclic_monoid(1, 2))
    for M in corpus_monoids(0, 150, 5):
        for N in targets:
            # product() yields the candidate image tuples in lexicographic order
            expected = [images for images in
                        ((0,) + rest for rest in product(range(N.size), repeat=M.size - 1))
                        if is_hom(MonoidMap(M, N, images))]
            assert [h.images for h in monoid_homs(M, N)] == expected


@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.just(n),
                        st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                                 min_size=n, max_size=n),
                        st.integers(0, n - 1))))
def test_fuzz_validation_matches_law_oracle(args):
    n, table, identity = args
    try:
        validate_monoid(table, identity=identity)
        accepted = True
    except ValidationError:
        accepted = False
    assert accepted == laws_hold(table, identity)


def _symmetric_with_identity(n, upper):
    """The n-element table with identity row 0 and entries (i, j), i <= j, from upper."""
    table = [list(range(n))] + [[0] * n for _ in range(n - 1)]
    cells = iter(upper)
    for i in range(1, n):
        table[i][0] = i
        for j in range(i, n):
            table[i][j] = table[j][i] = next(cells)
    return table


@settings(derandomize=True, max_examples=400)
@example((5, [1, 2, 3, 4, 2, 3, 4, 3, 4, 4]))  # chain(5) under max
@example((5, [1] * 10))  # every product of non-identity elements is 1
@given(st.integers(1, 5).flatmap(
    lambda n: st.tuples(st.just(n),
                        st.lists(st.integers(0, n - 1),
                                 min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))))
def test_fuzz_associativity_matches_law_oracle(args):
    """Tables that pass the identity and commutativity checks reach the
    associativity check; a rejection names a triple that really fails."""
    n, upper = args
    t = _symmetric_with_identity(n, upper)
    try:
        validate_monoid(t)
    except ValidationError as err:
        assert not laws_hold(t, 0)
        i, j, k = map(int, re.search(r"not associative at triple \((\d+),(\d+),(\d+)\)",
                                     str(err)).groups())
        assert t[t[i][j]][k] != t[i][t[j][k]]
    else:
        assert laws_hold(t, 0)


def test_lanes_and_members_match_their_definitions():
    for k in range(7):
        P = core.lanes(k)
        assert len(P) == k
        for x, lane in enumerate(P):
            assert lane >> (1 << k) == 0  # 2^k bits wide
            for m in range(1 << k):
                assert (lane >> m) & 1 == (m >> x) & 1
            # members reads a lane back as the subsets that hold x, highest first
            assert list(core.members(lane)) == [m for m in reversed(range(1 << k)) if (m >> x) & 1]
        for m in range(1 << k):
            assert list(core.members(m)) == [h for h in reversed(range(k)) if (m >> h) & 1]


def test_lanes_are_built_once_and_handed_out_as_copies():
    """Each call returns a fresh list of one width's cached lanes, so a
    caller that changes its list changes nothing the next caller gets."""
    first = core.lanes(5)
    expected = list(first)
    assert core.lanes(5) == expected and core.lanes(5) is not first
    first[0] = 0
    first.append(7)
    assert core.lanes(5) == expected


def test_closed_sets_lists_the_fixed_masks_in_order():
    for k in range(7):  # k = 0 gives the one empty set
        assert list(core.closed_sets(k, lambda x: x)) == list(range(2 ** k))

    # bit 0 pulls in bit 1, and bit 2 pulls in everything
    def close(x):
        x |= 2 if x & 1 else 0
        return 7 if x & 4 else x
    assert list(core.closed_sets(3, close)) == [m for m in range(8) if close(m) == m] == [0, 2, 3, 7]


def test_closed_sets_is_lazy():
    calls = []

    def close(x):
        calls.append(x)
        return x

    for k in range(5):
        calls.clear()
        next(core.closed_sets(k, close))
        assert calls == [0]


def test_render_set():
    M = z2()
    assert render_set(M, set()) == "{}"
    assert render_set(M, {1, 0}) == "{1, g}"


def test_table_roundtrip():
    text = "# comment\nelements: 1 t t2\nidentity: 1\ntable:\n1 t t2\nt t2 t2\nt2 t2 t2\n"
    M = parse_monoid_table(text)
    assert M.names == ("1", "t", "t2")
    assert parse_monoid_table(format_monoid_table(M)) == M


def test_table_parse_errors():
    with pytest.raises(ParseError, match="line 1"):
        parse_monoid_table("nonsense: a b")
    with pytest.raises(ParseError, match="unknown identity"):
        parse_monoid_table("elements: a\nidentity: b\ntable:\na\n")
    with pytest.raises(ParseError, match="expected 2 table rows"):
        parse_monoid_table("elements: a b\nidentity: a\ntable:\na b\n")


def test_memoized_calls_through_outside_a_scope():
    calls = []

    @memoized
    def square(x, shift=0):
        calls.append(x)
        return x * x + shift

    assert (square(3), square(3)) == (9, 9)
    assert calls == [3, 3]
    with memo_scope():
        assert core._memo.table == {}
        assert (square(3), square(3), square(4), square(3, shift=1)) == (9, 9, 16, 10)
        assert calls == [3, 3, 3, 4, 3]
        with memo_scope():  # a nested scope starts empty and leaves the outer one
            assert square(3) == 9
        assert square(3) == 9
        assert calls == [3, 3, 3, 4, 3, 3]
    assert core._memo.table is None
    with pytest.raises(ZeroDivisionError):
        with memo_scope():
            square(1 / 0)
    assert core._memo.table is None


def test_memo_scope_is_per_thread():
    seen = []
    with memo_scope():
        worker = threading.Thread(target=lambda: seen.append(core._memo.table))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert core._memo.table == {}
    assert seen == [None]


def test_memoized_functions_do_not_share_entries():
    @memoized
    def double(x):
        return 2 * x

    @memoized
    def triple(x):
        return 3 * x

    with memo_scope():
        assert (double(5), triple(5), double(5), triple(5)) == (10, 15, 10, 15)
        assert len(core._memo.table) == 2


def test_memo_keys_positional_calls():
    """A call is keyed by its positional arguments as given, and a call with a
    keyword computes afresh.  `primes_bruteforce(M)`, `(M, 16)` and
    `(M, cap=16)` still share the brute scan's one entry, keyed by M's table
    and the cap, which `primes_bruteforce` passes positionally."""
    calls = []

    @memoized
    def shifted(x, shift=0):
        calls.append(x)
        return x + shift

    with memo_scope():
        assert (shifted(1), shifted(1, 0), shifted(1), shifted(1, 0)) == (1, 1, 1, 1)
        assert calls == [1, 1]
        assert list(core._memo.table) == [(shifted.__wrapped__, (1,)), (shifted.__wrapped__, (1, 0))]
        assert (shifted(1, shift=0), shifted(x=1), shifted(1, shift=0)) == (1, 1, 1)
        assert calls == [1, 1, 1, 1, 1]
        with pytest.raises(TypeError):
            shifted(1, bound=0)
        with pytest.raises(TypeError):
            shifted(1, 0, shift=0)
        with pytest.raises(TypeError):
            shifted(shift=0)
        assert calls == [1, 1, 1, 1, 1] and len(core._memo.table) == 2
    M = cyclic_monoid(1, 2)
    with memo_scope():
        S = primes_bruteforce(M)
        assert primes_bruteforce(M, 16) == S and primes_bruteforce(M, cap=16) == S
        assert S.owner is M
        assert list(core._memo.table) == [(spectrum._brute_primes.__wrapped__, (M.table, 16))]
        primes_bruteforce(M, 17)
        assert len(core._memo.table) == 2


def test_memo_keys_compare_names():
    """A memo key compares arguments by value, names included.  The hom search
    and the brute scan take tables, so a renamed copy shares their entries;
    the reflection and the meet table key their whole argument.  Each call
    gets back what it computes outside a scope, under its own names."""
    M = cyclic_monoid(1, 2)  # t ~ t2 in the reflection, so it renames classes
    N = validate_monoid(M.table, names=["u", "v", "w"])
    L = sl_reflection(M)[0]
    K = from_monoid(validate_monoid(L.monoid.table, names=["a", "b"]))
    calls = {monoid_homs: ((M, M), (N, N)), primes_bruteforce: ((M,), (N,)),
             sl_reflection: ((M,), (N,)), meet_table: ((L,), (K,))}
    with memo_scope():
        first = {fn: fn(*args) for fn, (args, _) in calls.items()}
        renamed = {fn: fn(*args) for fn, (_, args) in calls.items()}
        assert all(fn(*args) == first[fn] for fn, (args, _) in calls.items())
        assert sl_reflection(M) is first[sl_reflection]
        assert sorted(fn.__name__ for fn, _ in core._memo.table) == [
            "_brute_primes", "_hom_images", "meet_table", "meet_table",
            "sl_reflection", "sl_reflection"]
        # an idempotent table is its own reflection, under either names
        sl_reflection(K.monoid)
        R, q = sl_reflection(L.monoid)
        assert R.monoid is L.monoid and q.target is L.monoid
        # an unhashable argument has no key and is computed each time
        unhashable = Presentation(("x",), [])
        assert sl_of_presentation(unhashable)[0].names == ("{}", "{x}")
        assert sl_of_presentation(unhashable) is not sl_of_presentation(unhashable)
    for fn, (_, args) in calls.items():
        assert renamed[fn] == fn(*args), fn.__name__
    assert {(h.source.names, h.target.names) for h in renamed[monoid_homs]} == {(N.names, N.names)}
    assert renamed[primes_bruteforce].owner.names == ("u", "v", "w")
    R, q = renamed[sl_reflection]
    assert R.names == ("[u]", "[v]") and q.source.names == ("u", "v", "w") and q.target is R.monoid


def test_renamed_copy_runs_each_kernel_once(monkeypatch):
    """Inside one scope, the hom and brute routes on M and on a renamed copy
    run the hom search and the brute scan once each; outside, every call runs."""
    runs = count_kernel_runs(monkeypatch)
    M = cyclic_monoid(2, 3)
    N = validate_monoid(M.table, names=[f"x{i}" for i in M.elements()])
    with memo_scope():
        for via in ("hom", "brute"):
            assert route_primes(M, via) == route_primes(N, via)
        assert runs == {"homs": 1, "brute": 1, "adjoints": 0}
    for via in ("hom", "brute"):
        route_primes(M, via), route_primes(N, via)
    assert runs == {"homs": 3, "brute": 3, "adjoints": 0}


def _records():
    """One value of each record type."""
    M, L = z2(), chain_semilattice(3)
    return [
        M,
        MonoidMap(M, sierpinski(), (0, 0)),
        congruence_closure(M, [(0, 1)]),
        parse_presentation("gens: x y\nrels: x = y^2\n"),
        L,
        monotone_map(L, L, (0, 2, 2)),
        primes_bruteforce(M),
        ideal_opens(L),
        profinite_system(L)[1],
    ]


def test_records_are_immutable_values():
    """Records hash and compare as the tuple of their fields, refuse assignment,
    and `_replace` gives an equal copy."""
    records = _records()
    assert len({type(r) for r in records}) == 9
    for r in records:
        if type(r).__name__ == "InverseSystem":
            with pytest.raises(TypeError):  # its maps are a dict
                hash(r)
        else:
            assert hash(r) == hash(tuple(r)) == hash(type(r)(*r))
        assert r == tuple(r) and type(r)(*r) == r
        first = r._fields[0]
        with pytest.raises(AttributeError):
            setattr(r, first, getattr(r, first))
        copy = r._replace(**{first: getattr(r, first)})
        assert copy == r and type(copy) is type(r)
        assert repr(r).startswith(f"{type(r).__name__}({first}=")
