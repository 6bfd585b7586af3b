import threading
from itertools import product

import pytest
from hypothesis import given, strategies as st

from monospec import core
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
from monospec.presentation import free_semilattice, parse_presentation
from monospec.semilattice import monotone_map
from monospec.spectrum import primes_bruteforce
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
    """The homs are the maps that pass is_hom, lexicographically; limit keeps a prefix."""
    targets = (sierpinski(), z2(), chain_semilattice(3).monoid, cyclic_monoid(1, 2))
    for M in corpus_monoids(0, 150, 5):
        for N in targets:
            # product() yields the candidate image tuples in lexicographic order
            expected = [images for images in
                        ((0,) + rest for rest in product(range(N.size), repeat=M.size - 1))
                        if is_hom(MonoidMap(M, N, images))]
            assert [h.images for h in monoid_homs(M, N)] == expected
            for k in (0, 1, len(expected) // 2, len(expected) + 1):
                assert [h.images for h in monoid_homs(M, N, limit=k)] == expected[:k]


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


def test_memo_keys_compare_names():
    M = cyclic_monoid(1, 2)
    N = validate_monoid(M.table, names=["u", "v", "w"])
    with memo_scope():
        assert primes_bruteforce(M).owner.names == M.names
        assert primes_bruteforce(N).owner.names == ("u", "v", "w")
        assert sl_reflection(N)[1].source.names == ("u", "v", "w")
        # an unhashable argument has no key and is computed each time
        assert free_semilattice(1, names=["x"]).names == ("{}", "{x}")


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
