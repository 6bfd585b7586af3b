import pytest

from monospec import verify

from monospec.core import FiniteMonoid, sierpinski, validate_monoid
from monospec.corpus import chain_semilattice, corpus_join_morphisms, corpus_semilattices
from monospec.dot import cover_pairs, hasse_dot
from monospec.errors import IntegrityError, ValidationError
from monospec.presentation import free_semilattice
from monospec.semilattice import (
    check_adjunction,
    compose_monotone,
    from_monoid,
    is_meet_morphism,
    JoinSemilattice,
    left_adjoint,
    meet_table,
    monotone_map,
    right_adjoint,
    top,
)
from monospec.spectrum import alpha


def meet(L: JoinSemilattice, a: int, b: int) -> int:
    """Greatest lower bound, the oracle of `meet_table`: the top of {x | x <= a and x <= b}.

    The bound set contains the least element and is join-closed, so its join
    stays inside it and is its maximum.
    """
    m = 0
    for x in L.elements():
        if L.le(x, a) and L.le(x, b):
            m = L.join(m, x)
    return m


def two_chain():
    return chain_semilattice(2)


def three_chain():
    return chain_semilattice(3)


def test_from_monoid_orders():
    L = from_monoid(sierpinski())
    assert L.le(0, 1) and not L.le(1, 0)  # the unit is below the absorber
    assert from_monoid(validate_monoid([[0]])).size == 1
    F = free_semilattice(2)
    # union order is subset inclusion: {} below both singletons, both below the pair
    assert F.le(0, 1) and F.le(0, 2) and F.le(1, 3) and F.le(2, 3)
    assert not F.le(1, 2) and not F.le(2, 1)


def test_from_monoid_rejects_non_idempotent():
    z2 = validate_monoid([[0, 1], [1, 0]])
    with pytest.raises(ValidationError, match="idempotent"):
        from_monoid(z2)


def test_top():
    assert top(from_monoid(sierpinski())) == 1
    assert top(free_semilattice(2)) == 3
    assert top(three_chain()) == 2


def test_meet():
    F = free_semilattice(2)
    assert meet(F, 1, 2) == 0
    for L in (F, three_chain()):
        for a in L.elements():
            assert meet(L, a, a) == a
            assert meet(L, 0, a) == 0


def test_downset():
    """The downset of a is the complement of alpha(L, a)."""
    L = three_chain()
    assert frozenset(L.elements()) - alpha(L, 1) == frozenset({0, 1})
    assert frozenset(L.elements()) - alpha(L, 0) == frozenset({0})
    F = free_semilattice(2)
    assert frozenset(F.elements()) - alpha(F, 1) == frozenset({0, 1})


def chain_inclusion():
    """f from the 2-chain into the 3-chain hitting bottom and middle."""
    return monotone_map(two_chain(), three_chain(), [0, 1])


def test_right_adjoint_cases():
    f = chain_inclusion()
    g = right_adjoint(f)
    assert g.images == (0, 1, 1)
    L3 = three_chain()
    assert right_adjoint(monotone_map(L3, L3, L3.elements())).images == (0, 1, 2)
    to_point = monotone_map(three_chain(), chain_semilattice(1), [0, 0, 0])
    assert right_adjoint(to_point).images == (2,)


def test_right_adjoint_rejects_non_join_morphism():
    # the map hitting only top of the 3-chain is monotone but not a join
    # morphism; nothing maps below the middle element
    f = monotone_map(two_chain(), three_chain(), [2, 2])
    with pytest.raises(ValidationError, match="join"):
        right_adjoint(f)


def test_left_adjoint_round_trip():
    f = chain_inclusion()
    g = right_adjoint(f)
    assert left_adjoint(g).images == f.images
    L2 = two_chain()
    assert left_adjoint(monotone_map(L2, L2, L2.elements())).images == (0, 1)
    from_point = monotone_map(chain_semilattice(1), three_chain(), [0])
    # right adjoint of the point inclusion collapses everything to the point
    assert right_adjoint(from_point).images == (0, 0, 0)


def test_check_adjunction():
    f = chain_inclusion()
    g = right_adjoint(f)
    L2 = two_chain()
    ident = monotone_map(L2, L2, L2.elements())
    assert check_adjunction(ident, ident)
    assert check_adjunction(f, g)
    bad = monotone_map(g.source, g.target, (0, 0, 1))
    assert not check_adjunction(f, bad)


def test_adjoint_suite_on_corpus():
    maps = corpus_join_morphisms(11, count=60)
    assert len(maps) >= 40
    for f in maps:
        g = right_adjoint(f)
        assert check_adjunction(f, g)
        assert is_meet_morphism(g)
        assert left_adjoint(g).images == f.images
    composable = 0
    for f in maps:
        for h in maps:
            if f.target == h.source and composable < 60:
                composable += 1
                lhs = right_adjoint(compose_monotone(f, h))
                rhs = compose_monotone(right_adjoint(h), right_adjoint(f))
                assert lhs.images == rhs.images
    assert composable >= 10


def test_adjoint_fault_is_caught(monkeypatch):
    """One wrong image in one map's right adjoint makes the adjoint suite fail."""
    maps = corpus_join_morphisms(0, count=30)
    wrong = maps[0]
    valid = verify.right_adjoint

    def faulty(f):
        g = valid(f)
        if f is not wrong:
            return g
        return g._replace(images=((g.images[0] + 1) % g.target.size,) + g.images[1:])

    monkeypatch.setattr(verify, "right_adjoint", faulty)
    _, fails, _ = verify.run_suite("adjoints", *verify.adjoint_items(maps))
    assert fails >= 1


def test_meet_table_matches_meet():
    lattices = [L for s in range(3) for L in corpus_semilattices(s, 40, 10)]
    for L in lattices + [free_semilattice(4), chain_semilattice(1)]:
        assert meet_table(L) == tuple(tuple(meet(L, a, b) for b in L.elements())
                                      for a in L.elements()), L.monoid.table


def test_meet_table_rejects_a_non_lattice():
    # a table that skips validate_monoid: 0 lies below all, 1 and 2 below 3
    # and 4, 1*2 = 3 and 3*4 = 0, so the common lower bounds {0, 1, 2} of 3
    # and 4 are no downset and 3 and 4 have no greatest lower bound
    product = {(1, 2): 3, (1, 3): 3, (1, 4): 4, (2, 3): 3, (2, 4): 4, (3, 4): 0}
    table = tuple(tuple(x | y if 0 in (x, y) or x == y else product[min(x, y), max(x, y)]
                        for y in range(5)) for x in range(5))
    L = JoinSemilattice(FiniteMonoid(table, tuple("01234")))
    assert [y for y in L.elements() if L.le(1, y) and L.le(2, y)] == [3, 4]
    with pytest.raises(IntegrityError, match="not a lattice"):
        meet_table(L)


def test_absorption_order():
    for L in (free_semilattice(2), three_chain()):
        for a in L.elements():
            for b in L.elements():
                m = meet(L, a, b)
                assert L.le(m, a) and L.le(a, L.join(a, b))


def test_hasse_dot_deterministic():
    F = free_semilattice(2)
    out = hasse_dot(F)
    assert out == hasse_dot(F)
    assert out.count("->") == 4  # the diamond
    assert 'label="{}"' in out


def test_cover_pairs_match_the_definition():
    """(a, b) is a cover when a < b and the interval from a to b, the down-mask
    of b meeting the up-mask of a, holds only a and b; both masks come from
    the table, x <= y iff x*y = y."""
    lattices = [L for s in range(3) for L in corpus_semilattices(s, 40, 10)]
    for L in lattices + [free_semilattice(4)]:
        t, n = L.monoid.table, L.size
        down = [sum(1 << x for x in range(n) if t[x][b] == b) for b in range(n)]
        up = [sum(1 << y for y in range(n) if t[a][y] == y) for a in range(n)]
        expected = [(a, b) for a in range(n) for b in range(n)
                    if a != b and t[a][b] == b and down[b] & up[a] == 1 << a | 1 << b]
        assert sorted(cover_pairs(L)) == expected, t
