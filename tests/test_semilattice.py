import pytest

from monospec import verify

from monospec.core import sierpinski, validate_monoid
from monospec.corpus import chain_semilattice, corpus_join_morphisms, corpus_semilattices
from monospec.dot import hasse_dot
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
        if L.leq[x][a] and L.leq[x][b]:
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
    # 1 and 2 both lie below 3 and 4, so 3 and 4 have no greatest lower bound
    below = {(1, 3), (1, 4), (2, 3), (2, 4)}
    leq = tuple(tuple(x == y or x == 0 or (x, y) in below for y in range(5)) for x in range(5))
    with pytest.raises(IntegrityError, match="not a lattice"):
        meet_table(JoinSemilattice(chain_semilattice(5).monoid, leq))


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
