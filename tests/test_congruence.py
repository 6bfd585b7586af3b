import pytest

from monospec import congruence
from monospec.cli import main
from monospec.congruence import congruence_closure, grillet_relation, quotient, sl_reflection
from monospec.core import (
    format_monoid_table,
    is_idempotent,
    monoid_homs,
    sierpinski,
    validate_monoid,
)
from monospec.corpus import corpus_monoids, cyclic_group, cyclic_monoid, chain_semilattice
from monospec.errors import ValidationError


def z2():
    return validate_monoid([[0, 1], [1, 0]], identity=0, names=["1", "g"])


def t4_is_t2():
    # 1, t, t2, t3 with t4 = t2
    return cyclic_monoid(2, 2)


def test_closure_collapsing_identity_collapses_all():
    C = congruence_closure(sierpinski(), [(1, 0)])
    assert C.classes == ((0, 1),)


def test_closure_empty_is_discrete():
    C = congruence_closure(z2(), [])
    assert C.classes == ((0,), (1,))


def test_closure_squares_on_t4():
    M = t4_is_t2()
    C = congruence_closure(M, [(x, M.table[x][x]) for x in M.elements()])
    assert C.classes == ((0,), (1, 2, 3))


def test_quotient_discrete_is_isomorphic():
    M = z2()
    Q, q = quotient(M, congruence_closure(M, []))
    assert Q.table == M.table
    assert q.images == (0, 1)


def test_quotient_by_singletons_is_the_monoid_itself():
    for M in (z2(), t4_is_t2(), chain_semilattice(3).monoid):
        Q, q = quotient(M, congruence_closure(M, []))
        assert Q is M and q.source is M and q.images == tuple(M.elements())


def test_quotient_total_is_trivial():
    M = z2()
    Q, _ = quotient(M, congruence_closure(M, [(0, 1)]))
    assert Q.size == 1


def test_quotient_of_t4_closure_is_two_element():
    M = t4_is_t2()
    C = congruence_closure(M, [(x, M.table[x][x]) for x in M.elements()])
    Q, _ = quotient(M, C)
    assert Q.table == sierpinski().table


def test_quotient_rejects_foreign_congruence():
    C = congruence_closure(z2(), [])
    with pytest.raises(ValidationError):
        quotient(t4_is_t2(), C)


def test_unpropagated_closure_is_an_integrity_failure(monkeypatch, tmp_path, capsys):
    """A closure that never propagates its merges fails the congruence self-check.

    The partition check holds by theorem, so the CLI blames the code (exit 2),
    not the valid input table (exit 1).
    """

    def unpropagated(M, pairs):
        uf = congruence._UnionFind(M.size)
        for a, b in pairs:
            uf.union(a, b)
        return congruence._congruence_from_class_of(M, [uf.find(x) for x in M.elements()])

    monkeypatch.setattr(congruence, "congruence_closure", unpropagated)
    # in Z3 the unpropagated merge t ~ t2 is split by t * t = t2, t2 * t = 1
    f = tmp_path / "z3.mon"
    f.write_text(format_monoid_table(cyclic_group(3)))
    assert main(["sl", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("integrity failure: partition is not a congruence")


def test_missed_merge_is_an_integrity_failure(monkeypatch, tmp_path, capsys):
    """A closure that drops the last pair (x, x*x) with x != x*x leaves a
    quotient that is not idempotent: the code is at fault, so exit 2."""
    valid = congruence.congruence_closure

    def missed(M, pairs):
        pairs = list(pairs)
        last = max(i for i, (a, b) in enumerate(pairs) if a != b)
        return valid(M, pairs[:last] + pairs[last + 1:])

    monkeypatch.setattr(congruence, "congruence_closure", missed)
    f = tmp_path / "z2.mon"
    f.write_text(format_monoid_table(z2()))
    for argv in (["spec", "--via", "all", str(f)], ["sl", str(f)]):
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "integrity failure: the reflection is not idempotent: element g has g*g = 1\n")


def test_sl_reflection_examples():
    L, q = sl_reflection(sierpinski())
    assert L.monoid.table == sierpinski().table and q.images == (0, 1)
    L, _ = sl_reflection(z2())
    assert L.size == 1
    L, _ = sl_reflection(t4_is_t2())
    assert L.monoid.table == sierpinski().table


def test_grillet_examples():
    assert grillet_relation(sierpinski()).classes == ((0,), (1,))
    assert grillet_relation(z2()).classes == ((0, 1),)
    assert grillet_relation(t4_is_t2()).classes == ((0,), (1, 2, 3))


def test_grillet_matches_closure_on_corpus():
    for M in corpus_monoids(3, count=60, max_size=7):
        if M.size > 7:
            continue
        a = grillet_relation(M)
        b = congruence_closure(M, [(x, M.table[x][x]) for x in M.elements()])
        assert a.classes == b.classes


def test_reflection_always_idempotent():
    for M in corpus_monoids(4, count=40, max_size=8):
        L, _ = sl_reflection(M)
        assert is_idempotent(L.monoid)


def test_universal_property_desk_scale():
    targets = [sierpinski(), chain_semilattice(3).monoid, chain_semilattice(4).monoid]
    for M in corpus_monoids(5, count=20, max_size=6):
        L, q = sl_reflection(M)
        for X in targets:
            through = sorted(
                tuple(h.images[q.images[x]] for x in M.elements())
                for h in monoid_homs(L.monoid, X)
            )
            direct = sorted(h.images for h in monoid_homs(M, X))
            assert through == direct
            assert len(through) == len(set(through))
