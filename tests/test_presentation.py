import random

import pytest

from monospec import presentation
from monospec.cli import main
from monospec.congruence import sl_reflection
from monospec.core import is_idempotent, sierpinski
from monospec.corpus import corpus_monoids
from monospec.errors import CapExceeded, ParseError
from monospec.presentation import (
    Presentation,
    free_semilattice,
    parse_presentation,
    sl_of_presentation,
    subsets_in_order,
)
from monospec.semilattice import from_monoid
from monospec.verify import free_quotient


def test_parse_natural_numbers():
    P = parse_presentation("gens: t")
    assert P == Presentation(("t",), ())


def test_parse_relation_exponents():
    P = parse_presentation("gens: x y\nrels: x^2 y = y^3")
    assert P.generators == ("x", "y")
    assert P.relations == (((2, 1), (0, 3)),)


def test_parse_identity_words():
    P = parse_presentation("gens: x\nrels: x^2 = x^0")
    assert P.relations == (((2,), (0,)),)
    P = parse_presentation("gens: x\nrels: x^2 = 1")
    assert P.relations == (((2,), (0,)),)


def test_parse_multiple_relations_and_comments():
    P = parse_presentation("# free-ish\ngens: a b\nrels: a = b ; a^2 = a b\n")
    assert len(P.relations) == 2


def test_parse_errors_carry_location():
    with pytest.raises(ParseError, match="line 1"):
        parse_presentation("rels: x = y")
    with pytest.raises(ParseError, match="unknown generator"):
        parse_presentation("gens: x\nrels: y = x")
    with pytest.raises(ParseError, match="negative exponent"):
        parse_presentation("gens: x\nrels: x^-2 = x")
    with pytest.raises(ParseError, match="="):
        parse_presentation("gens: x\nrels: x x")


def test_parse_error_columns_count_leading_spaces():
    for rels, column in (("rels: x = y", 11), ("rels: y = x", 7),
                         ("rels:    x = x;   y = x", 19), ("rels: x = x^-1", 13),
                         ("rels: x = x;  x x", 15), ("rels: x =  ", 10),
                         ("rels:   x =  ;x=1", 12)):
        with pytest.raises(ParseError) as info:
            parse_presentation("gens: x\n" + rels)
        assert info.value.column == column, rels


def test_parse_empty_rels_line_has_no_relations():
    for rels in ("rels:", "rels:   ", "  rels:\t"):
        assert parse_presentation("gens: x y\n" + rels) == Presentation(("x", "y"), ())


def test_parse_empty_relation_between_separators():
    for rels, column in (("rels: x = x;; x = 1", 13), ("rels: x = x; ;x = 1", 13),
                         ("rels: ; x = x", 6), ("rels: x = x;", 13)):
        with pytest.raises(ParseError, match="empty relation") as info:
            parse_presentation("gens: x\n" + rels)
        assert (info.value.line, info.value.column) == (2, column), rels


def test_free_semilattice_small():
    assert free_semilattice(1).monoid.table == sierpinski().table
    assert free_semilattice(0).size == 1
    F = free_semilattice(2)
    assert F.size == 4 and is_idempotent(F.monoid)
    with pytest.raises(CapExceeded, match="size 1048576 exceeds the cap of 128"):
        free_semilattice(20)
    for k in range(5):
        subsets = subsets_in_order(k)
        table = free_semilattice(k).monoid.table
        for i, a in enumerate(subsets):
            for j, b in enumerate(subsets):
                assert table[i][j] == subsets.index(tuple(sorted(set(a) | set(b))))


def test_sl_of_presentation_examples():
    L, gens = sl_of_presentation(parse_presentation("gens: t"))
    assert L.monoid.table == sierpinski().table
    assert gens == (1,)

    # x^2 y = y^3 reflects to {x,y} ~ {y}: a three-element chain
    L, gens = sl_of_presentation(parse_presentation("gens: x y\nrels: x^2 y = y^3"))
    assert L.size == 3
    x, y = gens
    assert L.le(x, y) and not L.le(y, x)

    # x^2 = 1 collapses everything
    L, _ = sl_of_presentation(parse_presentation("gens: x\nrels: x^2 = 1"))
    assert L.size == 1

    # g0 = gi^2 ties 16 generators together: {} below one top element
    names = " ".join(f"g{i}" for i in range(16))
    rels = " ; ".join(f"g0 = g{i}^2" for i in range(1, 16))
    L, gens = sl_of_presentation(parse_presentation(f"gens: {names}\nrels: {rels}"))
    assert L.size == 2 and gens == (1,) * 16
    assert L.names == ("[{}]", "[{g0}]")


def test_sl_of_presentation_equals_free_quotient():
    rng = random.Random("closure-vs-quotient")
    for _ in range(1000):
        k = rng.randint(0, 7)
        rels = tuple((tuple(rng.choice((0, 0, 1, 2)) for _ in range(k)),
                      tuple(rng.choice((0, 0, 1, 3)) for _ in range(k)))
                     for _ in range(rng.randint(0, k + 2)))
        P = Presentation(tuple(f"g{i}" for i in range(k)), rels)
        L, gens = sl_of_presentation(P, cap=1 << 7)
        Q, ref_gens = free_quotient(P)
        assert L.monoid == Q, P
        assert L.leq == from_monoid(Q).leq, P
        assert gens == ref_gens, P


def test_free_semilattice_prime_count():
    from monospec.spectrum import primes_bruteforce

    for k in range(4):
        F = free_semilattice(k)
        assert F.size == 2 ** k
        assert len(primes_bruteforce(F.monoid).points) == 2 ** k


def _iso_as_semilattices(A, B):
    """Unlabeled isomorphism check via canonical order invariants; desk scale."""
    from monospec.core import monoid_homs, is_hom, MonoidMap

    if A.size != B.size:
        return False
    for h in monoid_homs(A, B):
        if len(set(h.images)) == A.size:
            return True
    return False


def test_table_presentation_consistency():
    # presenting a monoid by its own multiplication table reflects to the
    # same semilattice as the direct reflection
    for M in corpus_monoids(6, count=12, max_size=6):
        gens = tuple(f"g{i}" for i in range(M.size))
        rels = []
        for i in M.elements():
            for j in M.elements():
                word_ij = tuple((1 if k == i else 0) + (1 if k == j else 0) for k in range(M.size))
                target = tuple(1 if k == M.table[i][j] else 0 for k in range(M.size))
                rels.append((word_ij, target))
        rels.append((tuple(1 if k == 0 else 0 for k in range(M.size)),
                     tuple(0 for _ in range(M.size))))
        P = Presentation(gens, tuple(rels))
        L1, _ = sl_of_presentation(P)
        L2, _ = sl_reflection(M)
        assert _iso_as_semilattices(L1.monoid, L2.monoid)


def test_one_pass_horn_closure_is_an_integrity_failure(monkeypatch, tmp_path, capsys):
    """A Horn closure that applies its rules once fails the congruence self-check.

    The check holds by theorem, so the CLI blames the code (exit 2), not the
    valid presentation (exit 1).
    """

    def one_pass(x, rules):
        for a, b in rules:
            if a & x == a:
                x |= b
        return x

    monkeypatch.setattr(presentation, "_horn_closure", one_pass)
    f = tmp_path / "g5.pres"
    f.write_text("gens: g0 g1 g2 g3 g4\n"
                 "rels: g2 = g3 g2; g2 g1 = g2; g0 = g4 g1; g0 g4 = g3 g0\n")
    assert main(["spec", "--via", "all", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("integrity failure: closure classes are not a congruence")
