import random
from collections import deque
from functools import cache, reduce
from itertools import combinations
from operator import add
from pathlib import Path

import pytest

from faults import drop_last_closed_set, patch_every_binding

from monospec import presentation, verify
from monospec.cli import main
from monospec.congruence import congruence_closure, quotient, sl_reflection
from monospec.core import (
    SUBSET_CAP,
    FiniteMonoid,
    MonoidMap,
    enforce_cap,
    is_hom,
    is_idempotent,
    sierpinski,
    submonoid_closure,
)
from monospec.corpus import corpus_monoids
from monospec.errors import CapExceeded, InputError, IntegrityError, ParseError
from monospec.presentation import (
    Presentation,
    free_semilattice,
    parse_presentation,
    sl_of_presentation,
    support,
)
from monospec.semilattice import from_monoid, top
from monospec.spectrum import generator_supports, route_primes

DATA = Path(__file__).resolve().parent.parent / "data"


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


def subsets_in_order(k: int) -> list[tuple[int, ...]]:
    """All subsets of range(k), by cardinality then lexicographic."""
    return [s for size in range(k + 1) for s in combinations(range(k), size)]


def free_by_table(k: int) -> FiniteMonoid:
    """The free semilattice on g1, ..., gk from its 4^k join table over
    `subsets_in_order`, with no closure and no listing of closed sets; up
    to 7 generators, as `free_semilattice` allows."""
    enforce_cap("size", 1 << k, 1 << 7)
    subsets = subsets_in_order(k)
    masks = [sum(1 << i for i in s) for s in subsets]
    index = {m: i for i, m in enumerate(masks)}
    table = tuple(tuple(index[a | b] for b in masks) for a in masks)
    names = tuple("{" + ",".join(f"g{i + 1}" for i in s) + "}" for s in subsets)
    return FiniteMonoid(table, names)


def test_free_semilattice_small():
    assert free_semilattice(1).monoid.table == sierpinski().table
    assert free_semilattice(0).size == 1
    F = free_semilattice(2)
    assert F.size == 4 and is_idempotent(F.monoid)
    with pytest.raises(CapExceeded, match="size 1048576 exceeds the cap of 128"):
        free_semilattice(20)
    for k in range(5):
        subsets = subsets_in_order(k)
        table = free_by_table(k).table
        for i, a in enumerate(subsets):
            for j, b in enumerate(subsets):
                assert table[i][j] == subsets.index(tuple(sorted(set(a) | set(b))))
    # the wrapper over the reflection gives the 4^k table and its names
    for k in range(8):
        assert free_semilattice(k).monoid == free_by_table(k), k


def free_quotient(P):
    """Reference reflection of a presentation, with the generator images.

    The quotient of the free semilattice on the generators by the congruence
    closure of the relations' supports: O(4^k), independent of the closed
    sets `sl_of_presentation` lists, since `free_by_table` lists none.  Up
    to 7 generators.
    """
    k = len(P.generators)
    F = free_by_table(k)
    index = {s: i for i, s in enumerate(subsets_in_order(k))}
    C = congruence_closure(F, [(index[support(u)], index[support(v)])
                               for u, v in P.relations])
    Q, q = quotient(F, C)
    return Q, tuple(q.images[index[(i,)]] for i in range(k))


def fixes_generators(A: FiniteMonoid, a_gens, B: FiniteMonoid, b_gens) -> bool:
    """Some isomorphism A -> B sends each a_gens[i] to b_gens[i].

    When a_gens generates A there is at most one such hom: it is read off by
    walking A from the identity along the generators, then checked to send
    each a_gens[i] to b_gens[i] and to be a bijective hom.
    """
    f = {0: 0}
    work = [0]
    while work:
        x = work.pop()
        for a, b in zip(a_gens, b_gens):
            y = A.table[x][a]
            if y not in f:
                f[y] = B.table[f[x]][b]
                work.append(y)
    return (len(f) == A.size == B.size == len(set(f.values()))
            and all(f[a] == b for a, b in zip(a_gens, b_gens))
            and is_hom(MonoidMap(A, B, tuple(f[x] for x in A.elements()))))


def test_fixes_generators_checks_every_generator():
    """The walk reaches element 1 along the first generator only, so the
    second pair (1 -> 0) must be checked apart: no map sends 1 to both."""
    F = free_semilattice(1).monoid
    assert fixes_generators(F, (1,), F, (1,))
    assert fixes_generators(F, (1, 1), F, (1, 1))
    assert not fixes_generators(F, (1, 1), F, (1, 0))


def _closed_set(L, gens, x) -> int:
    """The generators below x, as a mask: the closed set that x stands for."""
    return sum(1 << g for g, image in enumerate(gens) if L.le(image, x))


def _members(mask) -> list[int]:
    return [g for g in range(mask.bit_length()) if mask >> g & 1]


def _render(P, mask) -> str:
    return "{" + ",".join(P.generators[g] for g in _members(mask)) + "}"


def test_sl_of_presentation_examples():
    L, gens = sl_of_presentation(parse_presentation("gens: t"))
    assert L.monoid.table == sierpinski().table
    assert gens == (1,)
    assert L.names == ("{}", "{t}")

    # x^2 y = y^3 reflects to {x,y} ~ {y}: a three-element chain
    L, gens = sl_of_presentation(parse_presentation("gens: x y\nrels: x^2 y = y^3"))
    assert L.size == 3
    x, y = gens
    assert L.le(x, y) and not L.le(y, x)
    assert L.names == ("[{}]", "[{x}]", "[{x,y}]")

    # ab = c^2: the closed sets are {}, {a}, {b} and {a,b,c}, by size then lex
    L, gens = sl_of_presentation(parse_presentation("gens: a b c\nrels: a b = c^2"))
    assert L.names == ("[{}]", "[{a}]", "[{b}]", "[{a,b,c}]")
    assert gens == (1, 2, 3) and L.join(1, 2) == 3

    # x^2 = 1 collapses everything: the one closed set holds x
    L, gens = sl_of_presentation(parse_presentation("gens: x\nrels: x^2 = 1"))
    assert L.size == 1 and gens == (0,)
    assert L.names == ("[{x}]",)

    # g0 = gi^2 ties 16 generators together: {} below one top element
    names = " ".join(f"g{i}" for i in range(16))
    rels = " ; ".join(f"g0 = g{i}^2" for i in range(1, 16))
    L, gens = sl_of_presentation(parse_presentation(f"gens: {names}\nrels: {rels}"))
    assert L.size == 2 and gens == (1,) * 16
    assert L.names == ("[{}]", "[{" + ",".join(f"g{i}" for i in range(16)) + "}]")


@cache
def _oracle_items():
    """1000 seeded presentations with 0 to 7 generators, each with its 4^k
    reference, built once for the tests that compare with it: no fault that
    they inject reaches the reference."""
    rng = random.Random("closure-vs-quotient")
    presentations = [_random_presentation(rng, rng.randint(0, 7)) for _ in range(1000)]
    return tuple((P, free_quotient(P)) for P in presentations)


def test_sl_of_presentation_equals_free_quotient():
    """The reflection is the 4^k quotient up to the isomorphism that fixes
    the generators' images, and each element is named by its closed set."""
    for P, (Q, ref_gens) in _oracle_items():
        k = len(P.generators)
        L, gens = sl_of_presentation(P, cap=1 << 7)
        assert fixes_generators(L.monoid, gens, Q, ref_gens), P
        # x goes to the join of the images of the generators below x, and the
        # isomorphism carries the order too
        closed = [_closed_set(L, gens, x) for x in L.elements()]
        QL = from_monoid(Q)
        iso = [reduce(QL.join, (ref_gens[g] for g in range(k) if c >> g & 1), 0) for c in closed]
        assert all(L.le(x, y) == QL.le(iso[x], iso[y])
                   for x in L.elements() for y in L.elements()), P
        assert closed == sorted(closed, key=lambda c: (c.bit_count(), _members(c))), P
        names = tuple(_render(P, c) for c in closed)
        assert L.names == (names if L.size == 1 << k else tuple(f"[{n}]" for n in names)), P


def _swap_first_images(valid):
    """A reflection that sends the first generator where the second goes, and back."""
    def swapped(P, cap=SUBSET_CAP):
        L, gens = valid(P, cap)
        return L, gens[1::-1] + gens[2:]
    return swapped


def test_swapped_generator_images_fail_the_presented_verdict(monkeypatch):
    """With a's and b's images swapped, b = c no longer holds in L: the
    verdict reads the relations in L itself.  Comparing L with the 4^k
    reference by a walk that checked only the map it read off passed."""
    P = parse_presentation("gens: a b c\nrels: b = c")
    assert verify.presented_routes_agree(P)
    patch_every_binding(monkeypatch, "sl_of_presentation",
                        _swap_first_images(presentation.sl_of_presentation))
    assert not verify.presented_routes_agree(P)


def _oracle_verdict(P, reference):
    """The verdict by the 4^k reference: L is `free_quotient` up to the
    isomorphism that fixes the generators' images, and the routes agree on L."""
    L, gens = presentation.sl_of_presentation(P)
    Q, ref_gens = reference
    return fixes_generators(L.monoid, gens, Q, ref_gens) and verify.routes_agree(L.monoid)


def _outcome(verdict, *args):
    """What `count_failures` makes of a verdict, with a refusal kept apart."""
    try:
        return verdict(*args)
    except CapExceeded as e:
        return str(e)
    except (InputError, IntegrityError):
        return False


def _one_way(valid):
    """Each relation u = v read as u = u v, so only supp(u) => supp(v) holds."""
    def one_way(P, cap=SUBSET_CAP):
        rels = tuple((u, tuple(map(add, u, v))) for u, v in P.relations)
        return valid(P._replace(relations=rels), cap)
    return one_way


def _closure_on_meeting_premises(x, rules):
    """A Horn closure that fires a rule once its premise meets the set."""
    while True:
        y = x
        for a, b in rules:
            if a & y or not a:
                y |= b
        if y == x:
            return x
        x = y


def _swap_join_entries(valid):
    """A reflection whose joins 1 v 2 and 1 v 3 trade places (kept symmetric)."""
    def swapped(P, cap=SUBSET_CAP):
        L, gens = valid(P, cap)
        if L.size < 4:
            return L, gens
        t = [list(row) for row in L.monoid.table]
        t[1][2], t[1][3] = t[1][3], t[1][2]
        t[2][1], t[3][1] = t[1][2], t[1][3]
        return from_monoid(L.monoid._replace(table=tuple(map(tuple, t)))), gens
    return swapped


def _last_to_top(valid):
    """A reflection that sends the last generator to the top."""
    def raised(P, cap=SUBSET_CAP):
        L, gens = valid(P, cap)
        return L, gens[:-1] + (top(L),) if gens else gens
    return raised


FAULTS = {
    "none": None,
    "one-way Horn rules": ("sl_of_presentation", _one_way),
    "closure on meeting premises": ("_horn_closure", lambda valid: _closure_on_meeting_premises),
    "swapped join entries": ("sl_of_presentation", _swap_join_entries),
    "swapped generator images": ("sl_of_presentation", _swap_first_images),
    "last generator to the top": ("sl_of_presentation", _last_to_top),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_presented_verdict_matches_the_free_quotient_oracle(fault, monkeypatch):
    """On 1000 seeded presentations with 0 to 7 generators, the verdict by
    the universal property gives the outcome of the 4^k reference plus the
    routes, a refusal at the cap included, with no fault and under each."""
    items = _oracle_items()
    if FAULTS[fault]:
        name, make = FAULTS[fault]
        patch_every_binding(monkeypatch, name, make(getattr(presentation, name)))
    outcomes = []
    for P, reference in items:
        outcome = _outcome(verify.presented_routes_agree, P)
        assert outcome == _outcome(_oracle_verdict, P, reference), (fault, P)
        outcomes.append(outcome)
    assert {len(P.generators) for P, _ in items} == set(range(8))
    # both outcomes occur, refusals too, and each fault fails some items
    assert outcomes.count(True) >= 100 and any(isinstance(o, str) for o in outcomes)
    failed = outcomes.count(False)
    assert failed == 0 if fault == "none" else failed >= 100, failed


def _tied(k):
    """k generators in 4 blocks tied by g_i = g_(i+4)^2: 16 closed sets from 4 on."""
    rels = tuple((tuple(int(g == i) for g in range(k)), tuple(2 * (g == i + 4) for g in range(k)))
                 for i in range(k - 4))
    return Presentation(tuple(f"g{i}" for i in range(k)), rels)


def test_presented_verdict_reaches_the_generator_cap():
    """The 2^k count of homs P -> {1, 0} is capped at 16 generators, past the
    4^k reference's 7, and refuses the 17th."""
    with pytest.raises(CapExceeded):
        free_quotient(_tied(8))
    for k in (12, SUBSET_CAP):
        assert sl_of_presentation(_tied(k))[0].size == 16
        assert verify.presented_routes_agree(_tied(k)), k
    with pytest.raises(CapExceeded) as info:
        verify.presented_routes_agree(_tied(SUBSET_CAP + 1))
    assert str(info.value) == "generators 17 exceeds the cap of 16"


def _scan_reflection(P):
    """The reference: Horn closures of all 2^k generator sets.

    Each mask's closure comes from the closure of the mask less its lowest
    bit, and classes are numbered by their first subset in `subsets_in_order`.
    Returns each class's closed set, the generators' classes and the
    closure of every mask.
    """
    k = len(P.generators)
    rules = set()
    for u, v in P.relations:
        a = sum(1 << g for g in support(u))
        b = sum(1 << g for g in support(v))
        rules |= {(a, b), (b, a)}

    def close(x):
        while True:
            y = x
            for a, b in rules:
                if a & y == a:
                    y |= b
            if y == x:
                return x
            x = y

    closure = [close(0)] + [0] * ((1 << k) - 1)
    for x in range(1, 1 << k):
        low = x & -x
        c = closure[x ^ low]
        closure[x] = c if c & low else close(c | low)
    numbered = {}
    for subset in subsets_in_order(k):
        numbered.setdefault(closure[sum(1 << g for g in subset)], len(numbered))
    return tuple(numbered), tuple(numbered[closure[1 << g]] for g in range(k)), closure


def _random_presentation(rng, k):
    rels = tuple((tuple(rng.choice((0, 0, 1, 2)) for _ in range(k)),
                  tuple(rng.choice((0, 0, 1, 3)) for _ in range(k)))
                 for _ in range(rng.randint(0, k + 2)))
    return Presentation(tuple(f"g{i}" for i in range(k)), rels)


def test_next_closure_matches_the_subset_scan():
    """NextClosure lists the family the 2^k scan finds, with the same
    generator images and join table up to renaming, and the same cap outcome."""
    rng = random.Random("next-closure-vs-scan")
    outcomes = {"within": 0, "over": 0}
    ks = set()  # the generator counts whose families were compared
    for _ in range(600):
        k = rng.randint(0, 10)
        P = _random_presentation(rng, k)
        cap = rng.choice((4, 16, 64, 256))
        family, ref_gens, closure = _scan_reflection(P)
        try:
            L, gens = sl_of_presentation(P, cap)
        except CapExceeded as e:
            assert len(family) > cap, P
            assert str(e) == f"reflection size {cap + 1} exceeds the cap of {cap}"
            outcomes["over"] += 1
            if len(family) > 128:
                continue
            # at a cap of exactly |L|, the family is listed in full
            L, gens = sl_of_presentation(P, len(family))
        else:
            assert len(family) <= cap, P
            outcomes["within"] += 1
        ks.add(k)
        closed = [_closed_set(L, gens, x) for x in L.elements()]
        assert sorted(closed) == sorted(family), P
        assert [closed[g] for g in gens] == [family[g] for g in ref_gens], P
        assert all(closed[L.join(x, y)] == closure[closed[x] | closed[y]]
                   for x in L.elements() for y in L.elements()), P
    assert min(outcomes.values()) >= 100 and ks == set(range(11)), (outcomes, ks)


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


def table_presentation(M):
    """M as a presentation P_M on a greedy generating set G, and G.

    Each element x gets a word w(x) over G by BFS from the identity, and
    P_M has the relation w(x)·g = w(x·g) for every x and g; every word then
    rewrites to w of its value, so P_M presents M itself.
    """
    G = []
    for x in M.elements():
        if x not in submonoid_closure(M, G):
            G.append(x)

    def times(word, i):
        return tuple(e + (j == i) for j, e in enumerate(word))

    words = {0: (0,) * len(G)}
    queue = deque([0])
    while queue:
        x = queue.popleft()
        for i, g in enumerate(G):
            if M.mul(x, g) not in words:
                words[M.mul(x, g)] = times(words[x], i)
                queue.append(M.mul(x, g))
    rels = tuple((times(words[x], i), words[M.mul(x, g)])
                 for x in M.elements() for i, g in enumerate(G))
    return Presentation(tuple(f"g{i}" for i in range(len(G))), rels), G


def table_presentation_mismatches(monoids) -> int:
    """The monoids M whose P_M's generator supports are not {P ∩ G : P a brute prime of M}."""
    fails = 0
    for M in monoids:
        P, G = table_presentation(M)
        expected = {frozenset(i for i, g in enumerate(G) if g in p) for p in route_primes(M, "brute")}
        try:
            L, gens = sl_of_presentation(P)
            fails += set(generator_supports(gens, route_primes(L.monoid, "alpha"))) != expected
        except (InputError, IntegrityError):
            fails += 1
    return fails


def test_table_presentations_have_the_primes_of_their_tables():
    monoids = [M for seed in range(3) for M in corpus_monoids(seed)]
    assert len(monoids) == 450
    assert max(len(table_presentation(M)[1]) for M in monoids) > 5
    assert table_presentation_mismatches(monoids) == 0


def test_support_fault_fails_the_table_presentations(monkeypatch):
    """A `support` that keeps only exponents >= 2 passes for the presentation
    path's own routes, but not against the primes of the tables."""
    patch_every_binding(monkeypatch, "support",
                        lambda word: tuple(i for i, e in enumerate(word) if e >= 2))
    assert table_presentation_mismatches(corpus_monoids(0)) > 0


def test_one_pass_horn_closure_is_an_integrity_failure(monkeypatch, tmp_path, capsys):
    """A Horn closure that applies its rules once lists a set that is not
    closed, which the check against the rules themselves catches.

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
    assert err == ("integrity failure: listed generator set {g1,g2,g3,g4} is not closed "
                   "under the rule {g1,g4} => {g0}\n")


def test_closed_sets_dropping_its_last_set_is_an_integrity_failure(monkeypatch, capsys):
    """A listing that loses its last closed set, the full generator set of
    `data/abc.pres`, leaves the closure of {a,b} out of the listed sets,
    which the join check catches: the CLI blames the code (exit 2)."""
    drop_last_closed_set(monkeypatch)
    assert main(["spec", "--via", "all", str(DATA / "abc.pres")]) == 2
    assert capsys.readouterr().err == ("integrity failure: the closure {a,b,c} of {a,b} "
                                       "is not a listed set\n")
