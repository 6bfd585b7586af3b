"""Executable property suites and the seeded corpora the CLI runs them on.

`SUITES` maps each suite's key to its printed name and one per-item verdict
per corpus, and `run_suite(key, *corpora)` returns (name, failures, total).
Every checker the verdicts run is defined here, over the maths of
`spectrum`, `topology`, `semilattice` and `congruence`, except the limit
checks `zg_check` and `profinite_check`, which `limits` keeps beside the
systems they build.  Each verdict builds what it compares once per item;
the θ and α verdicts compare spaces by each point's least open
neighbourhood (`topology.least_opens`), never by their open families.
`count_failures` calls a verdict once per distinct table (see `_key`),
counting every occurrence: at seeds 6-11 the items of the nine suites besides
the adjoint one are 2450 distinct tables out of 5205 (4135 of 7125 with the
adjoint suite's maps and pairs), and counts a verdict that raises
`InputError` or `IntegrityError` as a failure: a failing suite is the one
way a run reports a fault.  `suite_corpora` selects each suite's corpora for
the CLI `verify` command from a seed, and `run_all` builds them
and runs every suite over them inside one `core.memo_scope`: the run shares
its corpora and the values derived from them (brute spectra, reflections of
tables and of presentations, homs, meet tables, right adjoints, chains,
cyclic and free monoids), each built once, and nothing outlives the run.
The hom search and the subset scan run once per table: a renamed copy
shares their run and gets its homs and spectrum over its own names.  The
verdicts derive every right adjoint they compare, so a corpus map that is
not a join map fails its item.  The acceptance tests build their own
corpora and call the same `run_suite`.
"""

from __future__ import annotations

from functools import reduce
from itertools import islice

from .congruence import congruence_closure, grillet_relation, sl_reflection
from .core import (
    FiniteMonoid,
    MonoidMap,
    enforce_cap,
    is_hom,
    is_idempotent,
    is_submonoid,
    memo_scope,
    monoid_homs,
    sierpinski,
    submonoid_as_monoid,
    submonoid_closure,
    units,
    validate_monoid,
)
from .corpus import (
    chain_semilattice,
    corpus_join_morphisms,
    corpus_monoids,
    corpus_power_pairs,
    corpus_presentations,
    corpus_semilattices,
    corpus_submonoid_chains,
)
from .errors import InputError, IntegrityError, ValidationError
from .limits import profinite_check, zg_check
from .presentation import sl_of_presentation, support
from .semilattice import (
    JoinSemilattice,
    MonotoneMap,
    check_adjunction,
    compose_monotone,
    from_monoid,
    left_adjoint,
    meet_table,
    right_adjoint,
)
from .spectrum import (
    ROUTES,
    alpha,
    beta,
    build_spectrum,
    canonical_key,
    greatest_prime,
    primes_bruteforce,
    route_primes,
    spec_monoid,
    spectrum_monoid,
    theta,
    theta_inverse,
)
from .topology import basic_opens, carries, hom_opens, least_opens, union_continuous


def routes_agree(M: FiniteMonoid) -> bool:
    """The three independent computations of the prime set, canonically sorted, agree."""
    return len({route_primes(M, via) for via in ROUTES}) == 1


def _key(item):
    """The data a verdict reads: tables and images, never element names."""
    if isinstance(item, FiniteMonoid):
        return item.table
    if isinstance(item, JoinSemilattice):
        return item.monoid.table
    if isinstance(item, MonotoneMap):
        return _key(item.source), _key(item.target), item.images
    if isinstance(item, (tuple, list)):
        return tuple(map(_key, item))
    if isinstance(item, (set, frozenset)):
        return frozenset(item)
    return item


def count_failures(holds, items) -> int:
    """The occurrences in `items` that fail `holds`, judging each distinct item once.

    Items are keyed by `_key`: a monoid by its table, a semilattice by its
    monoid's table, a monotone map by its endpoints' keys and its images, and
    tuples (such as the adjoint suite's pairs of maps), lists and sets by
    their frozen members.  This is sound because no
    verdict reads element names: names only flow into new names (`quotient`,
    `spectrum_monoid`) and into error text, and every value comparison inside
    a verdict compares objects derived from the same item.  A presentation
    is a tuple of its generator names and relations, keyed by value.

    A verdict that raises `InputError` or `IntegrityError` fails its item:
    the corpus builds every item as valid input that meets the suite's
    hypotheses, so such an error is a fault, never bad input.  Any other
    exception propagates.
    """
    verdicts = {}
    fails = 0
    for item in items:
        key = _key(item)
        if key not in verdicts:
            try:
                verdicts[key] = holds(item)
            except (InputError, IntegrityError):
                verdicts[key] = False
        fails += not verdicts[key]
    return fails


def presented_routes_agree(P) -> bool:
    """L = `sl_of_presentation(P)` is P's reflection R, by R's universal
    property, and the routes agree on L.

    L is a semilattice generated by the generators' images in which every
    relation holds, so it is a quotient of R.  R has |Spec R| = |Hom(P, I)|
    elements, since alpha is a bijection for finite R, and a hom P -> {1, 0}
    is a set S of generators that supp(u) meets exactly when supp(v) does,
    for every relation u = v.  So L is R when it has that many elements.
    Counting them scans the 2^k generator sets, so k is capped.
    """
    k = len(P.generators)
    enforce_cap("generators", k)
    L, images = sl_of_presentation(P)
    M = L.monoid
    validate_monoid(M.table)  # from_monoid checked idempotence

    def join(word):
        return reduce(L.join, (images[g] for g in support(word)), 0)

    sides = [(sum(1 << g for g in support(u)), sum(1 << g for g in support(v)))
             for u, v in P.relations]
    homs = sum(all(bool(a & S) == bool(b & S) for a, b in sides) for S in range(1 << k))
    return (submonoid_closure(M, images) == frozenset(M.elements())
            and all(join(u) == join(v) for u, v in P.relations)
            and L.size == homs and routes_agree(M))


def theta_holds(M: FiniteMonoid) -> bool:
    """theta: Hom(M, I) -> Spec(M) is a bijection, a monoid isomorphism and a
    homeomorphism from the product topology onto the spectral one."""
    spec = primes_bruteforce(M)
    index = {p: i for i, p in enumerate(spec.points)}
    homs = monoid_homs(M, sierpinski())
    primes = [theta(f) for f in homs]
    bijection = [index.get(p) for p in primes]
    D = basic_opens(M, spec)
    N = least_opens(len(spec.points), D)
    ok = (None not in bijection and sorted(bijection) == list(range(len(spec.points)))
          and carries(bijection, least_opens(len(homs), hom_opens(M, homs)), N))
    # pointwise: product of homs maps to union of their zero fibers
    I = sierpinski()
    for f, pf in zip(homs, primes):
        if theta_inverse(M, pf) != f:
            ok = False
        for g, pg in zip(homs, primes):
            prod = MonoidMap(M, I, tuple(a | b for a, b in zip(f.images, g.images)))
            if theta(prod) != pf | pg:
                ok = False
    # D(a) * D(b) = D(ab), and continuity of the union map
    for a in M.elements():
        for b in M.elements():
            if D[a] & D[b] != D[M.table[a][b]]:
                ok = False
    if not union_continuous(spec, N):
        ok = False
    if frozenset() not in index or index[frozenset()] != 0:
        ok = False
    if greatest_prime(M) not in index:
        ok = False
    return ok


def alpha_holds(L: JoinSemilattice) -> bool:
    """alpha is a bijection onto the primes that turns meets into unions and
    carries the ideal topology onto the spectral one."""
    spec = primes_bruteforce(L.monoid)
    points = [alpha(L, a) for a in L.elements()]
    ok = len(set(points)) == L.size and sorted(points, key=canonical_key) == list(spec.points)
    if ok:  # then alpha is a bijection onto the points
        index = {p: i for i, p in enumerate(spec.points)}
        upsets = [sum(1 << b for b in L.elements() if L.le(a, b)) for a in L.elements()]
        ok = carries([index[p] for p in points], upsets,
                     least_opens(L.size, basic_opens(L.monoid, spec)))
    meets = meet_table(L)
    for a in L.elements():
        if beta(L, points[a]) != a:
            ok = False
        for b in L.elements():
            if points[meets[a][b]] != points[a] | points[b]:
                ok = False
            # a <= b exactly when the downset of a lies in that of b: alpha(a) >= alpha(b)
            if L.le(a, b) != (points[a] >= points[b]):
                ok = False
    return ok


def naturality_square(f: MonotoneMap) -> bool:
    """Alpha after the right adjoint equals preimage after alpha; `right_adjoint`
    raises ValidationError unless f is a join morphism."""
    g = right_adjoint(f)
    L, Lp = f.source, f.target
    for y in Lp.elements():
        lhs = alpha(L, g.images[y])
        prime = alpha(Lp, y)
        rhs = frozenset(x for x in L.elements() if f.images[x] in prime)
        if lhs != rhs:
            return False
    return True


def grillet_holds(M: FiniteMonoid) -> bool:
    a = grillet_relation(M)
    b = congruence_closure(M, [(x, M.table[x][x]) for x in M.elements()])
    return a.classes == b.classes


def power_submonoid_check(pair) -> bool:
    """(A, B): restriction of primes is a bijection Spec(A) -> Spec(B).

    Requires B to be a submonoid with some power of every element of A inside
    it; a failing hypothesis raises ValidationError.
    """
    A, B = pair
    B = frozenset(B)
    if not is_submonoid(A, B):
        raise ValidationError("B is not a submonoid of A")
    for a in A.elements():
        acc = a
        for _ in range(A.size):
            if acc in B:
                break
            acc = A.table[acc][a]
        else:
            raise ValidationError(f"no power of element {a} lies in B")
    Bmon, local = submonoid_as_monoid(A, B)
    spec_a = primes_bruteforce(A)
    spec_b = primes_bruteforce(Bmon)
    restricted = [frozenset(local[x] for x in p if x in B) for p in spec_a.points]
    if len(set(restricted)) != len(spec_a.points):
        return False
    return sorted(restricted, key=canonical_key) == list(spec_b.points)


def ev_check(M: FiniteMonoid) -> bool:
    """Double-dual check for idempotent monoids: ev is a monoid isomorphism.

    Both duals are hom sets into the two-element monoid, read as spectra; ev
    sends m to the prime "evaluate at m" of the first dual, the set of points
    that contain m.
    """
    S1 = build_spectrum(M, route_primes(M, "hom"))
    H1 = spectrum_monoid(S1)
    S2 = build_spectrum(H1, route_primes(H1, "hom"))
    index2 = {p: i for i, p in enumerate(S2.points)}
    ev_images = []
    for m in M.elements():
        ev = frozenset(i for i, p in enumerate(S1.points) if m in p)
        if ev not in index2:
            return False
        ev_images.append(index2[ev])
    if len(set(ev_images)) != M.size or M.size != len(S2.points):
        return False
    return is_hom(MonoidMap(M, spectrum_monoid(S2), tuple(ev_images)))


def spec_spec_check(L: JoinSemilattice) -> bool:
    """The double application of alpha is a semilattice isomorphism."""
    S = primes_bruteforce(L.monoid)
    SM = spectrum_monoid(S)
    LS = from_monoid(SM)
    SS = primes_bruteforce(SM)
    point1 = {p: i for i, p in enumerate(S.points)}
    point2 = {p: i for i, p in enumerate(SS.points)}

    composite = []
    for a in L.elements():
        i1 = point1.get(alpha(L, a))
        if i1 is None:
            return False
        p2 = alpha(LS, i1)
        if p2 not in point2:
            return False
        composite.append(point2[p2])
    if len(set(composite)) != len(SS.points):
        return False
    return is_hom(MonoidMap(L.monoid, spectrum_monoid(SS), tuple(composite)))


def spec_cubed_check(M: FiniteMonoid) -> bool:
    """|Spec^3(M)| = |Spec(M)| with the natural bijection, via the union monoid."""
    S = spec_monoid(M)
    return spec_spec_check(from_monoid(spectrum_monoid(S)))


def duals_hold(L: JoinSemilattice) -> bool:
    """The three dual checks; `ev_check` and `spec_cubed_check` take any monoid."""
    return ev_check(L.monoid) and spec_spec_check(L) and spec_cubed_check(L.monoid)


def zg_holds(chain) -> bool:
    """`zg_check` on a corpus chain, which is (ambient monoid, stages)."""
    return zg_check(*chain)


def adjoint_holds(f: MonotoneMap) -> bool:
    """f's right adjoint g: the adjunction, and back to f; `right_adjoint` raises
    ValidationError unless f preserves joins and the least element, and
    `left_adjoint` unless g preserves meets and the top."""
    g = right_adjoint(f)
    return check_adjunction(f, g) and left_adjoint(g).images == f.images


def composition_holds(pair) -> bool:
    """(f, h): the right adjoint of h after f is f's right adjoint after h's."""
    f, h = pair
    return (right_adjoint(compose_monotone(f, h)).images
            == compose_monotone(right_adjoint(h), right_adjoint(f)).images)


def adjoint_items(maps):
    """The adjoint suite's corpora: the join maps, and the first 200 composable
    pairs (f, h) of them; the verdicts derive the right adjoints."""
    return maps, list(islice(((f, h) for f in maps for h in maps if f.target == h.source), 200))


def module_invariants_hold(M: FiniteMonoid) -> bool:
    """Units are closed, the reflection is a semilattice, and its universal property."""
    ok = submonoid_closure(M, units(M)) == units(M)
    L, q = sl_reflection(M)
    if not is_idempotent(L.monoid) or not is_hom(q):
        ok = False
    # universal property at desk scale against small idempotent targets
    for X in (sierpinski(), chain_semilattice(3).monoid):
        homs = [h.images for h in monoid_homs(L.monoid, X)]
        up = set(homs)
        down = {tuple(h[q.images[x]] for x in M.elements()) for h in homs}
        direct = {h.images for h in monoid_homs(M, X)}
        if len(up) != len(down) or down != direct:
            ok = False
    return ok


#: key -> (printed name, one per-item verdict per corpus)
SUITES = {
    "three_routes": ("three-route agreement", routes_agree, presented_routes_agree),
    "theta": ("hom/prime correspondence incl. topology", theta_holds),
    "alpha_suite": ("downset-complement bijection and topology transport", alpha_holds),
    "naturality": ("naturality of the spectrum bijection", naturality_square),
    "grillet": ("power-divisibility congruence vs idempotent closure", grillet_holds),
    "power_submonoid": ("power-submonoid spectrum bijection", power_submonoid_check),
    "duals": ("dualizing object and double spectrum", duals_hold),
    "limits": ("colimit and profinite limits", zg_holds, profinite_check),
    "adjoints": ("adjoint existence, round trip, duality", adjoint_holds, composition_holds),
    "module_invariants": ("core and reflection invariants", module_invariants_hold),
}


def run_suite(key: str, *corpora):
    """(name, failures, total) of suite `key`: each verdict judges its corpus."""
    name, *verdicts = SUITES[key]
    fails = sum(count_failures(holds, items) for holds, items in zip(verdicts, corpora, strict=True))
    return name, fails, sum(map(len, corpora))


def suite_corpora(seed: int = 0, quick: bool = False) -> dict:
    """Each suite's corpora by key, in `SUITES` order, as `verify --seed`
    (and `--quick`) selects them."""
    scale = 1 if not quick else 4
    lattices = corpus_semilattices(seed, count=40, max_size=10)
    join_maps = corpus_join_morphisms(seed, count=120 // scale)
    # the corpus is a seeded sequence, so a shorter one is a prefix of this
    monoids = corpus_monoids(seed, count=150, max_size=10)
    return {
        "three_routes": (monoids[:150 // scale],
                         corpus_presentations(seed, count=60 // scale)),
        "theta": ([M for M in monoids[:120] if M.size <= 8],),
        "alpha_suite": (lattices,),
        "naturality": (join_maps,),
        "grillet": ([M for M in monoids if M.size <= 7],),
        "power_submonoid": (corpus_power_pairs(seed, count=60 // scale),),
        "duals": ([L for L in lattices if L.size <= 8],),
        "limits": (corpus_submonoid_chains(seed, count=60 // scale),
                   corpus_semilattices(seed, count=40, max_size=8)),
        "adjoints": adjoint_items(join_maps),
        "module_invariants": (corpus_monoids(seed, count=60, max_size=8),),
    }


def run_all(seed: int = 0, quick: bool = False):
    """Run every suite on the seeded corpora; returns a list of (name, failures, total).

    The run is one `memo_scope`: its corpora, spectra, reflections and homs
    are each built once, and dropped when the run returns or raises.
    """
    with memo_scope():
        return [run_suite(key, *corpora) for key, corpora in suite_corpora(seed, quick).items()]

