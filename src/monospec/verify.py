"""Executable property suites and the seeded corpora the CLI runs them on.

Each `check_*` takes the items it checks and returns (name, failures, total).
The suites gather the property checkers, some written here and others beside
the code they check (the theta and alpha topology checks in `topology`, the
dual checks in `spectrum`, the limit checks in `limits`), and count the
failures.  A suite is a per-item verdict that `count_failures` calls once per
distinct table (see `_key`), counting every occurrence: at seeds 6-11 the
items of the nine suites besides the adjoint one are 2450 distinct tables out
of 5205 (4135 of 7125 with the adjoint suite's maps and pairs).  `run_all`
builds the corpora of the CLI `verify` command from a seed and runs every
suite over them inside one `core.memo_scope`: the run shares its corpora and
the values derived from them (brute spectra, reflections of tables and of
presentations, homs, meet tables, chains, cyclic and free monoids), each
built once, and nothing outlives the run.  The acceptance tests build their
own corpora and call the same `check_*` functions.
"""

from __future__ import annotations

from itertools import islice

from .congruence import congruence_closure, grillet_relation, quotient, sl_reflection
from .core import (
    FiniteMonoid,
    MonoidMap,
    is_hom,
    is_idempotent,
    memo_scope,
    monoid_homs,
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
from .errors import HypothesisError, ValidationError
from .limits import profinite_check, zg_check
from .presentation import Presentation, free_semilattice, subsets_in_order, support
from .semilattice import (
    JoinSemilattice,
    MonotoneMap,
    check_adjunction,
    compose_monotone,
    is_join_morphism,
    is_meet_morphism,
    left_adjoint,
    meet_table,
    right_adjoint,
    top,
)
from .spectrum import (
    ROUTES,
    alpha,
    beta,
    canonical_key,
    ev_check,
    greatest_prime,
    naturality_square,
    power_submonoid_check,
    primes_bruteforce,
    route_primes,
    sierpinski,
    spec_cubed_check,
    spec_presentation,
    spec_spec_check,
    theta,
    theta_inverse,
)
from .topology import (
    alpha_opens_check,
    spec_topology,
    theta_homeo_check,
    union_continuous,
)


def routes_agree(M: FiniteMonoid) -> bool:
    """The three independent computations of the prime set, canonically sorted, agree."""
    return len({route_primes(M, via) for via in ROUTES}) == 1


def free_quotient(P):
    """Reference reflection of a presentation, with the generator images.

    The quotient of the free semilattice on the generators by the congruence
    closure of the relations' supports: O(4^k), independent of the closure
    classes `sl_of_presentation` computes.  Up to 7 generators (the corpus
    has at most 6), as `free_semilattice` allows.
    """
    k = len(P.generators)
    F = free_semilattice(k, names=P.generators)
    index = {s: i for i, s in enumerate(subsets_in_order(k))}
    C = congruence_closure(F.monoid, [(index[support(u)], index[support(v)])
                                      for u, v in P.relations])
    Q, q = quotient(F.monoid, C)
    return Q, tuple(q.images[index[(i,)]] for i in range(k))


def _key(item):
    """The data a verdict reads: tables and images, never element names."""
    if isinstance(item, FiniteMonoid):
        return item.table
    if isinstance(item, JoinSemilattice):
        return item.monoid.table
    if isinstance(item, MonotoneMap):
        return _key(item.source), _key(item.target), item.images
    if isinstance(item, Presentation):
        # by value, ahead of the tuple branch: `free_quotient` compares generator names
        return item
    if isinstance(item, (tuple, list)):
        return tuple(map(_key, item))
    if isinstance(item, (set, frozenset)):
        return frozenset(item)
    return item


def count_failures(holds, items) -> int:
    """The occurrences in `items` that fail `holds`, judging each distinct item once.

    Items are keyed by `_key`: a monoid by its table, a semilattice by its
    monoid's table, a monotone map by its endpoints' keys and its images, and
    tuples, lists and sets by their frozen members.  This is sound because no
    verdict reads element names: names only flow into new names (`quotient`,
    `spectrum_monoid`) and into error text, and every value comparison inside
    a verdict compares objects derived from the same item.  Presentations
    keep their names in the key, since `free_quotient` compares them.
    """
    verdicts = {}
    fails = 0
    for item in items:
        key = _key(item)
        if key not in verdicts:
            verdicts[key] = holds(item)
        fails += not verdicts[key]
    return fails


def presented_routes_agree(P) -> bool:
    """The reflection equals `free_quotient`, and the routes agree on it."""
    L, gen_images, _, _ = spec_presentation(P)
    return free_quotient(P) == (L.monoid, gen_images) and routes_agree(L.monoid)


def check_three_routes(monoids, presentations):
    """Route agreement; a presented reflection must also equal `free_quotient`."""
    fails = count_failures(routes_agree, monoids)
    fails += count_failures(presented_routes_agree, presentations)
    return "three-route agreement", fails, len(monoids) + len(presentations)


def theta_holds(M: FiniteMonoid) -> bool:
    """Hom/prime correspondence on M: monoid isomorphism plus homeomorphism."""
    ok = theta_homeo_check(M)
    homs = monoid_homs(M, sierpinski())
    spec = primes_bruteforce(M)
    index = {p: i for i, p in enumerate(spec.points)}
    # pointwise: product of homs maps to union of their zero fibers
    I = sierpinski()
    primes = [theta(f) for f in homs]
    for f, pf in zip(homs, primes):
        if theta_inverse(M, pf) != f:
            ok = False
        for g, pg in zip(homs, primes):
            prod = MonoidMap(M, I, tuple(a | b for a, b in zip(f.images, g.images)))
            if theta(prod) != pf | pg:
                ok = False
    # D(a) * D(b) = D(ab), and continuity of the union map
    T = spec_topology(M, spec)
    D = {a: frozenset(i for i, p in enumerate(spec.points) if a not in p)
         for a in M.elements()}
    for a in M.elements():
        for b in M.elements():
            if D[a] & D[b] != D[M.table[a][b]]:
                ok = False
    if not union_continuous(spec, T):
        ok = False
    if frozenset() not in index or index[frozenset()] != 0:
        ok = False
    if greatest_prime(M) not in index:
        ok = False
    return ok


def check_theta(monoids):
    """Hom/prime correspondence: monoid isomorphism plus homeomorphism."""
    fails = count_failures(theta_holds, monoids)
    return "hom/prime correspondence incl. topology", fails, len(monoids)


def alpha_holds(L: JoinSemilattice) -> bool:
    """alpha is a bijection onto the primes that turns meets into unions."""
    ok = True
    spec = primes_bruteforce(L.monoid)
    points = [alpha(L, a) for a in L.elements()]
    if len(set(points)) != L.size:
        ok = False
    if sorted(points, key=canonical_key) != list(spec.points):
        ok = False
    everything = frozenset(L.elements())
    meets = meet_table(L)
    for a in L.elements():
        if beta(L, points[a]) != a:
            ok = False
        for b in L.elements():
            if points[meets[a][b]] != points[a] | points[b]:
                ok = False
            down_sub = everything - points[a] <= everything - points[b]
            if L.leq[a][b] != down_sub or L.leq[a][b] != (points[a] >= points[b]):
                ok = False
    if not alpha_opens_check(L):
        ok = False
    return ok


def check_alpha_suite(lattices):
    fails = count_failures(alpha_holds, lattices)
    return "downset-complement bijection and topology transport", fails, len(lattices)


def check_naturality(maps):
    fails = count_failures(naturality_square, maps)
    return "naturality of the spectrum bijection", fails, len(maps)


def grillet_holds(M: FiniteMonoid) -> bool:
    a = grillet_relation(M)
    b = congruence_closure(M, [(x, M.table[x][x]) for x in M.elements()])
    return a.classes == b.classes


def check_grillet(monoids):
    fails = count_failures(grillet_holds, monoids)
    return "power-divisibility congruence vs idempotent closure", fails, len(monoids)


def power_submonoid_holds(pair) -> bool:
    """A failing hypothesis counts as a failure: the corpus builds every pair to meet it."""
    try:
        return power_submonoid_check(*pair)
    except HypothesisError:
        return False


def check_power_submonoid(pairs):
    fails = count_failures(power_submonoid_holds, pairs)
    return "power-submonoid spectrum bijection", fails, len(pairs)


def duals_hold(L: JoinSemilattice) -> bool:
    return ev_check(L.monoid) and spec_spec_check(L) and spec_cubed_check(L.monoid)


def check_duals(lattices):
    fails = count_failures(duals_hold, lattices)
    return "dualizing object and double spectrum", fails, len(lattices)


def check_limits(chains, lattices):
    fails = count_failures(lambda chain: zg_check(*chain), chains)
    fails += count_failures(profinite_check, lattices)
    return "colimit and profinite limits", fails, len(chains) + len(lattices)


def adjoint_holds(pair) -> bool:
    """g is the right adjoint of f: the adjunction, meets, top, and back to f."""
    f, g = pair
    return (check_adjunction(f, g) and is_meet_morphism(g)
            and g.images[top(f.target)] == top(f.source)
            and left_adjoint(g).images == f.images)


def composition_holds(maps) -> bool:
    """(f, g_f, h, g_h): the right adjoint of h after f is g_f after g_h."""
    f, gf, h, gh = maps
    return right_adjoint(compose_monotone(f, h)).images == compose_monotone(gh, gf).images


def check_adjoints(maps):
    """Total counts the maps plus the composable pairs checked (at most 200)."""
    adjoints = [right_adjoint(f) for f in maps]
    fails = count_failures(adjoint_holds, zip(maps, adjoints))
    # composition duality on the first 200 composable pairs
    composable = list(islice(((f, gf, h, gh)
                              for f, gf in zip(maps, adjoints)
                              for h, gh in zip(maps, adjoints) if f.target == h.source), 200))
    fails += count_failures(composition_holds, composable)
    return "adjoint existence, round trip, duality", fails, len(maps) + len(composable)


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


def check_module_invariants(monoids):
    """Smaller cross-module invariants: units, hom composition, reflection."""
    fails = count_failures(module_invariants_hold, monoids)
    return "core and reflection invariants", fails, len(monoids)


def run_all(seed: int = 0, quick: bool = False):
    """Run every suite on the seeded corpora; returns a list of (name, failures, total).

    The run is one `memo_scope`: its corpora, spectra, reflections and homs
    are each built once, and dropped when the run returns or raises.
    """
    scale = 1 if not quick else 4
    with memo_scope():
        lattices = corpus_semilattices(seed, count=40, max_size=10)
        join_maps = [f for f in corpus_join_morphisms(seed, count=120 // scale)
                     if is_join_morphism(f)]
        # the corpus is a seeded sequence, so a shorter one is a prefix of this
        monoids = corpus_monoids(seed, count=150, max_size=10)
        return [
            check_three_routes(monoids[:150 // scale],
                               corpus_presentations(seed, count=60 // scale, max_gens=6)),
            check_theta([M for M in monoids[:120] if M.size <= 8]),
            check_alpha_suite(lattices),
            check_naturality(join_maps),
            check_grillet([M for M in monoids if M.size <= 7]),
            check_power_submonoid(corpus_power_pairs(seed, count=60 // scale)),
            check_duals([L for L in lattices if L.size <= 8]),
            check_limits(corpus_submonoid_chains(seed, count=60 // scale),
                         [L for L in corpus_semilattices(seed, count=40, max_size=8)
                          if L.size <= 8]),
            check_adjoints(join_maps),
            check_module_invariants(corpus_monoids(seed, count=60, max_size=8)),
        ]


def mutation_detected(seed: int = 0) -> bool:
    """Flip the entry (1, n-1) of a corpus table; `validate_monoid` must reject it.

    Corpus tables are commutative and have n >= 3 here, so the flip always
    breaks commutativity: this checks the table validation only, not the
    spectrum routes.
    """
    candidates = [M for M in corpus_monoids(seed, count=30, max_size=8) if M.size >= 3]
    M = candidates[seed % len(candidates)]
    table = [list(row) for row in M.table]
    i, j = 1, M.size - 1
    table[i][j] = (table[i][j] + 1) % M.size
    try:
        validate_monoid(table, identity=0, names=M.names)
    except ValidationError:
        return True
    return False
