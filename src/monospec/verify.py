"""Executable property suites and the seeded corpora the CLI runs them on.

Each `check_*` takes the items it checks and returns (name, failures, total).
The suites gather the property checkers, some written here and others beside
the code they check (the theta and alpha topology checks in `topology`, the
dual checks in `spectrum`, the limit checks in `limits`), and count the
failures.  `run_all` builds the corpora of the CLI `verify` command from a
seed and runs every suite over them.  The acceptance tests build their own
corpora and call the same `check_*` functions.
"""

from __future__ import annotations

from .congruence import congruence_closure, grillet_relation, quotient, sl_reflection
from .core import (
    FiniteMonoid,
    MonoidMap,
    is_hom,
    is_idempotent,
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
from .presentation import free_semilattice, subsets_in_order, support
from .semilattice import (
    check_adjunction,
    compose_monotone,
    is_join_morphism,
    is_meet_morphism,
    left_adjoint,
    meet,
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


def check_three_routes(monoids, presentations):
    """Route agreement; a presented reflection must also equal `free_quotient`."""
    fails = 0
    for M in monoids:
        if not routes_agree(M):
            fails += 1
    for P in presentations:
        L, gen_images, _, _ = spec_presentation(P)
        if free_quotient(P) != (L.monoid, gen_images) or not routes_agree(L.monoid):
            fails += 1
    return "three-route agreement", fails, len(monoids) + len(presentations)


def check_theta(monoids):
    """Hom/prime correspondence: monoid isomorphism plus homeomorphism."""
    fails = 0
    for M in monoids:
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
        if not ok:
            fails += 1
    return "hom/prime correspondence incl. topology", fails, len(monoids)


def check_alpha_suite(lattices):
    fails = 0
    for L in lattices:
        ok = True
        spec = primes_bruteforce(L.monoid)
        points = [alpha(L, a) for a in L.elements()]
        if len(set(points)) != L.size:
            ok = False
        if sorted(points, key=canonical_key) != list(spec.points):
            ok = False
        everything = frozenset(L.elements())
        for a in L.elements():
            if beta(L, points[a]) != a:
                ok = False
            for b in L.elements():
                if points[meet(L, a, b)] != points[a] | points[b]:
                    ok = False
                down_sub = everything - points[a] <= everything - points[b]
                if L.leq[a][b] != down_sub or L.leq[a][b] != (points[a] >= points[b]):
                    ok = False
        if not alpha_opens_check(L):
            ok = False
        if not ok:
            fails += 1
    return "downset-complement bijection and topology transport", fails, len(lattices)


def check_naturality(maps):
    fails = sum(0 if naturality_square(f) else 1 for f in maps)
    return "naturality of the spectrum bijection", fails, len(maps)


def check_grillet(monoids):
    fails = 0
    for M in monoids:
        a = grillet_relation(M)
        b = congruence_closure(M, [(x, M.table[x][x]) for x in M.elements()])
        if a.classes != b.classes:
            fails += 1
    return "power-divisibility congruence vs idempotent closure", fails, len(monoids)


def check_power_submonoid(pairs):
    fails = 0
    for A, B in pairs:
        try:
            if not power_submonoid_check(A, B):
                fails += 1
        except HypothesisError:
            fails += 1
    return "power-submonoid spectrum bijection", fails, len(pairs)


def check_duals(lattices):
    fails = 0
    for L in lattices:
        ok = ev_check(L.monoid) and spec_spec_check(L) and spec_cubed_check(L.monoid)
        if not ok:
            fails += 1
    return "dualizing object and double spectrum", fails, len(lattices)


def check_limits(chains, lattices):
    fails = sum(0 if zg_check(M, stages) else 1 for M, stages in chains)
    fails += sum(0 if profinite_check(L) else 1 for L in lattices)
    return "colimit and profinite limits", fails, len(chains) + len(lattices)


def check_adjoints(maps):
    """Total counts the maps plus the composable pairs checked (at most 200)."""
    fails = 0
    adjoints = [right_adjoint(f) for f in maps]
    for f, g in zip(maps, adjoints):
        ok = True
        if not check_adjunction(f, g):
            ok = False
        if not is_meet_morphism(g):
            ok = False
        if g.images[top(f.target)] != top(f.source):
            ok = False
        if left_adjoint(g).images != f.images:
            ok = False
        if not ok:
            fails += 1
    # composition duality on composable pairs
    pairs = 0
    for f, gf in zip(maps, adjoints):
        for h, gh in zip(maps, adjoints):
            if f.target == h.source:
                pairs += 1
                lhs = right_adjoint(compose_monotone(f, h))
                rhs = compose_monotone(gh, gf)
                if lhs.images != rhs.images:
                    fails += 1
                if pairs >= 200:
                    break
        if pairs >= 200:
            break
    return "adjoint existence, round trip, duality", fails, len(maps) + pairs


def check_module_invariants(monoids):
    """Smaller cross-module invariants: units, hom composition, reflection."""
    fails = 0
    for M in monoids:
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
        if not ok:
            fails += 1
    return "core and reflection invariants", fails, len(monoids)


def run_all(seed: int = 0, quick: bool = False):
    """Run every suite on the seeded corpora; returns a list of (name, failures, total)."""
    scale = 1 if not quick else 4
    lattices = corpus_semilattices(seed, count=40, max_size=10)
    join_maps = [f for f in corpus_join_morphisms(seed, count=120 // scale) if is_join_morphism(f)]
    # the corpus is a seeded sequence, so a shorter one is a prefix of this
    monoids = corpus_monoids(seed, count=150, max_size=10)
    results = [
        check_three_routes(monoids[:150 // scale],
                           corpus_presentations(seed, count=60 // scale, max_gens=6)),
        check_theta([M for M in monoids[:120] if M.size <= 8]),
        check_alpha_suite(lattices),
        check_naturality(join_maps),
        check_grillet([M for M in monoids if M.size <= 7]),
        check_power_submonoid(corpus_power_pairs(seed, count=60 // scale)),
        check_duals([L for L in lattices if L.size <= 8]),
        check_limits(corpus_submonoid_chains(seed, count=60 // scale),
                     [L for L in corpus_semilattices(seed, count=40, max_size=8) if L.size <= 8]),
        check_adjoints(join_maps),
        check_module_invariants(corpus_monoids(seed, count=60, max_size=8)),
    ]
    return results


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
