"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All checks are exact; the corpora are seeded and deterministic.  The
properties are the suites of `monospec.verify.SUITES`, run by `run_suite`; each
test builds its own corpus and asserts the suite finds no failure.
"""

import time

from monospec.core import sierpinski
from monospec.corpus import (
    corpus_join_morphisms,
    corpus_monoids,
    corpus_power_pairs,
    corpus_presentations,
    corpus_semilattices,
    corpus_submonoid_chains,
)
from monospec.presentation import parse_presentation, sl_of_presentation
from monospec.spectrum import (
    generator_supports,
    primes_bruteforce,
    render_support,
    route_primes,
    spectrum_monoid,
)
from monospec.verify import adjoint_items, run_suite

SEED = 0


def report(num, ok, text):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {text}")
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_1_spec_of_natural_numbers():
    start = time.monotonic()
    P = parse_presentation("gens: t")
    L, gen_images = sl_of_presentation(P)
    points = route_primes(L.monoid, "alpha")
    rendered = sorted(render_support(P, s) for s in generator_supports(gen_images, points))
    ok = rendered == ["()", "(t)"] and len(points) == 2
    elapsed = time.monotonic() - start
    report(1, ok and elapsed < 1.0, f"Spec via <t> is {{(), (t)}} in {elapsed:.3f}s")


def test_criterion_2_spec_of_two_element_monoid():
    start = time.monotonic()
    I = sierpinski()
    S = primes_bruteforce(I)
    ok = S.points == (frozenset(), frozenset({1}))
    ok = ok and spectrum_monoid(S).table == I.table
    elapsed = time.monotonic() - start
    report(2, ok and elapsed < 1.0,
           f"spectrum of the 2-element monoid is itself again in {elapsed:.3f}s")


def test_criterion_3_three_route_agreement():
    start = time.monotonic()
    monoids = corpus_monoids(SEED, count=150, max_size=10)
    presentations = corpus_presentations(SEED, count=60)
    _, fails, total = run_suite("three_routes", monoids, presentations)
    assert total >= 200
    elapsed = time.monotonic() - start
    report(3, fails == 0 and elapsed < 60.0,
           f"three routes agree on {total} monoids in {elapsed:.1f}s")


def test_criterion_4_theta_iso_and_homeo():
    start = time.monotonic()
    monoids = [M for M in corpus_monoids(SEED, count=150, max_size=10) if M.size <= 8]
    _, fails, total = run_suite("theta", monoids)
    elapsed = time.monotonic() - start
    report(4, fails == 0 and elapsed < 60.0,
           f"hom/prime homeomorphism on {total} monoids in {elapsed:.1f}s")


def test_criterion_5_alpha_beta_suite():
    lattices = corpus_semilattices(SEED, count=40, max_size=10)
    _, fails, total = run_suite("alpha_suite", lattices)
    report(5, fails == 0, f"downset-complement bijection suite on {total} semilattices")


def test_criterion_6_naturality():
    maps = corpus_join_morphisms(SEED, count=120)
    assert len(maps) >= 100
    _, fails, total = run_suite("naturality", maps)
    report(6, fails == 0, f"naturality square on {total} join-morphisms")


def test_criterion_7_grillet():
    monoids = [M for M in corpus_monoids(SEED, count=150, max_size=10) if M.size <= 7]
    _, fails, total = run_suite("grillet", monoids)
    report(7, fails == 0,
           f"power-divisibility relation equals idempotent closure on {total} monoids")


def test_criterion_8_power_submonoid():
    pairs = corpus_power_pairs(SEED, count=60)
    assert len(pairs) >= 50
    _, fails, total = run_suite("power_submonoid", pairs)
    report(8, fails == 0, f"power-submonoid spectrum bijection on {total} pairs")


def test_criterion_9_dualizing_object():
    lattices = [L for L in corpus_semilattices(SEED, count=40, max_size=8) if L.size <= 8]
    _, fails, total = run_suite("duals", lattices)
    report(9, fails == 0,
           f"double dual, double spectrum and triple spectrum on {total} semilattices")


def test_criterion_10_limits():
    chains = corpus_submonoid_chains(SEED, count=60)
    assert len(chains) >= 50
    lattices = [L for L in corpus_semilattices(SEED, count=40, max_size=8) if L.size <= 8]
    _, fails, _ = run_suite("limits", chains, lattices)
    report(10, fails == 0,
           f"colimit spectra on {len(chains)} chains, profinite bijection on {len(lattices)} semilattices")


def test_criterion_11_adjoint_suite():
    maps = corpus_join_morphisms(SEED, count=120)
    _, fails, total = run_suite("adjoints", *adjoint_items(maps))
    composable = total - len(maps)
    assert composable >= 50
    report(11, fails == 0,
           f"adjoint existence, round trip and duality on {len(maps)} maps, {composable} composites")
