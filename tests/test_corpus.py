import hashlib

import pytest

from monospec.core import direct_product, sierpinski, trivial_monoid
from monospec.corpus import (
    _structured_monoids,
    chain_semilattice,
    corpus_join_morphisms,
    corpus_presentations,
    cyclic_group,
    cyclic_monoid,
)
from monospec.presentation import free_semilattice, sl_of_presentation
from monospec.semilattice import is_join_morphism


def _structured_monoids_every_product(max_size):
    """The structured families with every direct product built, then cut to 40."""
    out = [trivial_monoid(), sierpinski()]
    out += [cyclic_group(n) for n in range(2, max_size + 1)]
    out += [cyclic_monoid(i, p) for i in range(1, 5) for p in range(1, 5) if i + p <= max_size]
    out += [chain_semilattice(n).monoid for n in range(2, max_size + 1)]
    out += [free_semilattice(k).monoid for k in range(1, 4) if 2 ** k <= max_size]
    products = [direct_product(a, b) for a in out for b in out
                if 1 < a.size * b.size <= max_size]
    return [m for m in out + products[:40] if m.size <= max_size], len(products)


@pytest.mark.parametrize("index, period", [(-1, 2), (-2, 5)])
def test_cyclic_monoid_rejects_a_negative_index(index, period):
    """The arguments are checked up front: a negative index neither passes as a
    smaller monoid nor reaches `validate_monoid` as an entry out of range."""
    with pytest.raises(ValueError, match=r"need index >= 0 and period >= 1"):
        cyclic_monoid(index, period)


def test_structured_monoids_keep_the_first_40_products():
    for max_size, built in ((6, 117), (8, 193), (10, 277)):
        expected, count = _structured_monoids_every_product(max_size)
        assert count == built
        assert _structured_monoids(max_size) == expected


#: sha256 prefixes of the (generators, relations) lists of `corpus_presentations(s)`,
#: s = 0..11, as built when each candidate was reflected under a cap of 12.
PRESENTATION_DIGESTS = (
    "e209e2ea3bc2df87", "d8afe91b5aac1d30", "dfd9ca189d9c0db8", "880fb0f1e643bb6b",
    "a291d8dd0acbb609", "76f80eceeda1c559", "49294caf6073488d", "a0bcf6dc259bfa6c",
    "874fb3389e695cd2", "e2c1a49298999974", "21a0e3ba92c2bfd9", "2b076a914a327d61",
)


def test_corpus_presentations_are_unchanged():
    for seed, digest in enumerate(PRESENTATION_DIGESTS):
        presentations = corpus_presentations(seed)
        assert len(presentations) == 60
        text = repr([(P.generators, P.relations) for P in presentations])
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest, seed
        # every member has a reflection of at most 12 elements
        assert all(sl_of_presentation(P)[0].size <= 12 for P in presentations)


#: sha256 prefixes of the (source, target, images) lists of `corpus_join_morphisms(s, 120)`,
#: s = 0..11, each map drawn from the first 128 homs of its pair in lexicographic order.
JOIN_MAP_DIGESTS = (
    "fa54af50c6f4070f", "06e82754692794c8", "c0d3ee94e480b269", "5177fd64c7a7979f",
    "7f9d40115c5213a8", "67599a0e182556c1", "d0e92f285171d4d9", "afffe8f871d8763d",
    "72835020094d05d7", "fa97cf9d4e75e708", "3bb45f0bdb815cb6", "0c7e8a1b2507dcf0",
)


def test_corpus_join_maps_are_join_maps():
    """Every corpus map is a monoid hom between semilattices, so no suite filters
    them, and the maps drawn are pinned."""
    for seed, digest in enumerate(JOIN_MAP_DIGESTS):
        maps = corpus_join_morphisms(seed, 120)
        assert len(maps) == 120 and all(map(is_join_morphism, maps)), seed
        text = repr([(f.source.monoid, f.target.monoid, f.images) for f in maps])
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest, seed
