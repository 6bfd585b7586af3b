import hashlib

from monospec.core import direct_product, sierpinski, trivial_monoid
from monospec.corpus import (
    _structured_monoids,
    chain_semilattice,
    corpus_presentations,
    cyclic_group,
    cyclic_monoid,
)
from monospec.presentation import free_semilattice, sl_of_presentation


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
