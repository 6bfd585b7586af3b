from monospec.core import direct_product, sierpinski, trivial_monoid
from monospec.corpus import (
    _structured_monoids,
    chain_semilattice,
    cyclic_group,
    cyclic_monoid,
)
from monospec.presentation import free_semilattice


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
