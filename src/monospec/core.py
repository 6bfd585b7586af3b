"""Finite commutative monoids as validated multiplication tables.

Elements are integer indices into the table; the identity is always index 0
(`validate_monoid` relabels on construction when necessary).  Element sets are
plain frozensets of indices with a canonical sorted rendering.  The brute
force and subsemilattice scans build their bit-sliced layout with `lanes` and
read it with `members`; `closed_sets` lists the sets a closure fixes instead.
`memoized` functions share their results inside one `memo_scope` (a `verify`
run), keyed by the values of their positional arguments, and compute afresh
everywhere else; a kernel whose result depends on the multiplication alone
takes tables, not monoids, so renamed copies of one table share its entry.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from functools import lru_cache, wraps
from typing import NamedTuple

from .errors import CapExceeded, ParseError, ValidationError

#: Default cap for exhaustive subset enumerations (2^SUBSET_CAP subsets).
SUBSET_CAP = 16


def enforce_cap(what: str, n: int, cap: int = SUBSET_CAP) -> None:
    """Raise CapExceeded, whose docstring gives the rule, when n exceeds cap."""
    if n > cap:
        raise CapExceeded(f"{what} {n} exceeds the cap of {cap}")


def lanes(k: int) -> list[int]:
    """The lanes of a bit-sliced scan over the 2^k subsets of range(k).

    Subset m is bit m of each 2^k-bit lane, and lane x has bit m set exactly
    when m holds x: runs of 2^x zeros, then as many ones, built by doubling.
    An instance of a law is then one bitwise expression over the lanes of its
    elements, which tests every subset at once; `members` reads off the
    subsets that survive.  Each width is built once per process and kept as a
    tuple, k lanes of 2^k bits (60 KB at k = 15); every call returns a fresh
    list of them, so no caller can change what the next one gets.
    """
    return list(_lanes(k))


@lru_cache(maxsize=None)
def _lanes(k: int) -> tuple[int, ...]:
    width = 1 << k
    out = []
    for x in range(k):
        run = 1 << x
        lane, span = ((1 << run) - 1) << run, 2 * run
        while span < width:
            lane |= lane << span
            span *= 2
        out.append(lane)
    return tuple(out)


def members(mask: int):
    """The positions of the set bits of mask, highest first."""
    while mask:
        h = mask.bit_length() - 1
        mask ^= 1 << h
        yield h


def closed_sets(k: int, close):
    """The masks of range(k) that close fixes, in increasing order, lazily.

    close is a closure on masks: extensive, monotone and idempotent.
    NextClosure (Ganter & Wille, 1999) finds each set after the last in at
    most k calls, so the work follows the sets listed, not 2^k; a caller
    caps the listing by taking no more sets than it allows.
    """
    last = close(0)
    while True:
        yield last
        # the next set: for the lowest g not in last whose closure of last's
        # bits above g, plus g, adds no bit above g, that closure
        for g in range(k):
            bit = 1 << g
            if not last & bit:
                high = last & -(bit << 1)
                c = close(high | bit)
                if c & -(bit << 1) == high:
                    last = c
                    break
        else:
            return


class _Memo(threading.local):
    """Per thread: the results of `memoized` calls in the innermost `memo_scope`, else None."""

    table: dict | None = None


_memo = _Memo()


@contextmanager
def memo_scope():
    """Share the results of `memoized` functions until the block exits.

    Each scope starts empty and is dropped on exit, raised or not, so no
    result outlives the block that asked for it; an enclosing scope is
    restored.
    """
    outer, _memo.table = _memo.table, {}
    try:
        yield
    finally:
        _memo.table = outer


def memoized(fn):
    """Inside a `memo_scope`, compute fn once per argument value; outside, just call it.

    The key is fn with its positional arguments, by value: f(M) and f(M, 16)
    are two entries even when 16 is the default, and a call with a keyword
    or an unhashable argument computes afresh.  fn is pure and returns a
    frozen value, since a hit hands out the stored object.
    """
    @wraps(fn)
    def wrapper(*args, **kwargs):
        memo = _memo.table
        if memo is None or kwargs:
            return fn(*args, **kwargs)
        key = fn, args
        try:
            return memo[key]
        except KeyError:
            pass
        except TypeError:  # an unhashable argument has no key
            return fn(*args)
        result = memo[key] = fn(*args)
        return result

    return wrapper


class FiniteMonoid(NamedTuple):
    """A commutative monoid given by its full multiplication table.

    Construct through `validate_monoid`; direct construction skips the law
    checks and the identity-to-index-0 normalization.
    """

    table: tuple[tuple[int, ...], ...]
    names: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def power(self, a: int, n: int) -> int:
        """a^n with a^0 = identity."""
        acc = 0
        for _ in range(n):
            acc = self.table[acc][a]
        return acc

    def elements(self):
        return range(len(self.table))


class MonoidMap(NamedTuple):
    """A map between monoids given element-wise; see `is_hom` for the laws."""

    source: FiniteMonoid
    target: FiniteMonoid
    images: tuple[int, ...]


def validate_monoid(table, identity=0, names=None) -> FiniteMonoid:
    """Check the monoid laws and return the table with identity relabeled to 0.

    Raises ValidationError naming the first violated law together with the
    witnessing elements: by their names when names are given, else by index.
    """
    n = len(table)
    if n == 0:
        raise ValidationError("empty table: a monoid needs at least the identity")
    for i, row in enumerate(table):
        if len(row) != n:
            raise ValidationError(f"table is not square: row {i} has {len(row)} entries, expected {n}")
        for j, v in enumerate(row):
            if not 0 <= v < n:
                raise ValidationError(f"entry ({i},{j}) = {v} is out of range [0,{n})")
    if not 0 <= identity < n:
        raise ValidationError(f"identity index {identity} is out of range [0,{n})")
    if names is not None:
        if len(names) != n:
            raise ValidationError(f"{len(names)} names for {n} elements")
        first = {}
        for i, nm in enumerate(names):
            if nm in first:
                raise ValidationError(f"duplicate name {nm!r} at indices {first[nm]} and {i}")
            first[nm] = i
        names = tuple(names)
    # the law errors name elements by their names when given, else by index
    label = names.__getitem__ if names is not None else str
    for i in range(n):
        if table[identity][i] != i:
            raise ValidationError(
                f"broken identity: {label(identity)}*{label(i)} = {label(table[identity][i])}, "
                f"expected {label(i)}"
            )
    for i in range(n):
        for j in range(i + 1, n):
            if table[i][j] != table[j][i]:
                raise ValidationError(
                    f"not commutative at pair ({label(i)},{label(j)}): "
                    f"{label(table[i][j])} != {label(table[j][i])}"
                )
    # Light's test: (x*g)*y = x*(g*y) for every g of a generating set G is
    # associativity.  Walking the elements in index order, each one not yet in
    # the closure joins G and the closure grows by a worklist, O(n^2) in all.
    rows = tuple(map(tuple, table))
    seen, gens = {identity}, []
    for x in range(n):
        if x not in seen:
            gens.append(x)
            seen.add(x)
            work = [x]
            while work:
                fresh = set(map(rows[work.pop()].__getitem__, seen)) - seen
                seen |= fresh
                work += fresh
    # by commutativity, entry (i, k) of g's block is (i*g)*k and entry (k, i)
    # is i*(g*k), so g passes Light's test exactly when its block is symmetric
    for j in gens:
        block = [rows[v] for v in rows[j]]
        cols = list(zip(*block))
        if block != cols:
            i = next(i for i in range(n) if block[i] != cols[i])
            k = next(k for k in range(n) if block[i][k] != cols[i][k])
            x, g, y = label(i), label(j), label(k)
            raise ValidationError(
                f"not associative at triple ({x},{g},{y}): "
                f"({x}*{g})*{y} = {label(block[i][k])} but {x}*({g}*{y}) = {label(block[k][i])}"
            )
    if names is None:
        names = tuple(f"e{i}" for i in range(n))

    if identity != 0:
        # relabel by swapping 0 and the identity
        perm = list(range(n))
        perm[0], perm[identity] = identity, 0
        table = [[perm[table[perm[i]][perm[j]]] for j in range(n)] for i in range(n)]
        names = tuple(names[perm[i]] for i in range(n))
    return FiniteMonoid(tuple(tuple(row) for row in table), names)


@lru_cache(maxsize=1)
def sierpinski() -> FiniteMonoid:
    """The two-element monoid {1, 0}: index 0 is the unit, index 1 absorbs."""
    return validate_monoid(((0, 1), (1, 1)), identity=0, names=("1", "0"))


@lru_cache(maxsize=1)
def trivial_monoid() -> FiniteMonoid:
    return validate_monoid(((0,),), names=("1",))


def is_idempotent(M: FiniteMonoid) -> bool:
    """True iff x*x = x for every element."""
    table = M.table
    return all(table[i][i] == i for i in M.elements())


def units(M: FiniteMonoid) -> frozenset[int]:
    """The invertible elements {x | exists y: xy = identity}."""
    return frozenset(x for x in M.elements() if 0 in M.table[x])


def submonoid_closure(M: FiniteMonoid, S) -> frozenset[int]:
    """Smallest subset containing S and the identity, closed under the table."""
    seen = set(S)
    seen.add(0)
    work = list(seen)
    while work:
        a = work.pop()
        for b in list(seen):
            p = M.table[a][b]
            if p not in seen:
                seen.add(p)
                work.append(p)
    return frozenset(seen)


def is_submonoid(M: FiniteMonoid, S) -> bool:
    S = frozenset(S)
    return 0 in S and all(M.table[a][b] in S for a in S for b in S)


def submonoid_as_monoid(M: FiniteMonoid, S) -> tuple[FiniteMonoid, dict[int, int]]:
    """The submonoid S of M as a FiniteMonoid of its own.

    Returns the monoid together with the ambient-index -> local-index map.
    S must contain the identity and be closed; raises ValidationError otherwise.
    """
    S = sorted(set(S))
    if not S or S[0] != 0:
        raise ValidationError("submonoid must contain the identity (index 0)")
    local = {a: i for i, a in enumerate(S)}
    table = []
    for a in S:
        row = []
        for b in S:
            p = M.table[a][b]
            if p not in local:
                raise ValidationError(f"set is not closed: {a}*{b} = {p} is outside it")
            row.append(local[p])
        table.append(tuple(row))
    return FiniteMonoid(tuple(table), tuple(M.names[a] for a in S)), local


def direct_product(M: FiniteMonoid, N: FiniteMonoid) -> FiniteMonoid:
    """Componentwise product; pair (i,j) is encoded row-major as i*N.size + j."""
    n = N.size
    table = []
    for i in range(M.size):
        for j in range(n):
            row = []
            for k in range(M.size):
                for l in range(n):
                    row.append(M.table[i][k] * n + N.table[j][l])
            table.append(tuple(row))
    names = tuple(f"({a},{b})" for a in M.names for b in N.names)
    return FiniteMonoid(tuple(table), names)


def is_hom(f: MonoidMap) -> bool:
    """True iff f sends identity to identity and preserves products."""
    if len(f.images) != f.source.size:
        return False
    if f.images[0] != 0:
        return False
    src, tgt, im = f.source.table, f.target.table, f.images
    n = f.source.size
    return all(im[src[a][b]] == tgt[im[a]][im[b]] for a in range(n) for b in range(a, n))


def monoid_homs(M: FiniteMonoid, N: FiniteMonoid) -> tuple[MonoidMap, ...]:
    """All monoid homomorphisms M -> N, in lexicographic order of image tuples."""
    return tuple([MonoidMap(M, N, images) for images in _hom_images(M.table, N.table)])


@memoized
def _hom_images(source, target) -> tuple[tuple[int, ...], ...]:
    """The image tuples of the homs between two monoid tables, in lexicographic order.

    The search fixes the identity's image at 0, assigns elements 1, 2, ... in
    index order and tries their images in ascending order, so it finds the
    homs in that order.  The constraint table `checks[e]` lists each product
    a*b = p (a <= b) whose largest index max(b, p) is e; it is tested as soon
    as e is assigned.
    """
    n, m = len(source), len(target)
    checks = [[] for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            p = source[a][b]
            checks[max(b, p)].append((a, b, p))
    images = [0] * n
    out = []

    def assign(e: int):
        if e == n:
            out.append(tuple(images))
            return
        for v in range(m):
            images[e] = v
            for a, b, p in checks[e]:
                if target[images[a]][images[b]] != images[p]:
                    break
            else:
                assign(e + 1)

    assign(1)
    return tuple(out)


def render_set(M: FiniteMonoid, members) -> str:
    """Canonical text for an element set: names in index order, braced."""
    return "{" + ", ".join(M.names[i] for i in sorted(members)) + "}"


def parse_monoid_table(text: str) -> FiniteMonoid:
    """Parse the line-oriented table format.

    Layout: `elements: n1 n2 ...`, `identity: ni`, `table:` followed by one
    row of names per element.  `#` starts a comment line, so no name may.
    """
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        lines.append((lineno, stripped))
    if not lines:
        raise ParseError("empty input")

    def expect(idx, prefix):
        if idx >= len(lines):
            raise ParseError(f"missing `{prefix}` line", line=lines[-1][0])
        lineno, content = lines[idx]
        if not content.startswith(prefix):
            raise ParseError(f"expected `{prefix}`", line=lineno)
        return lineno, content[len(prefix):].strip()

    _, elems = expect(0, "elements:")
    names = elems.split()
    if not names:
        raise ParseError("no element names", line=lines[0][0])
    index = {}
    for nm in names:
        if nm in index:
            raise ParseError(f"duplicate element name {nm!r}", line=lines[0][0])
        if nm.startswith("#"):  # a table row starting with it would read as a comment
            raise ParseError(f"element name {nm!r} starts with '#'", line=lines[0][0])
        index[nm] = len(index)

    id_line, id_name = expect(1, "identity:")
    if id_name not in index:
        raise ParseError(f"unknown identity element {id_name!r}", line=id_line)

    hdr_line, rest = expect(2, "table:")
    if rest:
        raise ParseError("table rows start on the following lines", line=hdr_line)
    k = len(names)
    if len(lines) != 3 + k:
        raise ParseError(f"expected {k} table rows, found {len(lines) - 3}", line=lines[-1][0])
    table = []
    for r in range(k):
        lineno, content = lines[3 + r]
        entries = content.split()
        if len(entries) != k:
            raise ParseError(f"row has {len(entries)} entries, expected {k}", line=lineno)
        row = []
        for nm in entries:
            if nm not in index:
                raise ParseError(f"unknown element name {nm!r}", line=lineno)
            row.append(index[nm])
        table.append(row)
    return validate_monoid(table, identity=index[id_name], names=names)


def format_monoid_table(M: FiniteMonoid) -> str:
    lines = ["elements: " + " ".join(M.names), f"identity: {M.names[0]}", "table:"]
    for row in M.table:
        lines.append(" ".join(M.names[v] for v in row))
    return "\n".join(lines) + "\n"
