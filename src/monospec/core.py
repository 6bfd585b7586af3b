"""Finite commutative monoids as validated multiplication tables.

Elements are integer indices into the table; the identity is always index 0
(`validate_monoid` relabels on construction when necessary).  Element sets are
plain frozensets of indices with a canonical sorted rendering.  `memoized`
functions share their results inside one `memo_scope` (a `verify` run) and
compute afresh everywhere else.
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

    The key is (fn, positional arguments, keyword arguments), compared by
    value, names included: one function's result never answers for another's,
    and equal tables with different names stay apart.  fn must be pure and
    return a value its callers do not mutate, since every hit hands out the
    same object.
    """
    @wraps(fn)
    def wrapper(*args, **kwargs):
        memo = _memo.table
        if memo is None:
            return fn(*args, **kwargs)
        key = (fn, args, tuple(sorted(kwargs.items()))) if kwargs else (fn, args)
        try:
            return memo[key]
        except KeyError:
            pass
        except TypeError:  # an unhashable argument has no key
            return fn(*args, **kwargs)
        result = memo[key] = fn(*args, **kwargs)
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
    witnessing indices.
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
    for i in range(n):
        if table[identity][i] != i:
            raise ValidationError(
                f"broken identity: {identity}*{i} = {table[identity][i]}, expected {i}"
            )
    for i in range(n):
        for j in range(i + 1, n):
            if table[i][j] != table[j][i]:
                raise ValidationError(
                    f"not commutative at pair ({i},{j}): {table[i][j]} != {table[j][i]}"
                )
    for i in range(n):
        for j in range(n):
            tij = table[i][j]
            row_i = table[i]
            row_tij = table[tij]
            for k in range(n):
                if row_tij[k] != row_i[table[j][k]]:
                    raise ValidationError(
                        f"not associative at triple ({i},{j},{k}): "
                        f"({i}*{j})*{k} = {row_tij[k]} but {i}*({j}*{k}) = {row_i[table[j][k]]}"
                    )
    if names is not None:
        if len(names) != n:
            raise ValidationError(f"{len(names)} names for {n} elements")
        seen = {}
        for i, nm in enumerate(names):
            if nm in seen:
                raise ValidationError(f"duplicate name {nm!r} at indices {seen[nm]} and {i}")
            seen[nm] = i
        names = tuple(names)
    else:
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


@memoized
def monoid_homs(M: FiniteMonoid, N: FiniteMonoid, limit=None) -> tuple[MonoidMap, ...]:
    """All monoid homomorphisms M -> N, in lexicographic order of image tuples.

    The search fixes the identity's image at 0, assigns elements 1, 2, ... in
    index order and tries their images in ascending order, so it finds the
    homs in that order.  The constraint table `checks[e]` lists each product
    a*b = p (a <= b) whose largest index max(b, p) is e; it is tested as soon
    as e is assigned.  `limit` stops the search early once that many homs
    were found.
    """
    n, m = M.size, N.size
    tgt = N.table
    checks = [[] for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            p = M.table[a][b]
            checks[max(b, p)].append((a, b, p))
    images = [0] * n
    out = []

    def assign(e: int):
        if limit is not None and len(out) >= limit:
            return
        if e == n:
            out.append(MonoidMap(M, N, tuple(images)))
            return
        for v in range(m):
            images[e] = v
            for a, b, p in checks[e]:
                if tgt[images[a]][images[b]] != images[p]:
                    break
            else:
                assign(e + 1)
            if limit is not None and len(out) >= limit:
                return

    assign(1)
    return tuple(out)


def render_set(M: FiniteMonoid, members) -> str:
    """Canonical text for an element set: names in index order, braced."""
    return "{" + ", ".join(M.names[i] for i in sorted(members)) + "}"


def parse_monoid_table(text: str) -> FiniteMonoid:
    """Parse the line-oriented table format.

    Layout: `elements: n1 n2 ...`, `identity: ni`, `table:` followed by one
    row of names per element.  `#` starts a comment line.
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
