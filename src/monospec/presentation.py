"""Commutative monoid presentations and their idempotent reflections.

A presentation is a list of generator names plus relations between commutative
words (exponent vectors).  The presented monoid itself is never materialized;
only its reflection, the quotient of the free semilattice on the generators by
the supports of the relations, which is always finite.  That quotient is the
lattice of generator sets closed under the rules supp(u) <= X => supp(v) <= X
and back, so it is computed from the Horn closures of the 2^k generator
bitmasks; the free semilattice itself is never built for it.
"""

from __future__ import annotations

import re
from itertools import combinations
from typing import NamedTuple

from .core import SUBSET_CAP, FiniteMonoid, enforce_cap, memoized
from .errors import IntegrityError, ParseError
from .semilattice import JoinSemilattice, from_monoid

_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_FACTOR = re.compile(r"([A-Za-z][A-Za-z0-9_]*)\s*(\^\s*(-?\d+))?")


class Presentation(NamedTuple):
    generators: tuple[str, ...]
    relations: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


def _parse_word(text: str, gens: dict[str, int], lineno: int, offset: int) -> tuple[int, ...]:
    exps = [0] * len(gens)
    s = text.strip()
    if not s:  # an all-blank side is reported where it begins
        raise ParseError("empty word (use `1` for the identity)", line=lineno, column=offset + 1)
    offset += len(text) - len(text.lstrip())  # columns count the stripped prefix
    if s == "1":
        return tuple(exps)
    pos = 0
    while pos < len(s):
        if s[pos].isspace():
            pos += 1
            continue
        m = _FACTOR.match(s, pos)
        if not m:
            raise ParseError(f"cannot read word near {s[pos:]!r}", line=lineno, column=offset + pos + 1)
        name = m.group(1)
        if name not in gens:
            raise ParseError(f"unknown generator {name!r}", line=lineno, column=offset + m.start(1) + 1)
        exp = 1
        if m.group(3) is not None:
            exp = int(m.group(3))
            if exp < 0:
                raise ParseError(f"negative exponent {exp}", line=lineno, column=offset + m.start(3) + 1)
        exps[gens[name]] += exp
        pos = m.end()
    return tuple(exps)


def parse_presentation(text: str) -> Presentation:
    """Parse `gens: ...` and an optional `rels: ...` line.

    Relations are separated by `;`, each `word = word`; a factor is a name
    with an optional `^k`; `1` denotes the empty word; `#` starts a comment
    line.  An empty `rels:` line has no relations, but an empty relation
    beside a `;` is an error.
    """
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        lines.append((lineno, raw))
    if not lines:
        raise ParseError("empty input")
    lineno, raw = lines[0]
    stripped = raw.strip()
    if not stripped.startswith("gens:"):
        raise ParseError("expected `gens:` line", line=lineno)
    gen_names = stripped[len("gens:"):].split()
    if not gen_names:
        raise ParseError("no generators listed", line=lineno)
    gens: dict[str, int] = {}
    for nm in gen_names:
        if not _NAME.fullmatch(nm):
            raise ParseError(f"bad generator name {nm!r}", line=lineno)
        if nm in gens:
            raise ParseError(f"duplicate generator {nm!r}", line=lineno)
        gens[nm] = len(gens)

    relations = []
    if len(lines) > 1:
        lineno, raw = lines[1]
        stripped = raw.strip()
        if not stripped.startswith("rels:"):
            raise ParseError("expected `rels:` line", line=lineno)
        offset = raw.index("rels:") + len("rels:")
        body = raw[offset:]
        for chunk in body.split(";") if body.strip() else ():
            if not chunk.strip():
                raise ParseError("empty relation", line=lineno, column=offset + 1)
            sides = chunk.split("=")
            if len(sides) != 2:
                raise ParseError(
                    f"relation needs exactly one `=`: {chunk.strip()!r}", line=lineno,
                    column=offset + len(chunk) - len(chunk.lstrip()) + 1,
                )
            lhs = _parse_word(sides[0], gens, lineno, offset)
            rhs = _parse_word(sides[1], gens, lineno, offset + len(sides[0]) + 1)
            relations.append((lhs, rhs))
            offset += len(chunk) + 1
    if len(lines) > 2:
        raise ParseError("unexpected extra line", line=lines[2][0])
    return Presentation(tuple(gen_names), tuple(relations))


def subsets_in_order(k: int) -> list[tuple[int, ...]]:
    """All subsets of range(k), by cardinality then lexicographic."""
    out = []
    for size in range(k + 1):
        out.extend(combinations(range(k), size))
    return out


def _mask(subset) -> int:
    return sum(1 << i for i in subset)


def _subset_name(names, subset) -> str:
    return "{" + ",".join(names[i] for i in subset) + "}"


@memoized
def free_semilattice(k: int, names=None) -> JoinSemilattice:
    """Subsets of k generators under union; identity is the empty set.

    Up to 7 generators: CapExceeded when its 2^k elements exceed 128, before
    the 4^k table (2^14 cells at k = 7) is built.
    """
    enforce_cap("size", 1 << k, 1 << 7)
    if names is None:
        names = tuple(f"g{i + 1}" for i in range(k))
    subsets = subsets_in_order(k)
    masks = [_mask(s) for s in subsets]
    index = [0] * (1 << k)
    for i, m in enumerate(masks):
        index[m] = i
    table = tuple(tuple(index[a | b] for b in masks) for a in masks)
    elem_names = tuple(_subset_name(names, s) for s in subsets)
    return from_monoid(FiniteMonoid(table, elem_names))


def support(word) -> tuple[int, ...]:
    return tuple(i for i, e in enumerate(word) if e > 0)


def _horn_closure(x: int, rules) -> int:
    """Least superset of x closed under every rule (a, b): a <= x implies b <= x."""
    while True:
        y = x
        for a, b in rules:
            if a & y == a:
                y |= b
        if y == x:
            return x
        x = y


@memoized
def sl_of_presentation(P: Presentation,
                       cap: int = SUBSET_CAP) -> tuple[JoinSemilattice, tuple[int, ...]]:
    """Reflection of the presented monoid, plus the images of the generators.

    Two generator sets are identified when they have the same closure under
    the rules supp(u) <= X => supp(v) <= X and back, one pair per relation
    u = v (x^a with a >= 1 has the support {x}).  The classes are numbered in
    the order of `subsets_in_order`, each represented by its first subset;
    this is the quotient of the free semilattice by the relations' supports,
    with its element order and names, computed in O(2^k k r) without the 4^k
    free table.  Raises CapExceeded when k or the reflection's size exceeds
    `cap`; the size check comes before any |L| x |L| table is built.
    """
    k = len(P.generators)
    enforce_cap("generator count", k, cap)
    rules = set()
    for u, v in P.relations:
        a, b = _mask(support(u)), _mask(support(v))
        if b & ~a:
            rules.add((a, b))
        if a & ~b:
            rules.add((b, a))
    # closure[x] from the closure of x less its lowest bit, already computed
    closure = [0] * (1 << k)
    closure[0] = _horn_closure(0, rules)
    for x in range(1, 1 << k):
        low = x & -x
        c = closure[x ^ low]
        closure[x] = c if c & low else _horn_closure(c | low, rules)
    subsets = subsets_in_order(k)
    class_of = [0] * (1 << k)
    reps, rep_subsets = [], []
    numbered = {}
    for s in subsets:
        x = _mask(s)
        c = closure[x]
        if c not in numbered:
            numbered[c] = len(reps)
            reps.append(x)
            rep_subsets.append(s)
        class_of[x] = numbered[c]
    enforce_cap("reflection size", len(reps), cap)
    # congruence: X and its representative stay together after adding any
    # generator, hence after adding any set (singletons generate the union)
    bits = [1 << g for g in range(k)]
    for x in range(1 << k):
        r = reps[class_of[x]]
        if r != x:
            for bit in bits:
                if class_of[x | bit] != class_of[r | bit]:
                    raise IntegrityError(
                        f"closure classes are not a congruence: masks {x} ~ {r} "
                        f"split after adding mask {bit}"
                    )
    table = tuple(tuple(class_of[a | b] for b in reps) for a in reps)
    names = tuple(_subset_name(P.generators, s) for s in rep_subsets)
    if len(reps) < len(subsets):
        names = tuple(f"[{name}]" for name in names)
    gen_images = tuple(class_of[bit] for bit in bits)
    return from_monoid(FiniteMonoid(table, names)), gen_images
