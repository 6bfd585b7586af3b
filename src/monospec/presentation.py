"""Commutative monoid presentations and their idempotent reflections.

A presentation is a list of generator names plus relations between commutative
words (exponent vectors).  The presented monoid itself is never materialized;
only its reflection, the quotient of the free semilattice on the generators by
the supports of the relations, which is always finite.  That quotient is the
lattice of generator sets closed under the rules supp(u) <= X => supp(v) <= X
and back, so `sl_of_presentation` lists those closed sets, as bitmasks, with
`core.closed_sets` and names each element by its closed set; neither the
free semilattice nor its 2^k generator sets are built for it.  The free
semilattice itself is the reflection of a presentation with no relations.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import NamedTuple

from .core import SUBSET_CAP, FiniteMonoid, closed_sets, enforce_cap, memoized
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


def _mask(subset) -> int:
    return sum(1 << i for i in subset)


def _subset_name(names, subset) -> str:
    return "{" + ",".join(names[i] for i in subset) + "}"


def free_semilattice(k: int) -> JoinSemilattice:
    """Subsets of the k generators g1, ..., gk under union; identity is the empty set.

    The reflection of the presentation on g1, ..., gk with no relations, so
    its elements come by size, then lexicographically.  Up to 7 generators:
    CapExceeded when its 2^k elements exceed 128, before any set is listed.
    """
    enforce_cap("size", 1 << k, 1 << 7)
    return sl_of_presentation(Presentation(tuple(f"g{i + 1}" for i in range(k)), ()), 1 << k)[0]


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

    The elements are the generator sets closed under the rules
    supp(u) <= X => supp(v) <= X and back, one pair per relation u = v
    (x^a with a >= 1 has the support {x}); the join of two is the closure of
    their union.  This is the quotient of the free semilattice by the
    relations' supports, without its 2^k elements or 4^k table.
    `core.closed_sets` lists the closed sets as masks in increasing order,
    at most k closure calls each, so the work grows with |L|, not 2^k.  Each
    class is named by its closed set, and the classes are ordered by size,
    then lexicographically; names are bracketed when |L| < 2^k.

    Raises CapExceeded as soon as cap + 1 closed sets are listed, before any
    table is built, whatever the number of generators.  Raises
    IntegrityError when a listed set breaks a rule or a join of listed sets
    (the generators' images and the identity included) is not listed.
    """
    k = len(P.generators)
    rules = set()
    for u, v in P.relations:
        a, b = _mask(support(u)), _mask(support(v))
        if b & ~a:
            rules.add((a, b))
        if a & ~b:
            rules.add((b, a))
    # one set past the cap, and the least set whatever the cap, as --cap may be negative
    closed = list(islice(closed_sets(k, lambda x: _horn_closure(x, rules)), max(cap, 0) + 1))
    enforce_cap("reflection size", len(closed), cap)

    def name(x: int) -> str:
        return _subset_name(P.generators, [g for g in range(k) if x >> g & 1])

    for c in closed:
        for a, b in rules:
            if a & c == a and b & ~c:
                raise IntegrityError(f"listed generator set {name(c)} is not closed "
                                     f"under the rule {name(a)} => {name(b)}")
    members = {c: [g for g in range(k) if c >> g & 1] for c in closed}
    closed.sort(key=lambda c: (len(members[c]), members[c]))
    index = {c: i for i, c in enumerate(closed)}
    joins = dict(index)  # each mask's class; a listed set is its own closure

    def join(x: int) -> int:
        if x not in joins:
            c = _horn_closure(x, rules)
            if c not in index:
                raise IntegrityError(f"the closure {name(c)} of {name(x)} is not a listed set")
            joins[x] = index[c]
        return joins[x]

    if join(0) != 0:
        raise IntegrityError("the closure of the empty set is not the least listed set")
    table = tuple(tuple([join(a | b) for b in closed]) for a in closed)
    names = tuple(_subset_name(P.generators, members[c]) for c in closed)
    if len(closed) < 1 << k:
        names = tuple(f"[{n}]" for n in names)
    gen_images = tuple(join(1 << g) for g in range(k))
    return from_monoid(FiniteMonoid(table, names)), gen_images
