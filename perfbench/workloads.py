"""Seeded inputs for the four benchmark workloads, with their expected answers.

Nothing here imports monospec and nothing reads `monospec.corpus`: the inputs
and the answers they are checked against are built from first principles, so
a change to the package can change neither what the benchmark feeds it nor
what it expects back.

Each workload is a fixed list of items (one pass).  The seed picks the
concrete inputs inside a fixed mix of sizes and families, so that the cost of
a pass barely depends on the seed while the inputs themselves do.
"""

from __future__ import annotations

import random
from pathlib import Path

WORKLOADS = ("tables", "presentations", "limits", "verify")

#: Items per pass, by table size, for `tables` (120 items, most of 14..16).
#: Cost grows as 2^n, so sorted by latency the sizes form steps; the counts
#: put the median inside the 14s and the 90th percentile inside the 16s, away
#: from a step, where a few items more or less would move them a lot.
TABLE_SIZES = {16: 36, 15: 22, 14: 22, 13: 8, 12: 8, 11: 6, 10: 6, 9: 6, 8: 6}

#: Items per pass, by generator count, for `presentations` (100 items); the
#: median falls inside the 6s and the 90th percentile inside the 8s.
PRES_GENERATORS = {5: 25, 6: 40, 7: 21, 8: 10, 9: 4}

#: Semilattice shapes checked by `profinite_check` in one `limits` pass
#: (chains, products of two chains, the free semilattice on 3 generators).
#: Several mid-sized systems rather than a few large ones: each item's time
#: is a median over passes, and a sum of many such medians is steadier.
PROFINITE_SHAPES = (
    [("chain", n) for n in (6, 6, 7, 7, 8, 8, 8, 9, 9, 9, 9, 9, 10)]
    + [("chains", (2, 3))] * 4 + [("chains", (2, 4))] * 4
    + [("chains", (3, 3))] * 3 + [("chains", (2, 5))] * 2 + [("free", 3)] * 4
)

#: Ambient table sizes for the `zg_check` items of one `limits` pass.
ZG_SIZES = [6, 7, 8, 9, 10, 11, 12] * 10

#: `monospec verify --seed s` runs in one `verify` pass.
VERIFY_SEEDS = 6


# --- commutative monoids as plain tables; the identity is index 0 ----------

def cyclic(index: int, period: int):
    """t^(index+period) = t^index; a group (one prime) exactly when index = 0."""
    n = index + period

    def reduce_exp(e):
        return e if e < n else index + (e - index) % period

    table = [[reduce_exp(a + b) for b in range(n)] for a in range(n)]
    return table, 1 if index == 0 else 2, f"C({index},{period})"


def chain(n: int):
    """The n-element chain under max; its n primes are the sets {x > a}."""
    return [[max(a, b) for b in range(n)] for a in range(n)], n, f"chain{n}"


def free(k: int):
    """The free semilattice on k generators: subsets under union, 2^k primes."""
    return [[a | b for b in range(1 << k)] for a in range(1 << k)], 1 << k, f"free{k}"


def product(A, B):
    """Componentwise product; |Spec(A x B)| = |Spec A| * |Spec B|."""
    (ta, pa, na), (tb, pb, nb) = A, B
    m = len(tb)
    table = [
        [ta[i][k] * m + tb[j][l] for k in range(len(ta)) for l in range(m)]
        for i in range(len(ta)) for j in range(m)
    ]
    return table, pa * pb, f"{na}x{nb}"


def families(n: int, products: bool = True) -> list[str]:
    out = ["cyclic", "chain"]
    if n >= 4 and n & (n - 1) == 0:
        out.append("free")
    if products and any(n % d == 0 for d in range(2, n)):
        out.append("product")
    return out


def table_of_size(n: int, family: str, rng: random.Random):
    """(table, prime count, label) of a random member of `family` of size n."""
    if family == "cyclic":
        index = rng.randrange(n)
        return cyclic(index, n - index)
    if family == "chain":
        return chain(n)
    if family == "free":
        return free(n.bit_length() - 1)
    a = rng.choice([d for d in range(2, n) if n % d == 0])
    return product(*(table_of_size(m, rng.choice(families(m, products=False)), rng)
                     for m in (a, n // a)))


def relabel(table, rng: random.Random):
    """Shuffle the element order and rename.

    Returns (rows, identity, names, pos): rows are indices into `names`, and
    pos maps an original index to its new one.
    """
    n = len(table)
    order = list(range(n))
    rng.shuffle(order)
    pos = {e: i for i, e in enumerate(order)}
    names = [f"m{i}" for i in range(n)]
    rows = [[pos[table[e][f]] for f in order] for e in order]
    return rows, pos[0], names, pos


def mon_text(table, rng: random.Random) -> str:
    rows, identity, names, _ = relabel(table, rng)
    lines = ["elements: " + " ".join(names), f"identity: {names[identity]}", "table:"]
    lines += [" ".join(names[v] for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def submonoid_closure(table, members) -> set[int]:
    seen = set(members) | {0}
    work = list(seen)
    while work:
        a = work.pop()
        for b in list(seen):
            p = table[a][b]
            if p not in seen:
                seen.add(p)
                work.append(p)
    return seen


def submonoid_chain(table, length: int, rng: random.Random) -> list[set[int]]:
    """Up to `length` strictly increasing submonoids ending with the whole
    monoid; each one before it adds a random generator to its predecessor."""
    n = len(table)
    stages = [submonoid_closure(table, [rng.randrange(1, n)])]
    while len(stages) < length - 1 and len(stages[-1]) < n:
        outside = [x for x in range(n) if x not in stages[-1]]
        stages.append(submonoid_closure(table, stages[-1] | {rng.choice(outside)}))
    if len(stages[-1]) < n:
        stages.append(set(range(n)))
    return stages


# --- presentations ----------------------------------------------------------

def word_text(exps: dict[int, int], names) -> str:
    return " ".join(names[g] if e == 1 else f"{names[g]}^{e}" for g, e in sorted(exps.items()))


def presentation(k: int, groups: int, extra: int, rng: random.Random):
    """k generators in `groups` blocks tied by x^a = y^b, plus `extra` random
    relations; |L| <= 2^groups.  Returns (.pres text, expected prime supports).
    """
    names = [f"g{i}" for i in range(k)]
    perm = list(range(k))
    rng.shuffle(perm)
    cuts = [0] + sorted(rng.sample(range(1, k), groups - 1)) + [k]
    rels = []
    for lo, hi in zip(cuts, cuts[1:]):
        block = perm[lo:hi]
        for x, y in zip(block, block[1:]):
            rels.append(({x: rng.randint(1, 3)}, {y: rng.randint(1, 3)}))
    for _ in range(extra):
        u = {g: rng.randint(1, 3) for g in rng.sample(range(k), rng.randint(1, 2))}
        v = {g: rng.randint(1, 3) for g in rng.sample(range(k), rng.randint(1, 2))}
        rels.append((u, v))
    text = "gens: " + " ".join(names) + "\n"
    text += "rels: " + "; ".join(f"{word_text(u, names)} = {word_text(v, names)}" for u, v in rels) + "\n"
    return text, prime_supports(k, rels, names)


def prime_supports(k: int, rels, names) -> list[list[str]]:
    """Oracle: S is a prime support iff every relation u = v has supp(u)
    meeting S exactly when supp(v) does; scanned over all 2^k sets S."""
    masks = [(sum(1 << g for g in u), sum(1 << g for g in v)) for u, v in rels]
    out = []
    for S in range(1 << k):
        if all(bool(mu & S) == bool(mv & S) for mu, mv in masks):
            out.append([names[g] for g in range(k) if (S >> g) & 1])
    return out


# --- the four workloads -----------------------------------------------------

def spec_item(path: Path, check: dict) -> dict:
    return {"kind": "cli", "argv": ["spec", "--via", "all", str(path)], "check": check}


def tables(seed: int, workdir: Path):
    rng = random.Random(f"tables/{seed}")
    items = []
    for n, count in TABLE_SIZES.items():
        fams = families(n)
        for j in range(count):
            table, primes, label = table_of_size(n, fams[j % len(fams)], rng)
            path = workdir / f"t{len(items):03d}.mon"
            path.write_text(mon_text(table, rng))
            items.append(spec_item(path, {"type": "count", "primes": primes, "label": label}))
    rng.shuffle(items)
    warm = workdir / "warmup.mon"
    table, primes, label = chain(3)
    warm.write_text(mon_text(table, rng))
    return items, [spec_item(warm, {"type": "count", "primes": primes, "label": label})]


def presentations(seed: int, workdir: Path):
    rng = random.Random(f"presentations/{seed}")
    items = []
    for k, count in PRES_GENERATORS.items():
        for j in range(count):
            groups, extra = 1 + j % 4, (j // 4) % 3
            text, supports = presentation(k, groups, extra, rng)
            path = workdir / f"p{len(items):03d}.pres"
            path.write_text(text)
            items.append(spec_item(path, {"type": "supports", "supports": supports}))
    rng.shuffle(items)
    text, supports = presentation(2, 1, 0, rng)
    warm = workdir / "warmup.pres"
    warm.write_text(text)
    return items, [spec_item(warm, {"type": "supports", "supports": supports})]


def semilattice(shape, arg):
    if shape == "chain":
        return chain(arg)
    if shape == "free":
        return free(arg)
    return product(chain(arg[0]), chain(arg[1]))


def limits(seed: int, workdir: Path):
    rng = random.Random(f"limits/{seed}")
    items = []
    for shape, arg in PROFINITE_SHAPES:
        items.append(limits_item("profinite", semilattice(shape, arg)[0], [], rng))
    for j, n in enumerate(ZG_SIZES):
        fams = families(n)
        table = table_of_size(n, fams[j % len(fams)], rng)[0]
        items.append(limits_item("zg", table, submonoid_chain(table, 2 + j % 3, rng), rng))
    rng.shuffle(items)
    warm = [limits_item("profinite", chain(3)[0], [], rng),
            limits_item("zg", cyclic(1, 2)[0], [{0}, {0, 1, 2}], rng)]
    return items, warm


def limits_item(kind: str, table, stages, rng: random.Random) -> dict:
    """A relabeled table; for zg_check, also its submonoid chain by name."""
    rows, identity, names, pos = relabel(table, rng)
    item = {"kind": kind, "table": rows, "identity": identity, "names": names}
    if kind == "zg":
        item["chain"] = [sorted(names[pos[x]] for x in stage) for stage in stages]
    return item


def verify(seed: int, workdir: Path):
    base = seed * VERIFY_SEEDS
    items = [{"kind": "cli", "argv": ["verify", "--seed", str(s)], "check": {"type": "verify"}}
             for s in range(base, base + VERIFY_SEEDS)]
    warm = workdir / "warmup.mon"
    table, primes, label = chain(3)
    warm.write_text(mon_text(table, random.Random(f"verify/{seed}")))
    return items, [spec_item(warm, {"type": "count", "primes": primes, "label": label})]


def build(workload: str, seed: int, workdir: Path):
    """(items, warm-up items) of one pass of `workload` for `seed`."""
    return {"tables": tables, "presentations": presentations,
            "limits": limits, "verify": verify}[workload](seed, workdir)


# --- output oracles ---------------------------------------------------------

def spec_routes(out: str) -> dict[str, list[str]]:
    """Per route: its `spec via <route>: N primes` header, then its points."""
    routes: dict[str, list[str]] = {}
    current = None
    for line in out.splitlines():
        if line.startswith("spec via "):
            current = routes.setdefault(line[len("spec via "):].split(":")[0], [])
            current.append(line)
        elif line.startswith("  ") and current is not None:
            current.append(line.strip())
    return routes


def check_output(check: dict, rc: int, out: str) -> str | None:
    """None when a `monospec` CLI run printed what the input's construction
    predicts; otherwise the reason it did not."""
    if rc != 0:
        return f"exit code {rc}"
    lines = out.splitlines()
    if check["type"] == "verify":
        suites = [ln for ln in lines if ln.startswith(("PASS ", "FAIL "))]
        bad = [ln for ln in suites if not ln.startswith("PASS ")]
        return None if suites and not bad else f"suites failing: {bad or 'none printed'}"
    if "routes agree: yes" not in lines:
        return "no `routes agree: yes` line"
    routes = spec_routes(out)
    if sorted(routes) != ["alpha", "brute", "hom"]:
        return f"routes printed: {sorted(routes)}"
    for via, (header, *points) in routes.items():
        if header != f"spec via {via}: {len(points)} primes":
            return f"{via}: header {header!r} does not match {len(points)} points"
        if check["type"] == "count":
            if len(points) != check["primes"]:
                return f"{via}: {len(points)} primes, expected {check['primes']} for {check['label']}"
        else:
            got = sorted(tuple(p[1:-1].split(", ")) if p != "()" else () for p in points)
            want = sorted(tuple(s) for s in check["supports"])
            if got != want:
                return f"{via}: supports {got} != expected {want}"
    return None
