"""Command-line front end.

Exit codes: 0 success, 1 input error (parse failure, cap exceeded, bad flags,
unknown `--via` route), 2 integrity failure (independent routes disagree, a
self-check that holds by theorem fails, or a `verify` suite fails: a bug,
never bad input).
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .congruence import sl_reflection
from .core import SUBSET_CAP, format_monoid_table, parse_monoid_table, render_set
from .errors import InputError, IntegrityError
from .semilattice import from_monoid, monotone_map, left_adjoint, right_adjoint
from .spectrum import (
    ROUTES,
    generator_supports,
    render_support,
    route_primes,
    spec_monoid,
    spectrum_monoid,
)


def _load(path: str, kind: str | None, cap: int = SUBSET_CAP):
    """The input's table, and (P, generator images) for a presentation P or None.

    A presentation is read as its reflection table, whose spectrum is the
    presented monoid's; past `cap` elements it raises CapExceeded.
    """
    if kind is None:
        suffix = Path(path).suffix
        if suffix == ".mon":
            kind = "mon"
        elif suffix == ".pres":
            kind = "pres"
        else:
            raise InputError(f"cannot infer input kind from {path!r}; pass --kind")
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # files saved with a byte-order mark parse too
    except UnicodeDecodeError as e:
        raise InputError(f"{path}: not UTF-8 text ({e.reason})")
    if kind == "mon":
        return parse_monoid_table(text), None
    # loaded with the first presentation, so table inputs never compile it
    from .presentation import parse_presentation, sl_of_presentation

    P = parse_presentation(text)
    L, gen_images = sl_of_presentation(P, cap)
    return L.monoid, (P, gen_images)


def _labels(pres, points) -> dict:
    """The names of a presentation's primes `points`: the generators they hold."""
    if pres is None:
        return {}
    P, gen_images = pres
    return {p: render_support(P, s) for p, s in zip(points, generator_supports(gen_images, points))}


def cmd_spec(args) -> int:
    vias = args.via.split(",")
    unknown = [v for v in vias if v not in ROUTES + ("all",)]
    if unknown:
        raise InputError(f"unknown route {unknown[0]!r} in --via {args.via!r}")
    if "all" in vias:
        vias = ROUTES
    M, pres = _load(args.input, args.kind, args.cap)
    # alpha first, so that a cap error names the reflection before the table
    results = {via: route_primes(M, via, args.cap) for via in ("alpha", "brute", "hom") if via in vias}
    values = list(results.values())
    labels = _labels(pres, values[0])
    for via in ROUTES:
        if via in results:
            pts = results[via]
            print(f"spec via {via}: {len(pts)} primes")
            for p in pts:
                print("  " + labels.get(p, render_set(M, p)))
    if len(values) > 1:
        agree = all(v == values[0] for v in values[1:])
        print(f"routes agree: {'yes' if agree else 'NO'}")
        if not agree:
            raise IntegrityError("independent spectrum routes disagree")
    return 0


def cmd_sl(args) -> int:
    M, pres = _load(args.input, args.kind, args.cap)
    L, q = sl_reflection(M)
    print(format_monoid_table(L.monoid), end="")
    if pres is None:
        print("projection: " + " ".join(
            f"{M.names[x]}->{L.names[q.images[x]]}" for x in M.elements()))
    else:
        P, gen_images = pres
        print("generators: " + " ".join(
            f"{g}->{L.names[i]}" for g, i in zip(P.generators, gen_images)))
    return 0


def cmd_dot(args) -> int:
    from .dot import hasse_dot  # loaded here, so no other command pays for it

    L, _ = sl_reflection(_load(args.input, args.kind, args.cap)[0])
    if args.spec:
        S = spec_monoid(L.monoid, args.cap)
        L = from_monoid(spectrum_monoid(S))
        print(hasse_dot(L, graph_name="spec"), end="")
    else:
        print(hasse_dot(L), end="")
    return 0


def cmd_topology(args) -> int:
    from .topology import format_opens, ideal_opens  # as for `dot`

    L, _ = sl_reflection(_load(args.input, args.kind, args.cap)[0])
    T = ideal_opens(L, cap=args.cap)
    print(format_opens(T, names=L.names), end="")
    return 0


def cmd_adjoint(args) -> int:
    src, _ = _load(args.source, "mon")
    tgt, _ = _load(args.target, "mon")
    Ls, Lt = from_monoid(src), from_monoid(tgt)
    name_index = {n: i for i, n in enumerate(Lt.names)}
    try:
        images = [name_index[n] for n in args.images]
    except KeyError as e:
        raise InputError(f"unknown target element {e.args[0]!r}")
    f = monotone_map(Ls, Lt, images)
    g = left_adjoint(f) if args.left else right_adjoint(f)
    kind = "left" if args.left else "right"
    print(f"{kind} adjoint:")
    for y in g.source.elements():
        print(f"  {g.source.names[y]} -> {g.target.names[g.images[y]]}")
    return 0


def cmd_verify(args) -> int:
    # the suites and corpora load here, so no other command pays for them
    from .verify import run_all

    results = run_all(seed=args.seed, quick=args.quick)
    all_ok = True
    for name, fails, total in results:
        status = "PASS" if fails == 0 else "FAIL"
        print(f"{status} {name} ({total - fails}/{total})")
        if fails:
            all_ok = False
    return 0 if all_ok else 2


class _Parser(argparse.ArgumentParser):
    """Reports bad flags as input errors (exit 1) instead of argparse's exit 2."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def _add_input(p):
    p.add_argument("input", help="input file (.mon table or .pres presentation)")
    p.add_argument("--kind", choices=["mon", "pres"], help="override extension inference")
    p.add_argument("--cap", type=int, default=SUBSET_CAP, help="size cap for enumerations")


def _spec_arguments(p):
    _add_input(p)
    p.add_argument("--via", default="alpha",
                   help="comma list of routes: brute, hom, alpha, all")
    p.set_defaults(func=cmd_spec)


def _sl_arguments(p):
    _add_input(p)
    p.set_defaults(func=cmd_sl)


def _dot_arguments(p):
    _add_input(p)
    p.add_argument("--spec", action="store_true", help="diagram of the spectrum instead")
    p.set_defaults(func=cmd_dot)


def _topology_arguments(p):
    _add_input(p)
    p.set_defaults(func=cmd_topology)


def _adjoint_arguments(p):
    p.add_argument("source", help=".mon file with an idempotent table")
    p.add_argument("target", help=".mon file with an idempotent table")
    p.add_argument("--images", nargs="+", required=True,
                   help="target element names, one per source element in order")
    p.add_argument("--left", action="store_true", help="left adjoint instead of right")
    p.set_defaults(func=cmd_adjoint)


def _verify_arguments(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quick", action="store_true", help="smaller corpus")
    p.set_defaults(func=cmd_verify)


#: Each command's help line, and what adds its arguments and its `func`.
COMMANDS = {
    "spec": ("compute the prime spectrum", _spec_arguments),
    "sl": ("idempotent reflection as a table", _sl_arguments),
    "dot": ("Hasse diagram as DOT", _dot_arguments),
    "topology": ("ideal opens of the reflection", _topology_arguments),
    "adjoint": ("adjoint of a semilattice map", _adjoint_arguments),
    "verify": ("run the property suites over a seeded corpus", _verify_arguments),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """A new parser of every command, or of `command` alone.

    Both parse an argv that starts with `command` alike, and the one-command
    parser costs a fraction to build: on small inputs building the parser of
    every command takes longer than the maths.  Each call builds afresh, so a
    caller may change what it returns; `main` keeps its own copies in `_parser`.
    """
    parser = _Parser(prog="monospec",
                     description="Exact spectra of commutative monoids")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS if command is None else [command]:
        help_text, add_arguments = COMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


#: The parsers `main` uses, one per command name (None for every command's),
#: each built on its first use in the process.  A parse leaves its parser as
#: it was, and each `cmd_*` reads the module's names when it runs.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    """Run the command argv (by default `sys.argv[1:]`) names; its exit code.

    The first call of a command in a process builds that command's parser and
    later calls reuse it, so a one-shot process builds one parser either way.
    """
    argv = sys.argv[1:] if argv is None else argv
    # help, no arguments and unknown commands need every command's parser
    command = argv[0] if argv and argv[0] in COMMANDS else None
    try:
        args = _parser(command).parse_args(argv)
        return args.func(args)
    except (InputError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except IntegrityError as e:
        print(f"integrity failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
