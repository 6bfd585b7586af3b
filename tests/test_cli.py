import argparse
import ast
import functools
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import ModuleType

import pytest

from faults import patch_every_binding
import monospec
from monospec import cli, presentation
from monospec.cli import COMMANDS, build_parser, main
from monospec.core import format_monoid_table
from monospec.errors import InputError, IntegrityError
from monospec.presentation import free_semilattice
from monospec.spectrum import route_primes

DATA = Path(__file__).resolve().parent.parent / "data"
GOLDEN = Path(__file__).resolve().parent / "golden"
SCALE = Path(__file__).resolve().parent / "scale"
GOLDEN_COMMANDS = {
    "spec-via-all": ["spec", "--via", "all"],
    "spec-via-brute": ["spec", "--via", "brute"],
    "spec-via-hom-alpha": ["spec", "--via", "hom,alpha"],
    "sl": ["sl"],
    "dot": ["dot"],
    "dot-spec": ["dot", "--spec"],
    "topology": ["topology"],
}


@pytest.fixture
def files(tmp_path):
    n = tmp_path / "n.pres"
    n.write_text("gens: t\n")
    i = tmp_path / "i.mon"
    i.write_text("elements: 1 0\nidentity: 1\ntable:\n1 0\n0 0\n")
    z2 = tmp_path / "z2.mon"
    z2.write_text("elements: 1 g\nidentity: 1\ntable:\n1 g\ng 1\n")
    chain3 = tmp_path / "chain3.mon"
    chain3.write_text("elements: a b c\nidentity: a\ntable:\na b c\nb b c\nc c c\n")
    chain2 = tmp_path / "chain2.mon"
    chain2.write_text("elements: p q\nidentity: p\ntable:\np q\nq q\n")
    bad = tmp_path / "bad.mon"
    bad.write_text("elements: a b\nidentity: a\ntable:\na b\n")
    return tmp_path


def test_spec_natural_numbers(files, capsys):
    assert main(["spec", "--via", "all", str(files / "n.pres")]) == 0
    out = capsys.readouterr().out
    assert "2 primes" in out
    assert "(t)" in out and "()" in out
    assert "routes agree: yes" in out


def test_spec_z2(files, capsys):
    assert main(["spec", str(files / "z2.mon")]) == 0
    out = capsys.readouterr().out
    assert "1 primes" in out and "{}" in out


def test_spec_cap_exceeded(files, capsys):
    for argv in (["spec", "--via", "brute", "--cap", "1", str(files / "i.mon")],
                 ["spec", "--via", "hom", "--cap", "1", str(files / "i.mon")],
                 ["spec", "--via", "alpha", "--cap", "1", str(files / "i.mon")],
                 ["spec", "--via", "hom", "--cap", "2", str(DATA / "xy.pres")],
                 ["spec", "--via", "alpha", "--cap", "2", str(DATA / "xy.pres")],
                 ["spec", "--via", "alpha", "--cap", "1", str(DATA / "xy.pres")]):
        assert main(argv) == 1
        assert "exceeds the cap of" in capsys.readouterr().err
    # the reflection route runs first, so its cap error is the one reported
    names = [f"e{i}" for i in range(17)]
    chain17 = files / "chain17.mon"
    chain17.write_text(f"elements: {' '.join(names)}\nidentity: e0\ntable:\n" + "".join(
        " ".join(names[max(i, j)] for j in range(17)) + "\n" for i in range(17)))
    assert main(["spec", "--via", "all", str(chain17)]) == 1
    assert capsys.readouterr().err == "error: reflection size 17 exceeds the cap of 16\n"
    # the free reflection on 12 generators (4096 elements) is refused at the
    # default cap before its 4096 x 4096 table is built
    twelve = files / "twelve.pres"
    twelve.write_text("gens: " + " ".join(f"g{i}" for i in range(12)) + "\n")
    start = perf_counter()
    assert main(["spec", str(twelve)]) == 1
    assert perf_counter() - start < 0.5
    assert "exceeds the cap" in capsys.readouterr().err


def _count_closures(monkeypatch) -> list:
    """Record the argument of every Horn closure the presentation kernel runs."""
    calls, closure = [], presentation._horn_closure

    def counted(x, rules):
        calls.append(x)
        return closure(x, rules)

    monkeypatch.setattr(presentation, "_horn_closure", counted)
    return calls


def test_free_13_generators_stop_at_the_17th_closed_set(monkeypatch, capsys):
    """NextClosure refuses the free semilattice on 13 generators (8192
    closed sets) once it lists the 17th, after at most 13 closure calls per
    listed set past the first, so never a 2^13 walk."""
    calls = _count_closures(monkeypatch)
    assert main(["spec", str(SCALE / "free13.pres")]) == 1
    assert capsys.readouterr().err == "error: reflection size 17 exceeds the cap of 16\n"
    assert 0 < len(calls) <= 17 * 13 + 1


def test_tied_24_generators_within_the_cap(monkeypatch, capsys):
    """24 generators tied in 4 blocks reflect to the free semilattice on 4
    (16 elements), which all three routes read at the default cap.  The
    closure calls: at most 24 per listed set past the first, one per join
    of two sets that are not nested, and one each for the identity and the
    24 generators."""
    calls = _count_closures(monkeypatch)
    assert main(["spec", "--via", "all", str(SCALE / "tied24.pres")]) == 0
    out = capsys.readouterr().out
    assert "spec via alpha: 16 primes" in out and out.endswith("routes agree: yes\n")
    assert len(calls) <= 15 * 24 + 1 + 16 * 15 // 2 + 1 + 24


def test_brute_scan_at_24_elements(capsys):
    """chain(4) x chain(6) at a raised cap: the brute scan over 2^23 subsets
    finds the 24 primes, one per pair of proper upsets, and alpha agrees."""
    assert main(["spec", "--via", "brute,alpha", "--cap", "24", str(SCALE / "chain4xchain6.mon")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("spec via brute: 24 primes\n") and out.endswith("routes agree: yes\n")


def test_topology_at_32_elements(capsys):
    """chain(32) at a raised cap: its 33 upsets, listed one by one, where a
    scan over its 2^32 subsets would be out of reach."""
    start = perf_counter()
    assert main(["topology", "--cap", "32", str(SCALE / "chain32.mon")]) == 0
    assert perf_counter() - start < 1
    assert len(capsys.readouterr().out.splitlines()) == 33


def test_reflection_commands_cap_presentations(files, capsys):
    # the free reflection on 10 generators has 1024 elements; sl, dot and
    # topology refuse it at the default cap instead of printing its table
    ten = files / "ten.pres"
    ten.write_text("gens: " + " ".join(f"g{i}" for i in range(10)) + "\n")
    for command in ("sl", "dot", "topology"):
        assert main([command, str(ten)]) == 1
        captured = capsys.readouterr()
        assert "exceeds the cap" in captured.err and captured.out == ""


def test_parse_error_exit_code(files, capsys):
    assert main(["spec", str(files / "bad.mon")]) == 1
    assert "error" in capsys.readouterr().err
    # bad flags, unknown routes, a directory and a file that is not UTF-8
    # are input errors too, never exit 2 or a traceback
    (files / "latin1.mon").write_bytes(b"elements: \xe9\nidentity: \xe9\ntable:\n\xe9\n")
    for argv in (["spec", "--kind", "mon", str(files)],
                 ["spec", str(files / "latin1.mon")],
                 ["spec", "--bogus", str(files / "i.mon")],
                 ["verify", "--seed", "x"],
                 ["spec", "--via", "brute,bogus", str(files / "i.mon")],
                 ["spec", "--via", "bogus", str(files / "i.mon")]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err and captured.out == ""


_TABLE_AB = "elements: a b\nidentity: a\ntable:\n"


@pytest.mark.parametrize("argv, text, message", [
    (["spec", "e.mon"], "# only a comment\n", "empty input"),
    (["spec", "e.mon"], "elements: a\n", "line 1: missing `identity:` line"),
    (["spec", "e.mon"], "elements:\nidentity: a\n", "line 1: no element names"),
    (["spec", "e.mon"], "elements: a b a\n", "line 1: duplicate element name 'a'"),
    (["spec", "e.mon"], "elements: a\nidentity: a\ntable: a\n",
     "line 3: table rows start on the following lines"),
    (["spec", "e.mon"], _TABLE_AB + "a\nb b\n", "line 4: row has 1 entries, expected 2"),
    (["spec", "e.mon"], _TABLE_AB + "a b\nb c\n", "line 5: unknown element name 'c'"),
    (["spec", "e.pres"], "\n# only a comment\n", "empty input"),
    (["spec", "e.pres"], "gens:\n", "line 1: no generators listed"),
    (["spec", "e.pres"], "gens: x 2y\n", "line 1: bad generator name '2y'"),
    (["spec", "e.pres"], "gens: x y x\n", "line 1: duplicate generator 'x'"),
    (["spec", "e.pres"], "gens: x\nx = 1\n", "line 2: expected `rels:` line"),
    (["spec", "e.pres"], "gens: x\nrels:\nx = 1\n", "line 3: unexpected extra line"),
    (["spec", "e.pres"], "gens: x\nrels: x = x^2 !\n", "line 2, col 15: cannot read word near '!'"),
    (["spec", "e.pres"], "gens: x\nrels: x =\n",
     "line 2, col 10: empty word (use `1` for the identity)"),
    (["adjoint", "chain2.mon", "chain3.mon", "--images", "a", "z"], None,
     "unknown target element 'z'"),
    (["adjoint", "chain2.mon", "chain3.mon", "--images", "a"], None, "1 images for 2 elements"),
    (["adjoint", "chain2.mon", "chain3.mon", "--images", "b", "a"], None,
     "not monotone: p <= q but images b !<= a"),
    (["adjoint", "chain2.mon", "chain3.mon", "--images", "a", "b", "--left"], None,
     "map does not preserve meets and the top"),
    (["adjoint", "z2.mon", "chain3.mon", "--images", "a", "b"], None,
     "not idempotent: element g has g*g = 1"),
])
def test_input_errors_exit_1_with_their_message(files, argv, text, message, capsys):
    """Each reachable input error prints `error: ` and its message, with the
    line (and column) where it has them, and exits 1 with nothing on stdout."""
    if text is not None:
        (files / argv[1]).write_text(text)
    argv = [str(files / a) if a.endswith((".mon", ".pres")) else a for a in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_unknown_extension(files, tmp_path, capsys):
    f = tmp_path / "x.txt"
    f.write_text("gens: t\n")
    assert main(["spec", str(f)]) == 1
    assert main(["spec", "--kind", "pres", str(f)]) == 0


def test_byte_order_mark_is_ignored(tmp_path, capsys):
    for name in ("free3.mon", "abc.pres"):
        f = tmp_path / name
        f.write_bytes(b"\xef\xbb\xbf" + (DATA / name).read_bytes())
        assert main(["spec", "--via", "all", str(DATA / name)]) == 0
        plain = capsys.readouterr().out
        assert main(["spec", "--via", "all", str(f)]) == 0
        assert capsys.readouterr().out == plain


def test_sl_command(files, capsys):
    assert main(["sl", str(files / "z2.mon")]) == 0
    out = capsys.readouterr().out
    assert "elements: [1]" in out


def test_dot_command(files, capsys):
    assert main(["dot", str(files / "i.mon")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph") and out.count("->") == 1


def test_dot_spec_diamond(files, tmp_path, capsys):
    f = tmp_path / "xy.pres"
    f.write_text("gens: x y\n")
    assert main(["dot", "--spec", str(f)]) == 0
    out = capsys.readouterr().out
    assert out.count("->") == 4  # diamond, order-reversed labels


def test_dot_spec_past_32_elements(tmp_path, capsys):
    """`dot --spec` reads the spectrum off the reflection, so it takes the
    64-element free semilattice on 6 generators at `--cap 64`, where brute
    force refuses anything past 32 elements whatever the cap."""
    f = tmp_path / "free6.mon"
    f.write_text(format_monoid_table(free_semilattice(6).monoid))
    assert main(["dot", "--spec", "--cap", "64", str(f)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph spec {") and out.count(" [label=") == 64
    # one cover per prime and generator outside it: 6 * 2^5
    assert out.count(" -> ") == 192


def test_topology_command(files, capsys):
    assert main(["topology", str(files / "chain3.mon")]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["{}", "{c}", "{b, c}", "{a, b, c}"]


def test_adjoint_command(files, capsys):
    code = main(["adjoint", str(files / "chain2.mon"), str(files / "chain3.mon"),
                 "--images", "a", "b"])
    assert code == 0
    out = capsys.readouterr().out
    assert "a -> p" in out and "b -> q" in out and "c -> q" in out


def test_byte_identical_output(files, capsys):
    main(["spec", "--via", "all", str(files / "n.pres")])
    first = capsys.readouterr().out
    main(["spec", "--via", "all", str(files / "n.pres")])
    assert capsys.readouterr().out == first


def test_verify_quick(capsys):
    assert main(["verify", "--quick", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


@pytest.mark.parametrize("argv, golden", [(["--seed", "0"], "verify-seed-0.out"),
                                           (["--quick", "--seed", "1"], "verify-quick-seed-1.out")])
def test_verify_golden_output(argv, golden, capsys):
    """Every suite line, totals included, equals the text in tests/golden."""
    assert main(["verify"] + argv) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


def test_verify_mutate_is_an_unknown_flag(capsys):
    """`verify` has no `--mutate` flag: a failing suite is its one way to report a fault."""
    assert main(["verify", "--mutate"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: monospec: unrecognized arguments: --mutate\n"


@pytest.mark.parametrize("command", sorted(GOLDEN_COMMANDS))
@pytest.mark.parametrize("name", sorted(p.name for p in DATA.iterdir()
                                        if p.suffix in (".mon", ".pres")))
def test_golden_output(name, command, capsys):
    """stdout equals the text in tests/golden; every golden case exits 0."""
    assert main(GOLDEN_COMMANDS[command] + [str(DATA / name)]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.{command}.out").read_text()


ADJOINT_ARGV = ["adjoint", str(DATA / "free3.mon"), str(DATA / "i.mon"),
                "--images", "1", "0", "1", "1", "0", "0", "1", "0"]


@pytest.mark.parametrize("flags, golden", [([], "adjoint-free3-i-right.out"),
                                            (["--left"], "adjoint-free3-i-left.out")])
def test_adjoint_golden_output(flags, golden, capsys):
    """Both adjoints of the map free(3) -> {1, 0} that sends the sets holding
    a to 0 equal the text in tests/golden: the right one reads the order as
    f(x) <= y, the left one as y <= g(x)."""
    assert main(ADJOINT_ARGV + flags) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


def _newly_loaded(argv=None, statement="import monospec.cli") -> set[str]:
    """The modules that `statement`, then `monospec.cli.main(argv)` unless
    argv is None, newly load in a fresh interpreter; the call must exit 0.

    Only the modules these statements add count, so a module that the
    interpreter loads at start-up (from a .pth file, say) cannot fail a test.
    """
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    call = "0" if argv is None else f"monospec.cli.main({argv!r})"
    code = (f"import sys; before = set(sys.modules); {statement}; "
            f"rc = {call}; "
            "print(*sorted(set(sys.modules) - before), file=sys.stderr); sys.exit(rc)")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    return set(result.stderr.split())


def test_cli_import_leaves_the_suites_unloaded():
    """`import monospec.cli` newly loads no verify suite, corpus, topology,
    DOT writer, presentation parser or dataclasses."""
    loaded = _newly_loaded()
    assert "monospec.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "monospec.verify", "monospec.corpus",
                              "monospec.topology", "monospec.dot", "monospec.presentation"})


def test_package_imports_only_the_standard_library():
    """Every absolute import in the package names `monospec` or a standard
    library module, so the package installs with no dependencies."""
    sources = sorted((Path(__file__).resolve().parent.parent / "src" / "monospec").glob("*.py"))
    imported = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update((path.name, alias.name.split(".")[0]) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add((path.name, node.module.split(".")[0]))
    assert len(sources) > 10 and {"argparse", "threading"} <= {top for _, top in imported}
    assert [(name, top) for name, top in sorted(imported)
            if top != "monospec" and top not in sys.stdlib_module_names] == []


@pytest.mark.parametrize("argv, expected", [
    (["spec", "--via", "all", "free3.mon"], set()),
    (["sl", "xy.pres"], {"monospec.presentation"}),
    (["topology", "i.mon"], {"monospec.topology"}),
    (["dot", "free3.mon"], {"monospec.dot"}),
])
def test_topology_and_dot_load_with_their_commands(argv, expected):
    """`topology` and `dot` are loaded by their own commands only, and
    `presentation` by the first `.pres` input."""
    argv = [str(DATA / a) if a.endswith((".mon", ".pres")) else a for a in argv]
    lazy = {"monospec.topology", "monospec.dot", "monospec.presentation"}
    assert _newly_loaded(argv) & lazy == expected


def test_limits_import_leaves_presentation_unloaded():
    loaded = _newly_loaded(statement="import monospec.limits")
    assert "monospec.limits" in loaded and "monospec.presentation" not in loaded


def test_package_reexports_presentation_lazily():
    """`import monospec` leaves `presentation` unloaded; reading one of its
    names from the package loads it. `__all__` lists them and every other
    name the package re-exports, and no submodule."""
    names = ("Presentation", "free_semilattice", "parse_presentation", "sl_of_presentation")
    assert "monospec.presentation" not in _newly_loaded(statement="import monospec")
    loaded = _newly_loaded(statement=f"from monospec import {', '.join(names)}")
    assert "monospec.presentation" in loaded
    assert not [name for name in monospec.__all__ if isinstance(getattr(monospec, name), ModuleType)]
    api = {name for name in dir(monospec)
           if not name.startswith("_") and not isinstance(getattr(monospec, name), ModuleType)}
    assert sorted(monospec.__all__) == sorted(api.union(names))


def _parse(parser, argv, capsys):
    """What `parser` makes of argv: its namespace, or its exit code or error
    text, with what it printed."""
    try:
        outcome = vars(parser.parse_args(argv))
    except SystemExit as e:
        outcome = ("exit", e.code)
    except InputError as e:
        outcome = ("error", str(e))
    captured = capsys.readouterr()
    return outcome, captured.out, captured.err


#: Help exits, errors and good parses, each as `main` is given them.
PARSE_ARGVS = [[command, "--help"] for command in COMMANDS] + [
    ["--help"], [], ["bogus"], ["spec"], ["spec", "a.mon", "extra"],
    ["spec", "--bogus", "a.mon"], ["spec", "--kind", "x", "a.mon"], ["verify", "--seed", "x"],
    ["adjoint", "a.mon"], ["spec", "--via", "all", "--cap", "8", "a.mon"], ["verify", "--quick"],
    ["adjoint", "a.mon", "b.mon", "--images", "x", "y", "--left"],
]


def _command(argv):
    return argv[0] if argv and argv[0] in COMMANDS else None


@pytest.mark.parametrize("argv", PARSE_ARGVS, ids=lambda argv: " ".join(argv) or "no arguments")
def test_one_command_parser_parses_like_the_full_one(argv, capsys):
    """`main` builds only the parser of the command argv names; it gives the
    same namespace, exit, error and help text as the parser of every command."""
    assert _parse(build_parser(_command(argv)), argv, capsys) == _parse(build_parser(), argv, capsys)


def test_a_reused_parser_parses_like_a_fresh_one(monkeypatch, capsys):
    """Help exits, errors and good parses, run twice in a row through `main`'s
    cached parsers, each give what a fresh parser gives; a parse shares no
    list with the one before."""
    monkeypatch.setattr(cli, "_parser", functools.cache(build_parser))
    for argv in PARSE_ARGVS + PARSE_ARGVS:
        cached = _parse(cli._parser(_command(argv)), argv, capsys)
        assert cached == _parse(build_parser(_command(argv)), argv, capsys), argv
    argv = ["adjoint", "a.mon", "b.mon", "--images", "x", "y"]
    first, second = (cli._parser("adjoint").parse_args(argv) for _ in range(2))
    assert first.images == second.images == ["x", "y"] and first.images is not second.images


def test_main_builds_only_the_parser_of_its_command(monkeypatch, capsys):
    """A command's first call in a process builds two parsers, the top one and
    its own, and its later calls build none; help builds them all, once.
    Given no argv, `main` reads the command from sys.argv."""
    monkeypatch.setattr(cli, "_parser", functools.cache(build_parser))
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    argv = ["spec", "--via", "all", str(DATA / "free3.mon")]
    assert main(argv) == 0
    assert len(built) == 2
    assert main(argv) == 0
    assert len(built) == 2
    monkeypatch.setattr(sys, "argv", ["monospec"] + argv)
    assert main() == 0
    assert len(built) == 2
    assert main(["sl", str(DATA / "free3.mon")]) == 0
    assert len(built) == 4
    capsys.readouterr()
    for count in (1 + len(COMMANDS), 0):
        built.clear()
        with pytest.raises(SystemExit) as exited:
            main(["--help"])
        assert exited.value.code == 0 and len(built) == count
        out = capsys.readouterr().out
        assert all(command in out for command in COMMANDS)


def test_caching_the_parser_freezes_no_binding(monkeypatch, capsys):
    """A fault patched in after `main` cached the `spec` parser still reaches
    its calls, and `build_parser` returns a new parser on every call."""
    monkeypatch.setattr(cli, "_parser", functools.cache(build_parser))
    argv = ["spec", "--via", "all", str(DATA / "free3.mon")]
    assert main(argv) == 0

    def faulty(M, via, cap):
        primes = route_primes(M, via, cap)
        return primes[1:] if via == "brute" else primes

    patch_every_binding(monkeypatch, "route_primes", faulty)
    capsys.readouterr()
    assert main(argv) == 2
    assert "routes agree: NO" in capsys.readouterr().out
    assert build_parser("spec") is not build_parser("spec")


def test_reflection_fault_reaches_the_cli_through_the_lazy_import(monkeypatch, capsys):
    """`_load` reads `sl_of_presentation` from `presentation` when it runs, so
    a patch of every binding reaches `.pres` inputs."""
    def faulty(P, cap):
        raise IntegrityError(f"faulty reflection of {len(P.generators)} generators")

    patch_every_binding(monkeypatch, "sl_of_presentation", faulty)
    assert main(["spec", "--via", "all", str(DATA / "xy.pres")]) == 2
    assert "faulty reflection of 2 generators" in capsys.readouterr().err
