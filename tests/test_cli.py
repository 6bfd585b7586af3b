import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

from monospec.cli import main

DATA = Path(__file__).resolve().parent.parent / "data"
GOLDEN = Path(__file__).resolve().parent / "golden"
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
     "not monotone: 0 <= 1 but images 1 !<= 0"),
    (["adjoint", "chain2.mon", "chain3.mon", "--images", "a", "b", "--left"], None,
     "map does not preserve meets and the top"),
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


def test_verify_mutation_mode(capsys):
    assert main(["verify", "--mutate"]) == 0
    assert "mutation detected" in capsys.readouterr().out


@pytest.mark.parametrize("command", sorted(GOLDEN_COMMANDS))
@pytest.mark.parametrize("name", sorted(p.name for p in DATA.iterdir()
                                        if p.suffix in (".mon", ".pres")))
def test_golden_output(name, command, capsys):
    """stdout equals the text in tests/golden; every golden case exits 0."""
    assert main(GOLDEN_COMMANDS[command] + [str(DATA / name)]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.{command}.out").read_text()


def _newly_loaded(argv=None) -> set[str]:
    """The modules that `import monospec.cli`, then `cli.main(argv)` unless
    argv is None, newly load in a fresh interpreter; the call must exit 0.

    Only the modules these statements add count, so a module that the
    interpreter loads at start-up (from a .pth file, say) cannot fail a test.
    """
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    call = "0" if argv is None else f"monospec.cli.main({argv!r})"
    code = ("import sys; before = set(sys.modules); import monospec.cli; "
            f"rc = {call}; "
            "print(*sorted(set(sys.modules) - before), file=sys.stderr); sys.exit(rc)")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    return set(result.stderr.split())


def test_cli_import_leaves_the_suites_unloaded():
    """`import monospec.cli` newly loads no verify suite, corpus, topology,
    DOT writer or dataclasses."""
    loaded = _newly_loaded()
    assert "monospec.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "monospec.verify", "monospec.corpus",
                              "monospec.topology", "monospec.dot"})


@pytest.mark.parametrize("argv, expected", [
    (["spec", "--via", "all", "free3.mon"], set()),
    (["sl", "xy.pres"], set()),
    (["topology", "i.mon"], {"monospec.topology"}),
    (["dot", "free3.mon"], {"monospec.dot"}),
])
def test_topology_and_dot_load_with_their_commands(argv, expected):
    """`topology` and `dot` are loaded by their own commands only."""
    argv = [str(DATA / a) if a.endswith((".mon", ".pres")) else a for a in argv]
    assert _newly_loaded(argv) & {"monospec.topology", "monospec.dot"} == expected
