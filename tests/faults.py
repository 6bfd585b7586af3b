"""Fault injection for the tests: one patch reaches every binding of a function.
Run counters for the table kernels and the right adjoints behind the run memo."""

import importlib
import pkgutil

import monospec
from monospec import core, semilattice, spectrum


def patch_every_binding(monkeypatch, name, fn):
    """Bind fn in place of the package's function `name` in every module that binds it.

    The package and every module in it are loaded first, so none can bind
    the original later or bind the fault past the test.  The package must
    bind one object under `name`, and some module must bind it: a fault aimed
    at a function that moved or was renamed then fails its test instead of
    patching nothing.
    """
    modules = [monospec] + [importlib.import_module(f"monospec.{info.name}")
                            for info in pkgutil.iter_modules(monospec.__path__)]
    bound = [m for m in modules if name in vars(m)]
    assert len({id(vars(m)[name]) for m in bound}) == 1, f"monospec binds no single {name}"
    for module in bound:
        monkeypatch.setattr(module, name, fn)


def drop_last_closed_set(monkeypatch):
    """Rebind `core.closed_sets`, wherever it is bound, to a copy that lists
    every closed set but the last, as lazily as the original."""
    valid = core.closed_sets

    def dropped(k, close):
        sets = valid(k, close)
        last = next(sets)
        for c in sets:
            yield last
            last = c

    patch_every_binding(monkeypatch, "closed_sets", dropped)


def count_kernel_runs(monkeypatch):
    """Rebind the hom search, the brute scan and the right adjoint to memoized
    copies that count their runs.

    Returns a dict of run counts, `homs`, `brute` and `adjoints`, that grows
    as the functions behind the memo run; a memo hit does not count.
    """
    runs = {"homs": 0, "brute": 0, "adjoints": 0}
    hom_search, brute_scan = core._hom_images.__wrapped__, spectrum._brute_primes.__wrapped__
    adjoint = semilattice.right_adjoint.__wrapped__

    def homs(source, target):
        runs["homs"] += 1
        return hom_search(source, target)

    def brute(table, cap):
        runs["brute"] += 1
        return brute_scan(table, cap)

    def right_adjoint(f):
        runs["adjoints"] += 1
        return adjoint(f)

    monkeypatch.setattr(core, "_hom_images", core.memoized(homs))
    monkeypatch.setattr(spectrum, "_brute_primes", core.memoized(brute))
    patch_every_binding(monkeypatch, "right_adjoint", core.memoized(right_adjoint))
    return runs
