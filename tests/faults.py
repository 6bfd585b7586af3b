"""Fault injection for the tests: one patch reaches every binding of a function."""

import importlib
import pkgutil

import monospec


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
