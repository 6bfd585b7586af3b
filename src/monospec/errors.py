"""Exception types shared across the package."""


class InputError(Exception):
    """Bad user input: malformed files, broken algebraic laws, exceeded caps."""


class ValidationError(InputError):
    """An algebraic law or structural invariant fails; message carries a witness."""


class ParseError(InputError):
    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", col {column}"
            where += ": "
        super().__init__(where + message)


class CapExceeded(InputError):
    """A set is over the size cap, raised only by `core.enforce_cap`.

    The cap bounds every set whose subsets are enumerated (a table's elements,
    a semilattice's elements) and a reflection's size before it is
    tabulated; a presentation's reflection is refused as soon as cap + 1 of
    its closed generator sets are listed, whatever the number of generators."""


class IntegrityError(Exception):
    """A cross-check that must hold by theorem failed: a bug, never bad input."""
