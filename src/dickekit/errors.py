"""Exception types shared across the library, and the one check of scalar
arguments that every entry point runs."""

from math import isfinite

import numpy as np


class DickekitError(Exception):
    """Base class for all library-specific errors."""


class DomainError(DickekitError, ValueError):
    """An input lies outside an operation's documented domain."""


class InvariantViolationError(DickekitError, RuntimeError):
    """An internal consistency check failed; indicates a bug, not bad input."""


# Concrete types, not the numbers ABCs: an ABC isinstance costs several times
# more, and states are built one at a time.  bool is an int subclass but is
# never a count or a number here; np.bool_ is neither an np.integer nor an
# np.floating.
_INTEGERS = (int, np.integer)
_REALS = (int, float, np.integer, np.floating)


def _refuse(name: str, kind: str, value, lo, hi, strict: bool = False) -> DomainError:
    if lo is not None and hi is not None:
        kind += f" in {'(' if strict else '['}{lo}, {hi}]"
    elif lo is not None:
        kind += f" {'>' if strict else '>='} {lo}"
    elif hi is not None:
        kind += f" <= {hi}"
    return DomainError(f"{name} must be {kind}, got {value!r}")


def _check_int(value, name: str, lo=None, hi=None, even: bool = False):
    """``value`` if it is a Python or NumPy integer, never a bool, within
    [lo, hi] (a bound of None is open) and, with ``even``, even; otherwise
    DomainError naming ``name``."""
    if (isinstance(value, _INTEGERS) and not isinstance(value, bool)
            and (lo is None or value >= lo) and (hi is None or value <= hi)
            and not (even and value % 2)):
        return value
    raise _refuse(name, "an even integer" if even else "an integer", value, lo, hi)


def _check_real(value, name: str, lo=None, hi=None, strict: bool = False) -> float:
    """``value`` as a float if it is a finite Python or NumPy int or float,
    never a bool, within [lo, hi] (a bound of None is open; ``strict`` makes
    lo itself refused); otherwise DomainError naming ``name``."""
    if isinstance(value, _REALS) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an int beyond the float range
            x = float("inf")
        if (isfinite(x) and (lo is None or (x > lo if strict else x >= lo))
                and (hi is None or x <= hi)):
            return x
    raise _refuse(name, "a finite number", value, lo, hi, strict)
