"""Exception types shared across the library, and the checks of scalar,
array, sequence and record arguments that every entry point runs."""

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
_NUMBERS = _REALS + (complex, np.complexfloating)


def _refuse(name: str, kind: str, value, lo, hi, strict: bool = False) -> DomainError:
    if lo is not None and hi is not None:
        kind += f" in {'(' if strict else '['}{lo}, {hi}]"
    elif lo is not None:
        kind += f" {'>' if strict else '>='} {lo}"
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


def _check_numeric(value, name: str, real: bool = False) -> np.ndarray:
    """``value`` as an array if it holds numbers (only real ones with ``real``):
    a numeric dtype, or an object array of Python or NumPy numbers, never bools,
    strings or bytes, which NumPy would parse or cast, and never a ragged nesting;
    otherwise DomainError naming ``name``."""
    numbers = "real numbers" if real else "numbers"
    try:
        arr = np.asarray(value)
    except ValueError as exc:  # NumPy's "inhomogeneous shape"
        raise DomainError(f"{name} must hold {numbers} in a rectangular array, got ragged nesting") from exc
    kinds, types = ("iuf", _REALS) if real else ("iufc", _NUMBERS)
    if arr.dtype.kind in kinds or (arr.dtype.kind == "O" and all(
            isinstance(x, types) and not isinstance(x, bool) for x in arr.flat)):
        return arr
    raise DomainError(f"{name} must hold {numbers}, got dtype {arr.dtype.name}")


def _check_bloch(value, name: str) -> np.ndarray:
    """``value`` as a fresh float array of Bloch vectors s = <sigma>/2 along its last
    axis, each real, finite and with |s| <= 1/2 + 1e-10; otherwise DomainError naming ``name``."""
    s = np.array(_check_numeric(value, name, real=True), dtype=float)
    if s.ndim < 1 or s.shape[-1] != 3:
        raise DomainError(f"{name} must have shape (..., 3), got {s.shape}")
    with np.errstate(over="ignore"):  # a length past the float range is inf, refused below
        lengths = np.linalg.norm(s, axis=-1)
    if not np.all(lengths <= 0.5 + 1e-10):  # NaN and inf fail too
        raise DomainError(f"{name} must be finite with length <= 1/2, max is {lengths.max():.12g}")
    return s


def _check_sequence(value, name: str) -> tuple:
    """``value`` as a tuple if it is a list, tuple, range or NumPy array of
    one or more dimensions; otherwise DomainError naming ``name``.  A string,
    a number, None or a single state is no sequence here."""
    if isinstance(value, (list, tuple, range)) or (isinstance(value, np.ndarray) and value.ndim):
        return tuple(value)
    raise DomainError(f"{name} must be a sequence, got {type(value).__name__}")


def _check_type(value, types: tuple, name: str):
    """``value`` if it is an instance of one of ``types``; otherwise DomainError naming ``name``."""
    if isinstance(value, types):
        return value
    names = " or ".join(t.__name__ for t in types)
    raise DomainError(f"{name} must be a {names}, got {type(value).__name__}")
