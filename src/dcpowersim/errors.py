"""Exception hierarchy for the simulator, the rules that raise it, and the
base of the records that check their fields.

Every error raised by this package derives from :class:`SimulationError`,
which itself derives from ``ValueError`` so casual callers can catch one
thing.  The CLI maps usage problems to exit code 1 and any
``SimulationError`` to exit code 2.  An argument outside its domain, or
a result that overflows, raises :class:`OutOfRange`; a record field, or
a relation between fields, that cannot hold raises
:class:`InvariantViolation`.  ``LARGEST`` bounds every finiteness test:
an int compares with a float exactly, so ``v <= LARGEST`` also rejects
an int that no float can hold, where ``math.isfinite`` raises.
"""

import sys


class SimulationError(ValueError):
    """Base class for all model, profile and configuration errors."""


# --- profile / CSV parsing ---

class MalformedRow(SimulationError):
    """A CSV or config row could not be parsed (bad number, bad timestamp)."""


class OutOfRange(SimulationError):
    """An argument lies outside its domain, or a result overflows."""


class NonMonotonicTime(SimulationError):
    """Profile timestamps are not strictly increasing."""


class GapInSeries(SimulationError):
    """Profile timestamps are not spaced exactly one hour apart."""


class EmptyProfile(SimulationError):
    """A profile contains no data rows."""


class EmptyResult(SimulationError):
    """A simulation result was built with no hours."""


# --- configuration ---

class UnknownKey(SimulationError):
    """The scenario config contains a key outside the documented schema."""


class MissingRequired(SimulationError):
    """A required scenario config key is absent."""


class InvariantViolation(SimulationError):
    """A record field, or a relation between fields, cannot hold."""


class InvalidFractions(InvariantViolation):
    """Pump and miscellaneous fractions leave no room for the components."""


class InfeasibleTarget(InvariantViolation):
    """Supply-loss calibration target is below the idle losses alone."""


LARGEST = sys.float_info.max   # the bound of every finiteness test
# Rules for arguments and spec fields: (holds, requirement).
NONNEGATIVE = (lambda v: 0.0 <= v <= LARGEST, "be finite and nonnegative")
POSITIVE = (lambda v: 0.0 < v <= LARGEST, "be positive and finite")
AT_LEAST_ONE = (lambda v: 1 <= v <= LARGEST, "be >= 1 and finite")
FRACTION = (lambda v: 0.0 < v <= 1.0, "be in (0, 1]")
UNIT = (lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]")
FINITE = (lambda v: -LARGEST <= v <= LARGEST, "be finite")
OPEN_UNIT = (lambda v: 0.0 < v < 1.0, "lie in (0, 1)")
GRID_SIZE = (lambda n: isinstance(n, int) and n >= 2, "be an int >= 2")


def _shown(value: object) -> str:
    """``repr(value)``, or the size of an int that no float can hold."""
    if isinstance(value, int) and not -LARGEST <= value <= LARGEST:
        return f"{'-' if value < 0 else ''}<int of {value.bit_length()} bits>"
    return repr(value)


def check(error: type[SimulationError], **named: tuple) -> None:
    """Raise ``error`` naming the first value that breaks its rule, e.g.
    ``check(OutOfRange, utilisation=(u, UNIT))``."""
    for name, (value, (holds, requirement)) in named.items():
        if not holds(value):
            raise error(f"{name} must {requirement}, got {_shown(value)}")


# --- engine ---

class ProfileMismatch(SimulationError):
    """Utilisation and weather profiles differ in length or timestamps."""


# --- records ---

class _Record:
    """Immutable record whose ``__init__`` checks and sets its fields.

    ``_fields`` are the constructor's parameters in order; equality, hash,
    repr and ``_replace`` read them.  ``__init__`` checks its arguments,
    derives only from checked values, and sets every field last, once, by
    :meth:`_set`.  ``_replace`` calls ``__init__``, so every check reruns.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    def _set(self, **values: object) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value
                          in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({shown})"

    def _replace(self, **changes: object) -> "_Record":
        return type(self)(**dict(zip(self._fields, self._values()), **changes))

