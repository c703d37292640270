"""Exception hierarchy shared across the package, and its choice, integer and real validators."""

import math
import numbers

__all__ = [
    "DimensionError",
    "NumericalError",
    "ParseError",
    "RangeError",
    "UpbError",
    "ValidationError",
]


class UpbError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(UpbError):
    """Input violates a structural invariant (unitarity, duplicates, ranges), or a flag is bad."""


class DimensionError(ValidationError):
    """Operands are non-square or have incompatible shapes."""


class NumericalError(UpbError):
    """A solve cannot resolve its target, or a value or size is out of range (RangeError).

    Carries the last bisection bracket in ``bracket`` when raised by the
    radius solver, so callers can inspect how far the solve got.
    """

    def __init__(self, message, bracket=None):
        super().__init__(message)
        self.bracket = bracket


class RangeError(NumericalError):
    """A closed-form value exceeds the float range, or n the mass kernel's limit."""


class ParseError(UpbError):
    """A constellation file could not be parsed."""


def check_choice(value, choices, name):
    """value if it is a str in choices, such as a metric or a bound id, else ValidationError."""
    if not (isinstance(value, str) and value in choices):  # an array would compare elementwise
        raise ValidationError(f"unknown {name} {value!r}; expected one of {', '.join(choices)}")
    return value


def check_int(value, name, minimum):
    """value as a Python int if it is an integer >= minimum, else ValidationError.

    Python and numpy integers are accepted; bool is not.
    """
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValidationError(f"{name} must be ≥ {minimum}, got {_describe_int(value)}")
    return int(value)


def _describe_int(value):
    """repr(value), or its digit count where Python refuses to print it."""
    try:
        return repr(value)
    except ValueError:  # beyond sys.get_int_max_str_digits(), 4300 by default
        size = abs(int(value))
        digits = int((size.bit_length() - 1) * math.log10(2.0)) + 1  # a lower bound
        while size >= 10**digits:
            digits += 1
        return f"an integer of {digits} digits"


def _as_float(value, name):
    """float(value) for an int value, or NumericalError where it is beyond the float range."""
    try:
        return float(value)
    except OverflowError:
        raise NumericalError(f"{name} ≥ 2^{value.bit_length() - 1} is beyond the float range") from None


def check_real(value, name):
    """value as a Python float if it is a finite real number, else ValidationError.

    Python and numpy reals (integers included) are accepted; bool is not.
    Range checks are left to the caller.
    """
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:
        raise ValidationError(f"{name} must be finite, got an integer beyond the float range") from None
    if not math.isfinite(out):
        raise ValidationError(f"{name} must be finite, got {out!r}")
    return out
