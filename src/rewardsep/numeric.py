"""Numeric modes: exact rational arithmetic or tolerance-based floats.

All decision procedures in this package answer exact set-membership
questions, so the authoritative backend computes with arbitrary-precision
rationals built from decimal strings.  The float backend trades exactness
for speed and is tolerance-based throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

Number = int | float | Fraction

# The one exact zero that results share: solvers return it for every zero
# entry, so a result holds no separate Fraction(0) objects.
ZERO = Fraction(0)


class ExactInputError(ValueError):
    """A value cannot be used in exact-rational mode."""


@dataclass(frozen=True)
class NumericMode:
    """Arithmetic backend selector.

    ``exact=True`` computes in rationals with exact comparisons;
    otherwise floats are used and ``tolerance`` bounds every comparison.
    """

    exact: bool
    tolerance: float = 1e-9

    def __post_init__(self):
        if not self.exact and not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError("float mode requires a finite positive tolerance")

    @staticmethod
    def exact_rational() -> "NumericMode":
        return NumericMode(exact=True, tolerance=0.0)

    @staticmethod
    def floating(tolerance: float = 1e-9) -> "NumericMode":
        return NumericMode(exact=False, tolerance=tolerance)


EXACT = NumericMode.exact_rational()
FLOAT = NumericMode.floating()


def parse_rational(text) -> Fraction:
    """Parse a decimal or fraction string ("0.9", "9/10", "-8") losslessly."""
    if isinstance(text, bool):
        raise ExactInputError(f"cannot interpret {text!r} as a number")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, Fraction):
        return text
    if isinstance(text, str):
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ExactInputError(f"cannot parse {text!r} as a rational") from exc
    raise ExactInputError(
        f"cannot interpret {type(text).__name__} value {text!r} as an exact rational"
    )


def as_exact(value) -> Fraction:
    """Coerce to Fraction; floats are rejected because their decimal intent
    is ambiguous -- pass a string or Fraction instead."""
    if isinstance(value, bool):
        raise ExactInputError(f"cannot interpret {value!r} as a number")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, float):
        raise ExactInputError(
            f"float {value!r} is not accepted in exact mode; pass a decimal string"
        )
    raise ExactInputError(f"cannot interpret {value!r} as an exact rational")


def as_float(value) -> float:
    if isinstance(value, str):
        return float(parse_rational(value))
    return float(value)


def over_common_denominator(values) -> tuple:
    """(ints, den) with values[i] == ints[i] / den, where den is the lcm of
    the denominators of the values read by `as_exact`."""
    ratios = [(v if type(v) in (int, Fraction) else as_exact(v)).as_integer_ratio()
              for v in values]
    den = math.lcm(*[d for _, d in ratios])
    return [n * (den // d) for n, d in ratios], den


def share_zero(values, mode: NumericMode) -> tuple:
    """`values` as a tuple; in exact mode every zero entry is `ZERO`."""
    return tuple(v if v or not mode.exact else ZERO for v in values)


def coerce(value, mode: NumericMode):
    return as_exact(value) if mode.exact else as_float(value)


def format_number(value) -> str:
    """Canonical string form: exact decimal when the denominator is a
    product of 2s and 5s, "p/q" otherwise, repr for floats."""
    if isinstance(value, bool):
        raise ValueError(f"not a number: {value!r}")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, Fraction):
        dec = _decimal_string(value)
        return dec if dec is not None else f"{value.numerator}/{value.denominator}"
    raise ValueError(f"not a number: {value!r}")


def _decimal_string(value: Fraction) -> str | None:
    den = value.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return None
    digits = max(twos, fives)
    scaled = abs(value.numerator) * 10**digits // value.denominator
    sign = "-" if value < 0 else ""
    text = str(scaled).rjust(digits + 1, "0")
    if digits == 0:
        return sign + text
    return f"{sign}{text[:-digits]}.{text[-digits:]}"
