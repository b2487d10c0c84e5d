"""Numeric modes: one tolerance, where tolerance 0 is exact arithmetic.

All decision procedures in this package answer exact set-membership
questions, so the authoritative backend computes with arbitrary-precision
rationals built from decimal strings.  The float backend trades exactness
for speed.  A `NumericMode` is its tolerance alone, and exact mode is
tolerance 0: a test within the tolerance, written once, is the exact
comparison there.  The mode also converts inputs, supplies the zero that
results start from and share, and scales values to a common denominator.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction

Number = int | float | Fraction

# The one exact zero that results share: solvers return it for every zero
# entry, so a result holds no separate Fraction(0) objects.
ZERO = Fraction(0)
# The one exact one that deterministic policy tables share.
ONE = Fraction(1)
# A decimal exponent beyond Python's default limit on int string digits
# makes a number too long to print and slow to use, so it is refused.
_MAX_EXPONENT, _EXPONENT = 4300, re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


class ExactInputError(ValueError):
    """A value cannot be used in exact-rational mode."""


def parse_rational(text) -> Fraction:
    """Parse a decimal or fraction string ("0.9", "9/10", "-8") losslessly."""
    if isinstance(text, bool):
        raise ExactInputError(f"cannot interpret {text!r} as a number")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, Fraction):
        return text
    if isinstance(text, str):
        exponent = _EXPONENT.search(text)  # without leading zeros, 5 digits exceed 4300
        if exponent and int(exponent[1].replace("_", "").lstrip("0")[:5] or 0) > _MAX_EXPONENT:
            raise ExactInputError(f"cannot parse {text!r} as a rational: "
                                  f"its exponent is beyond ±{_MAX_EXPONENT}")
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


@dataclass(frozen=True)
class NumericMode:
    """Arithmetic backend, set by its tolerance alone: rationals compared
    exactly at tolerance 0 (exact mode), floats compared within a finite
    positive tolerance otherwise.  A zero tolerance is stored as the int 0,
    since a Fraction minus 0.0 is a float.  `exact`, `convert` (`as_exact`
    or `as_float`) and `zero` (`ZERO` or 0.0) are derived from it once."""

    tolerance: Number
    exact: bool = field(init=False, repr=False, compare=False)
    convert: object = field(init=False, repr=False, compare=False)
    zero: Number = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        tol = self.tolerance
        exact = tol == 0
        if not exact and not (math.isfinite(tol) and tol > 0):
            raise ValueError(f"float mode requires a finite positive tolerance, got {tol!r}")
        # Frozen: the derived fields are set through __dict__.
        if exact:
            self.__dict__.update(tolerance=0, exact=True, convert=as_exact, zero=ZERO)
        else:
            self.__dict__.update(exact=False, convert=as_float, zero=0.0)

    @staticmethod
    def floating(tolerance: float = 1e-9) -> "NumericMode":
        if not tolerance:
            raise ValueError(f"float mode requires a finite positive tolerance, got {tolerance!r}")
        return NumericMode(tolerance)

    def share_zero(self, values) -> tuple:
        """`values` as a tuple; in exact mode every zero entry is `ZERO`."""
        if not self.exact:
            return tuple(values)
        return tuple(v if v else ZERO for v in values)

    def scaled(self, values):
        """(nums, den) with values[i] == nums[i] / den: integers over the lcm
        of the denominators in exact mode, the float values over 1 in float
        mode.  Floats pass as they are, ints through `float` and Fractions
        as numerator / denominator (the correctly rounded quotient `float`
        computes, without its two `int` calls); only other entries
        (strings) cost an `as_float` call."""
        if self.exact:
            return over_common_denominator(values)
        return [v if type(v) is float
                else v.numerator / v.denominator if type(v) is Fraction
                else float(v) if type(v) is int
                else as_float(v) for v in values], 1

    def ratio(self, num, den):
        """num / den as a result entry: a Fraction (`ZERO` for 0) in exact
        mode, a float in float mode."""
        if not self.exact:
            return num / den
        return Fraction(num, den) if num else ZERO


EXACT = NumericMode(0)
FLOAT = NumericMode.floating()


def format_number(value) -> str:
    """Canonical string form: exact decimal when the denominator is a
    product of 2s and 5s, "p/q" otherwise, repr for floats."""
    if isinstance(value, bool):
        raise ValueError(f"not a number: {value!r}")
    if isinstance(value, int):
        return _int_string(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, Fraction):
        dec = _decimal_string(value)
        return (dec if dec is not None
                else f"{_int_string(value.numerator)}/{_int_string(value.denominator)}")
    raise ValueError(f"not a number: {value!r}")


def _int_string(n: int) -> str:
    """str(n) for an int of any length.  Python's `str` refuses ints past
    4300 digits (`sys.get_int_max_str_digits`); `Decimal` takes the int
    without going through text, and its `str` has no such limit."""
    return str(n) if n.bit_length() < 14_000 else str(Decimal(n))


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
    text = _int_string(scaled).rjust(digits + 1, "0")
    if digits == 0:
        return sign + text
    return f"{sign}{text[:-digits]}.{text[-digits:]}"
