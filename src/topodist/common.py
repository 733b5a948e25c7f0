"""Shared parsing and formatting helpers for the plain-text formats."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

_LARGEST = sys.float_info.max
_SMALLEST_NORMAL = sys.float_info.min


class ParseError(ValueError):
    """A malformed text input; carries the source name and 1-based line number."""

    def __init__(self, source: str, line: int, message: str):
        self.source = source
        self.line = line
        self.message = message
        super().__init__(f"{source}:{line}: {message}")


class SizeGuardExceeded(ValueError):
    """An enumeration guard would be blown by the input size."""


@dataclass(frozen=True)
class Bound:
    """A quantity known to lie in [lower, upper]; exact when the two meet."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if math.isnan(self.lower) or math.isnan(self.upper) or self.lower > self.upper:
            raise ValueError(
                f"a bound needs lower <= upper, got lower {self.lower} and upper {self.upper}"
            )

    @property
    def exact(self) -> bool:
        return self.lower == self.upper


def eps_needed(x: float, base: float, factor: float = 1.0) -> float:
    """The least float e with x <= base + factor*e in exact arithmetic.

    So `x <= base + factor*eps` holds exactly iff `eps_needed(x, base,
    factor) <= eps`, and every shifted inequality is decided here.  The
    result is the least float >= (x - base)/factor: `inf` when that
    overflows, negative when x < base.  ``factor`` must be positive and
    finite.  With an infinite x or base it is -inf when the inequality
    holds for every finite e and inf when it holds for none.

    Two-sum gives the exact difference as d + err, so for a factor of 1 the
    answer is d, or the next float up when err > 0.  Dividing by a power of
    two is exact unless the quotient is subnormal or overflows; any other
    case is settled with fractions.
    """
    d = x - base
    if d - d:  # d is inf or nan
        if math.isfinite(x) and math.isfinite(base):  # the difference overflowed
            return _eps_needed_exact(x, base, factor)
        # an infinite input: the inequality holds for every finite e, or for none
        return -math.inf if x == -math.inf or base == math.inf else math.inf
    bb = d - x
    up = x - (d - bb) > base + bb  # the exact x - base is above d
    if factor != 1.0:
        q = d / factor
        if not (
            (factor == 2.0 or math.frexp(factor)[0] == 0.5)  # a power of two
            and (_SMALLEST_NORMAL <= abs(q) <= _LARGEST or d == 0.0)
        ):
            return _eps_needed_exact(x, base, factor)
        d = q
    return math.nextafter(d, math.inf) if up else d


def _eps_needed_exact(x: float, base: float, factor: float) -> float:
    return float_ceil((Fraction(x) - Fraction(base)) / Fraction(factor))


def float_ceil(q: Fraction) -> float:
    """The least float >= q; inf when q is above every float."""
    try:
        e = float(q)  # correctly rounded
    except OverflowError:
        return math.inf if q > 0 else -_LARGEST
    return math.nextafter(e, math.inf) if Fraction(e) < q else e


def fmt_value(x: float) -> str:
    """Format a value for files: shortest round-trip form, `inf` for infinity."""
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def fmt_sig(x: float) -> str:
    """Format a distance for report lines (12 significant digits)."""
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.12g}"


def parse_value(token: str, source: str, line: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(source, line, f"expected a number, got {token!r}") from None


def parse_int(token: str, source: str, line: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(source, line, f"expected an integer, got {token!r}") from None


def content_lines(text: str) -> Iterator[tuple[int, list[str]]]:
    """Yield (line_number, tokens) for nonblank lines, `#` comments stripped."""
    for i, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            yield i, stripped.split()
