"""Shared parsing and formatting helpers for the plain-text formats."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator


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
