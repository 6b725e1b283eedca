"""Exact rational arithmetic backend and "p/q" string codec.

All library values are exact rationals; only the capacity iteration uses
floats. gmpy2's mpq is used when available (much faster), falling back to
the stdlib Fraction. Both types print as "p/q" (or "p" for integers) and
hash/compare interchangeably.
"""

from __future__ import annotations

from math import lcm

try:
    from gmpy2 import mpq as Rat
except ImportError:  # no gmpy2 (as in CI): the stdlib Fraction backend runs
    from fractions import Fraction as Rat

ZERO = Rat(0)
ONE = Rat(1)


def scaled_ints(values):
    """Common denominator d of exact rationals, and each value times d as an int.

    This is how exact rationals become native ints wherever a hot loop
    runs on integers. Numerators and denominators are read through int(),
    so Fraction and gmpy2's mpq give the same ints; d is 1 for no values.
    """
    values = list(values)
    dens = [int(v.denominator) for v in values]
    d = lcm(*dens)
    return d, [int(v.numerator) * (d // q) for v, q in zip(values, dens)]


def parse_rat(text: str):
    """Parse a rational string "p/q" or "p". Rejects anything else."""
    if not isinstance(text, str):
        raise ValueError(f"rational must be a string, got {type(text).__name__}")
    parts = text.strip().split("/")
    if len(parts) == 1:
        return Rat(int(parts[0]))
    if len(parts) == 2:
        num, den = int(parts[0]), int(parts[1])
        if den == 0:
            raise ValueError(f"zero denominator in rational {text!r}")
        return Rat(num, den)
    raise ValueError(f"malformed rational {text!r}")


def parse_size(value) -> int:
    """An alphabet size read from JSON: a JSON integer, else ValueError.

    int() would truncate 1.9, read True as 1 and parse "3", so only an
    int that is not a bool is accepted.
    """
    if type(value) is not int:
        raise ValueError(f"a size must be an integer, got {value!r}")
    return value


def parse_rat_matrix(rows) -> tuple:
    """Parse a JSON list of lists of rational strings into a tuple of tuples.

    A string row would iterate as its characters, each a rational, so
    anything but a list of lists is rejected.
    """
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError("a matrix must be a list of lists")
    return tuple(tuple(parse_rat(entry) for entry in row) for row in rows)


def rat_str(value) -> str:
    """Render a rational as "p/q" (or "p" when the denominator is 1)."""
    return str(Rat(value))
