"""Exact rational arithmetic backend and "p/q" string codec.

All library values are exact rationals; only the capacity iteration uses
floats. gmpy2's mpq is used when available (much faster), falling back to
the stdlib Fraction. Both types print as "p/q" (or "p" for integers) and
hash/compare interchangeably.

Hot loops run on ints (scaled_ints), and an answer checked on ints keeps
them: its rational fields are OnFirstRead, built when a caller first
reads them (unbuilt).
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


class OnFirstRead:
    """A field of a frozen dataclass that an instance may hold as ints and
    build, as exact rationals, on first read.

    A non-data descriptor: the dataclass's __init__ stores the value it is
    given in the instance dict, which shadows this, so an instance built
    from rationals reads them as a plain field. An instance made by
    unbuilt() holds (build, args) under the field's name in _unbuilt
    instead; the first read stores build(*args) in the instance dict and
    returns it. ==, hash, repr and dataclasses.replace read fields as
    attributes, so they see the same values either way. default is the
    field's default, read off the class; with none the field has none.
    """

    def __init__(self, *default):
        self.default = default

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            if not self.default:
                raise AttributeError(self.name)
            return self.default[0]
        pending = instance._unbuilt.get(self.name)
        value = self.default[0] if pending is None else pending[0](*pending[1])
        vars(instance)[self.name] = value
        return value


def unbuilt(cls, fields: dict, **pending):
    """An instance of the frozen dataclass cls, made without __init__ or
    its checks: fields are set as given, and each name=(build, args) in
    pending is an OnFirstRead field built on first read. An OnFirstRead
    field in neither reads as its default."""
    instance = object.__new__(cls)
    vars(instance).update(fields, _unbuilt=pending)
    return instance


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
