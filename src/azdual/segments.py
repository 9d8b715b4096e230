"""Exact half-integers, supercuspidal lines, and segment primitives.

Every numeric quantity in this package lives in (1/2)Z and is stored exactly
as twice its value, so grid membership is a parity condition on plain ints
and no floats ever appear.
"""
from __future__ import annotations

import re
from dataclasses import dataclass


class DomainError(ValueError):
    """Invalid input: bad data, incompatible lines, or a failed precondition."""


class InvariantError(RuntimeError):
    """Internal consistency check failed.  Valid inputs must never raise this."""


def _typed(x, kind):
    """x itself when it is a ``kind``; a TypeError naming both kinds else."""
    if not isinstance(x, kind):
        raise TypeError(f"expected a {kind.__name__}, got {type(x).__name__}")
    return x


_HALF_RE = re.compile(r"^([+-]?\d+)(?:/2)?$")


class HalfInt:
    """A value in (1/2)Z, stored as ``twice`` (an int equal to twice the value).

    Immutable and hashable.  Construct from an int value, from another
    HalfInt, via :meth:`from_twice`, or via :meth:`parse` ("3", "-5/2").
    """

    __slots__ = ("twice",)

    def __init__(self, value: "int | HalfInt" = 0):
        if isinstance(value, HalfInt):
            t = value.twice
        elif type(value) is int:
            t = 2 * value
        else:
            raise TypeError(f"cannot build HalfInt from {type(value).__name__}")
        object.__setattr__(self, "twice", t)

    @classmethod
    def from_twice(cls, twice: int) -> "HalfInt":
        if type(twice) is not int:
            raise TypeError(f"cannot build HalfInt from {type(twice).__name__}")
        h = _HALF_CACHE.get(twice)
        if h is not None:
            return h
        h = cls.__new__(cls)
        object.__setattr__(h, "twice", twice)
        return h

    @classmethod
    def parse(cls, text: str) -> "HalfInt":
        m = _HALF_RE.match(text.strip())
        if not m:
            raise DomainError(f"not a half-integer: {text!r}")
        n = int(m.group(1))
        return cls.from_twice(n if text.strip().endswith("/2") else 2 * n)

    def __setattr__(self, name, value):
        raise AttributeError("HalfInt is immutable")

    def __neg__(self):
        return HalfInt.from_twice(-self.twice)

    def __eq__(self, other):
        if isinstance(other, HalfInt):
            return self.twice == other.twice
        if isinstance(other, int):
            return self.twice == 2 * other
        return NotImplemented

    def __hash__(self):
        # An integral value equals the int it stands for, so it hashes as one.
        t = self.twice
        return hash(t // 2) if t % 2 == 0 else hash(t) ^ 0x5A5A

    def __bool__(self):
        return self.twice != 0

    def __str__(self) -> str:
        return str(self.twice // 2) if self.twice % 2 == 0 else f"{self.twice}/2"

    __repr__ = __str__


_HALF_CACHE: "dict[int, HalfInt]" = {}
for _t in range(-128, 129):
    _h = HalfInt.__new__(HalfInt)
    object.__setattr__(_h, "twice", _t)
    _HALF_CACHE[_t] = _h
del _t, _h


def half(value) -> HalfInt:
    """Coerce an int, string ("3", "-1/2"), or HalfInt to a HalfInt."""
    if isinstance(value, HalfInt):
        return value
    if isinstance(value, int):
        return HalfInt(value)
    if isinstance(value, str):
        return HalfInt.parse(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to HalfInt")


# ---------------------------------------------------------------------------
# Supercuspidal lines
# ---------------------------------------------------------------------------

GOOD = "good"
BAD = "bad"
UGLY = "ugly"
LINE_CLASSES = (GOOD, BAD, UGLY)

GRID_INT = "integral"
GRID_HALF = "half-integral"
GRIDS = (GRID_INT, GRID_HALF)


@dataclass(frozen=True, order=True)
class Line:
    """A supercuspidal line: identifier, arithmetic class, coefficient grid.

    ``cls`` is one of good / bad / ugly.  Ugly lines are stored in their
    normalized integral-grid form and segments on them carry a ``side``
    flag (0 for the line itself, 1 for its contragredient partner).
    """

    id: str
    cls: str
    grid: str

    def __post_init__(self):
        if not self.id or not isinstance(self.id, str):
            raise DomainError(f"line id must be a nonempty string, got {self.id!r}")
        if self.cls not in LINE_CLASSES:
            raise DomainError(f"unknown line class {self.cls!r}")
        if self.grid not in GRIDS:
            raise DomainError(f"unknown grid {self.grid!r}")
        if self.cls == UGLY and self.grid != GRID_INT:
            raise DomainError("ugly lines are normalized to the integral grid")
        # Every int form is keyed by Line; the dataclass hash would re-hash
        # the three fields on each lookup.  Equality and order stay on them.
        object.__setattr__(self, "_hash", hash((self.id, self.cls, self.grid)))

    def __hash__(self):
        return self._hash

    def grid_ok(self, h: HalfInt) -> bool:
        return h.twice % 2 == (0 if self.grid == GRID_INT else 1)


def line(id: str, cls: str = GOOD, grid: str = GRID_INT) -> Line:
    return Line(id, cls, grid)


# ---------------------------------------------------------------------------
# Segments
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Segment:
    """A segment [b, e] on a line, possibly empty (e == b - 1).

    ``side`` is None on good/bad lines; on ugly lines it is 0 or 1 and
    records which member of the contragredient pair carries the segment.
    ``_key`` is its int key ``(2b, 2e)``, with the side on ugly lines.
    """

    line: Line
    b: HalfInt
    e: HalfInt
    side: "int | None" = None

    def __post_init__(self):
        if not isinstance(self.b, HalfInt) or not isinstance(self.e, HalfInt):
            raise TypeError("segment endpoints must be HalfInt")
        key = _segment_key(self.line, self.b.twice, self.e.twice, self.side)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash((self.line, key)))

    def __eq__(self, other):
        return (isinstance(other, Segment) and self.line == other.line
                and self._key == other._key)

    def __hash__(self):
        return self._hash

    @property
    def length(self) -> int:
        return (self.e.twice - self.b.twice) // 2 + 1

    @property
    def is_empty(self) -> bool:
        return self.length == 0

    @property
    def is_centered(self) -> bool:
        return self.b.twice + self.e.twice == 0 and not self.is_empty

    def __str__(self) -> str:
        tail = "~" if self.side == 1 else ""
        return f"[{self.b},{self.e}]@{self.line.id}{tail}"

    __repr__ = __str__


def _segment_key(ln: Line, b2: int, e2: int, side) -> tuple:
    """The int key ``(2b, 2e[, side])`` of the segment [b2/2, e2/2] on ln,
    once its rules hold: ends on the line's grid, empty at the least, and a
    side the int 0 or 1 exactly on mirror lines.  Segments and the parsers
    share it."""
    par = 0 if ln.grid == GRID_INT else 1
    off_grid = b2 % 2 != par or e2 % 2 != par
    if off_grid or e2 < b2 - 2:
        ends = f"[{HalfInt.from_twice(b2)},{HalfInt.from_twice(e2)}]"
        raise DomainError(f"endpoints {ends} off the {ln.grid} grid of {ln.id}" if off_grid
                          else f"degenerate segment {ends}")
    if ln.cls == UGLY:
        if type(side) is not int or side not in (0, 1):
            raise DomainError("segments on ugly lines need side 0 or 1")
        return b2, e2, side
    if side is not None:
        raise DomainError("side flag is only meaningful on ugly lines")
    return b2, e2


def _check_block(ln: Line, a) -> None:
    """Refuse a block S<a> on ln unless a is positive with its centered
    segment on the line's grid.  ``PhiComponent`` and the parsers share it."""
    if type(a) is not int or a < 1:
        raise DomainError(f"block size must be a positive int, got {a!r}")
    if (a - 1) % 2 != (0 if ln.grid == GRID_INT else 1):
        raise DomainError(f"block size {a} off the {ln.grid} grid of {ln.id}")


def seg(ln: Line, b, e, side: "int | None" = None) -> Segment:
    """Convenience constructor coercing endpoint types."""
    return Segment(ln, half(b), half(e), side)


_SEG_CACHE: dict = {}


def _cached_segment(ln: Line, b2: int, e2: int, side) -> Segment:
    """Validated construction with interning; inputs must be on-grid."""
    key = (ln.id, ln.cls, ln.grid, b2, e2, side)
    d = _SEG_CACHE.get(key)
    if d is None:
        d = Segment(ln, HalfInt.from_twice(b2), HalfInt.from_twice(e2), side)
        _SEG_CACHE[key] = d
    return d


def seg_dual(d: Segment) -> Segment:
    """The contragredient segment [-e, -b]; flips the side on ugly lines."""
    side = d.side if d.side is None else 1 - d.side
    return _cached_segment(d.line, -d.e.twice, -d.b.twice, side)
