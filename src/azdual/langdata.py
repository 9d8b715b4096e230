"""Multisegments, signed symmetric multisegments, labeled sections, and
Langlands-style parameter data, plus the transfer between the two pictures.

Symmetric multisegments carry signs only on centered segments; signs are
stored sparsely as the set of centered values signed -1, everything else
being +1 by convention.
"""
from __future__ import annotations

from dataclasses import dataclass

from .segments import (
    BAD,
    GOOD,
    UGLY,
    DomainError,
    HalfInt,
    InvariantError,
    Line,
    Segment,
    _cached_segment,
    seg_dual,
    seg_sort_key,
)


class Multisegment:
    """A finite multiset of nonempty segments, stored in canonical order."""

    __slots__ = ("entries",)

    def __init__(self, entries=()):
        items = tuple(sorted(entries, key=seg_sort_key))
        for d in items:
            if not isinstance(d, Segment):
                raise TypeError(f"multisegment entry {d!r} is not a Segment")
            if d.is_empty:
                raise DomainError(f"empty segment {d} cannot join a multisegment")
        object.__setattr__(self, "entries", items)

    def __setattr__(self, name, value):
        raise AttributeError("Multisegment is immutable")

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __bool__(self):
        return bool(self.entries)

    def __eq__(self, other):
        return isinstance(other, Multisegment) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __add__(self, other):
        if not isinstance(other, Multisegment):
            return NotImplemented
        return Multisegment(self.entries + other.entries)

    def __sub__(self, other):
        if not isinstance(other, Multisegment):
            return NotImplemented
        cnt = self.counter()
        for d in other:
            cnt[d] = cnt.get(d, 0) - 1
            if cnt[d] < 0:
                raise InvariantError(f"negative multiplicity for {d} in subtraction")
        return from_counter(cnt)

    def counter(self) -> dict:
        cnt: dict = {}
        for d in self.entries:
            cnt[d] = cnt.get(d, 0) + 1
        return cnt

    def multiplicity(self, d: Segment) -> int:
        return sum(1 for x in self.entries if x == d)

    @property
    def degree(self) -> int:
        return sum(d.length for d in self.entries)

    def lines(self):
        """Distinct lines present, sorted by id."""
        seen = {}
        for d in self.entries:
            seen[d.line.id] = d.line
        return [seen[k] for k in sorted(seen)]

    def restrict(self, ln: Line) -> "Multisegment":
        return Multisegment(d for d in self.entries if d.line == ln)

    def dual(self) -> "Multisegment":
        return Multisegment(seg_dual(d) for d in self.entries)

    def is_symmetric(self) -> bool:
        return self.dual() == self

    def max_end(self, ln: "Line | None" = None) -> "HalfInt | None":
        ends = [d.e.twice for d in self.entries if ln is None or d.line == ln]
        return HalfInt.from_twice(max(ends)) if ends else None

    def __str__(self):
        return "+".join(str(d) for d in self.entries) if self.entries else "0"

    __repr__ = __str__


def from_counter(cnt: dict) -> Multisegment:
    out = []
    for d, k in cnt.items():
        if k:
            out.extend([d] * k)
    return Multisegment(out)


class SignedSymMultisegment:
    """A multisegment together with signs on its centered segments.

    Only the -1 signs are stored (``minus``); every centered segment not
    listed there carries +1, as does every non-centered segment.  ``_valid``
    is set once :func:`validate` has found nothing wrong with the object.
    """

    __slots__ = ("m", "minus", "_valid")

    def __init__(self, m=(), eps=None, minus=()):
        if not isinstance(m, Multisegment):
            m = Multisegment(m)
        mset = set()
        for d in minus:
            self._check_sign_key(d)
            mset.add(d)
        if eps:
            for d, s in eps.items():
                self._check_sign_key(d)
                if s not in (1, -1):
                    raise DomainError(f"sign for {d} must be +1 or -1, got {s!r}")
                if s == -1:
                    mset.add(d)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "minus", frozenset(mset))
        object.__setattr__(self, "_valid", False)

    @staticmethod
    def _check_sign_key(d):
        if not isinstance(d, Segment):
            raise TypeError(f"sign key {d!r} is not a Segment")
        if not d.is_centered:
            raise DomainError(f"sign attached to non-centered segment {d}")

    def __setattr__(self, name, value):
        raise AttributeError("SignedSymMultisegment is immutable")

    def eps(self, d: Segment) -> int:
        return -1 if d in self.minus else 1

    def __eq__(self, other):
        return (
            isinstance(other, SignedSymMultisegment)
            and self.m == other.m
            and self.minus == other.minus
        )

    def __hash__(self):
        return hash((self.m, self.minus))

    def __bool__(self):
        return bool(self.m)

    @property
    def degree(self) -> int:
        return self.m.degree

    def lines(self):
        return self.m.lines()

    def max_end(self, ln=None):
        return self.m.max_end(ln)

    def restrict(self, ln: Line) -> "SignedSymMultisegment":
        return SignedSymMultisegment(
            self.m.restrict(ln), minus={d for d in self.minus if d.line == ln}
        )

    def __str__(self):
        if not self.m:
            return "0"
        parts = []
        for d in self.m:
            if d.is_centered and d.line.cls == GOOD:
                parts.append(f"{d}:{'-' if d in self.minus else '+'}")
            else:
                parts.append(str(d))
        return "+".join(parts)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# Per-line int form
# ---------------------------------------------------------------------------
#
# The dual's step loop, the derivatives and the GL layer run on plain ints,
# one line at a time: a counter ``{(2b, 2e): multiplicity}`` (keys
# ``(2b, 2e, side)`` on ugly lines) and the set of centered pairs signed -1.
# A line's labeled section is a sorted list of ``(key, pair, label, copies)``
# groups; copy i precedes copy j in it exactly when key_i < key_j.


def _line_ints(s: SignedSymMultisegment):
    """{line id: (counter, minus set)} with int keys."""
    out = {}
    for d, k in s.m.counter().items():
        key = (d.b.twice, d.e.twice) if d.side is None else (d.b.twice, d.e.twice, d.side)
        out.setdefault(d.line.id, ({}, set()))[0][key] = k
    for d in s.minus:
        out[d.line.id][1].add((d.b.twice, d.e.twice))
    return out


def _segment(ln: Line, v) -> Segment:
    return _cached_segment(ln, v[0], v[1], v[2] if len(v) == 3 else None)


def _signed(parts) -> SignedSymMultisegment:
    """Back to Segments from one (line, counter, minus set) per line."""
    return SignedSymMultisegment(
        Multisegment([
            _segment(ln, v) for ln, cnt, _ in parts
            for v, k in cnt.items() for _ in range(k)
        ]),
        minus=[_segment(ln, v) for ln, _, minus in parts for v in minus],
    )


def _dual(v):
    """The key of [-e, -b]; flips the side on ugly lines."""
    return (-v[1], -v[0]) if len(v) == 2 else (-v[1], -v[0], 1 - v[2])


def _degree(cnt) -> int:
    return sum(((v[1] - v[0]) // 2 + 1) * k for v, k in cnt.items())


def _section(cnt):
    """The labeled copies of a line as (sort key, pair, label, copies), in
    canonical descending order: label +1, then 0, then -1; descending
    beginning and ascending end inside +1 and -1, descending end inside 0.
    A centered value of multiplicity m gives m // 2 copies labeled -1 and
    +1 each, and one labeled 0 when m is odd."""
    groups = []
    for pair, k in cnt.items():
        b2, e2 = pair
        c2 = b2 + e2
        if c2 > 0:
            groups.append(((-1, -b2, e2), pair, 1, k))
        elif c2 < 0:
            groups.append(((1, -b2, e2), pair, -1, k))
        else:
            if k > 1:
                groups.append(((1, -b2, e2), pair, -1, k // 2))
                groups.append(((-1, -b2, e2), pair, 1, k // 2))
            if k % 2:
                groups.append(((0, -e2, 0), pair, 0, 1))
    groups.sort()
    return groups


def _labeled_dual(pair, lab):
    b2, e2 = pair
    c2 = b2 + e2
    if c2:
        return (-e2, -b2), (1 if c2 < 0 else -1)
    return pair, (0 if lab == 0 else 1)


# ---------------------------------------------------------------------------
# Labeled segments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LabeledSeg:
    """A segment with a position label: -1 for <=0, 0 for =0, +1 for >=0.

    Non-centered segments have their label forced by the sign of the center.
    """

    seg: Segment
    label: int

    def __post_init__(self):
        if self.label not in (-1, 0, 1):
            raise DomainError(f"label must be -1, 0, or +1, got {self.label!r}")
        if self.seg.is_empty:
            raise DomainError("labels only attach to nonempty segments")
        c2 = self.seg.b.twice + self.seg.e.twice
        if c2 > 0 and self.label != 1:
            raise DomainError(f"{self.seg} has positive center; label must be +1")
        if c2 < 0 and self.label != -1:
            raise DomainError(f"{self.seg} has negative center; label must be -1")

    def __str__(self):
        tag = {-1: "<=0", 0: "=0", 1: ">=0"}[self.label]
        return f"{self.seg}^{{{tag}}}"

    __repr__ = __str__


# ---------------------------------------------------------------------------
# Langlands-style data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhiComponent:
    """A tempered block on a line: the centered segment of length ``a``.

    On good lines a sign may be attached (stored on the parent data).
    """

    line: Line
    a: int

    def __post_init__(self):
        if not isinstance(self.a, int) or self.a < 1:
            raise DomainError(f"block size must be a positive int, got {self.a!r}")
        parity = 0 if self.line.grid == "integral" else 1
        if (self.a - 1) % 2 != parity:
            raise DomainError(
                f"block size {self.a} off the {self.line.grid} grid of {self.line.id}"
            )

    def centered_segment(self) -> Segment:
        h = HalfInt.from_twice(self.a - 1)
        side = 0 if self.line.cls == UGLY else None
        return Segment(self.line, -h, h, side)

    def __str__(self):
        return f"S{self.a}@{self.line.id}"

    __repr__ = __str__


def _phi_key(p: PhiComponent):
    return (p.line.id, p.a)


class LanglandsData:
    """Parameter data: a multisegment with negative centers plus tempered
    blocks, with signs on the good-line blocks (stored sparsely as the set
    of blocks signed -1)."""

    __slots__ = ("n", "phi", "eta_minus")

    def __init__(self, n=(), phi=(), eta=None, eta_minus=()):
        if not isinstance(n, Multisegment):
            n = Multisegment(n)
        phi = tuple(sorted(phi, key=_phi_key))
        for p in phi:
            if not isinstance(p, PhiComponent):
                raise TypeError(f"{p!r} is not a PhiComponent")
        mset = set()
        for p in eta_minus:
            if not isinstance(p, PhiComponent):
                raise TypeError(f"sign key {p!r} is not a PhiComponent")
            mset.add(p)
        if eta:
            for p, s in eta.items():
                if s not in (1, -1):
                    raise DomainError(f"sign for {p} must be +1 or -1, got {s!r}")
                if s == -1:
                    mset.add(p)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "eta_minus", frozenset(mset))

    def __setattr__(self, name, value):
        raise AttributeError("LanglandsData is immutable")

    def eta(self, p: PhiComponent) -> int:
        return -1 if p in self.eta_minus else 1

    def phi_mult(self, p: PhiComponent) -> int:
        return sum(1 for q in self.phi if q == p)

    def lines(self):
        seen = {}
        for d in self.n:
            seen[d.line.id] = d.line
        for p in self.phi:
            seen[p.line.id] = p.line
        return [seen[k] for k in sorted(seen)]

    def __eq__(self, other):
        return (
            isinstance(other, LanglandsData)
            and self.n == other.n
            and self.phi == other.phi
            and self.eta_minus == other.eta_minus
        )

    def __hash__(self):
        return hash((self.n, self.phi, self.eta_minus))

    def __bool__(self):
        return bool(self.n) or bool(self.phi)

    def __str__(self):
        left = str(self.n)
        right = "+".join(
            f"{p}:{'-' if p in self.eta_minus else '+'}"
            if p.line.cls == GOOD
            else str(p)
            for p in self.phi
        )
        return f"{left} ; {right or '0'}"

    __repr__ = __str__


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _line_conflicts(lines) -> list:
    by_id: dict = {}
    out = []
    for ln in lines:
        if ln.id in by_id and by_id[ln.id] != ln:
            out.append(f"conflicting declarations for line {ln.id!r}")
        by_id[ln.id] = ln
    return out


def validate(x) -> list:
    """Report-style validation: returns a list of violations, empty when valid."""
    if isinstance(x, Multisegment):
        return _line_conflicts(d.line for d in x)
    if isinstance(x, SignedSymMultisegment):
        if x._valid:
            return []
        out = _line_conflicts(d.line for d in x.m)
        cnt = x.m.counter()
        for value, mult in sorted(cnt.items(), key=lambda kv: seg_sort_key(kv[0])):
            if cnt.get(seg_dual(value), 0) != mult:
                out.append(f"symmetry violation at {value}")
            if value.is_centered and value.line.cls == BAD and mult % 2:
                out.append(f"odd multiplicity {mult} of centered {value} on bad line")
        for d in sorted(x.minus, key=seg_sort_key):
            if d not in cnt:
                out.append(f"sign attached to absent segment {d}")
            if d.line.cls != GOOD:
                out.append(f"explicit -1 sign on non-good line at {d}")
        object.__setattr__(x, "_valid", not out)
        return out
    if isinstance(x, LanglandsData):
        out = _line_conflicts(list(d.line for d in x.n) + [p.line for p in x.phi])
        for d in x.n:
            if d.b.twice + d.e.twice >= 0:
                out.append(f"segment {d} does not have negative center")
        counts: dict = {}
        for p in x.phi:
            counts[p] = counts.get(p, 0) + 1
        for p, k in sorted(counts.items(), key=lambda kv: _phi_key(kv[0])):
            if p.line.cls == BAD and k % 2:
                out.append(f"odd multiplicity {k} of block {p} on bad line")
        for p in sorted(x.eta_minus, key=_phi_key):
            if p not in counts:
                out.append(f"sign attached to absent block {p}")
            if p.line.cls != GOOD:
                out.append(f"explicit -1 sign on non-good line block {p}")
        return out
    raise TypeError(f"cannot validate {type(x).__name__}")


def require_valid(x):
    report = validate(x)
    if report:
        raise DomainError("invalid input:\n  " + "\n  ".join(report))


# ---------------------------------------------------------------------------
# Transfer between the two pictures
# ---------------------------------------------------------------------------


def transfer(d: LanglandsData) -> SignedSymMultisegment:
    """Symmetrize parameter data into a signed symmetric multisegment.

    Each segment contributes itself plus its dual; each tempered block
    contributes its centered segment (and on ugly lines also the dual copy
    on the partner side, since centered segments there are not self-dual).
    Block signs become segment signs.
    """
    require_valid(d)
    entries = []
    for dd in d.n:
        entries.append(dd)
        entries.append(seg_dual(dd))
    minus = set()
    for p in d.phi:
        s0 = p.centered_segment()
        entries.append(s0)
        if p.line.cls == UGLY:
            entries.append(seg_dual(s0))
    for p in d.eta_minus:
        minus.add(p.centered_segment())
    return SignedSymMultisegment(Multisegment(entries), minus=minus)


def untransfer(s: SignedSymMultisegment) -> LanglandsData:
    """Inverse of :func:`transfer`: centered segments become tempered blocks,
    each non-centered dual pair contributes its negative-center member."""
    require_valid(s)
    n_entries = []
    phi = []
    eta_minus = set()
    for value, mult in s.m.counter().items():
        c2 = value.b.twice + value.e.twice
        if c2 == 0:
            if value.line.cls == UGLY:
                if value.side == 0:
                    phi.extend([PhiComponent(value.line, value.length)] * mult)
            else:
                p = PhiComponent(value.line, value.length)
                phi.extend([p] * mult)
                if value.line.cls == GOOD and s.eps(value) == -1:
                    eta_minus.add(p)
        elif c2 < 0:
            n_entries.extend([value] * mult)
    return LanglandsData(Multisegment(n_entries), phi, eta_minus=eta_minus)


# ---------------------------------------------------------------------------
# Line projection and sign bookkeeping
# ---------------------------------------------------------------------------


def line_project(x, ln: Line):
    """Restrict to one line (both sides of an ugly pair), same kind out."""
    if isinstance(x, Multisegment):
        return x.restrict(ln)
    if isinstance(x, SignedSymMultisegment):
        return x.restrict(ln)
    if isinstance(x, LanglandsData):
        return LanglandsData(
            x.n.restrict(ln),
            tuple(p for p in x.phi if p.line == ln),
            eta_minus={p for p in x.eta_minus if p.line == ln},
        )
    raise TypeError(f"cannot project {type(x).__name__}")


def sign_product(s: SignedSymMultisegment, ln: Line) -> int:
    """Product of the signs of all centered segments on a good line,
    counted with multiplicity."""
    if ln.cls != GOOD:
        raise DomainError(f"sign_product needs a good line, got {ln.id} ({ln.cls})")
    flips = 0
    cnt = s.m.counter()
    for d in s.minus:
        if d.line == ln:
            flips += cnt.get(d, 0)
    return -1 if flips % 2 else 1


def plus_product(s: SignedSymMultisegment) -> int:
    """Global product of sign_product over every good line present."""
    total = 1
    for ln in s.lines():
        if ln.cls == GOOD:
            total *= sign_product(s, ln)
    return total
