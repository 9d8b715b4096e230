"""Multisegments, signed symmetric multisegments, labeled sections, and
Langlands-style parameter data, plus the transfer between the two pictures.

Symmetric multisegments carry signs only on centered segments; signs are
stored sparsely as the set of centered values signed -1, everything else
being +1 by convention.  Plain and signed multisegments share one per-line
int form, below: each holds it as its state, counted from Segments once
when built from them, and builds its ``Segment`` view (``entries``, ``.m``)
on demand.  Parameter data hold their ``n`` as a plain multisegment and
their blocks per line as ``({a: k}, minus set)``, and build ``phi`` and
``eta_minus`` on demand.  The package builds its own states in the int
form, through :func:`_plain`, :func:`_fill` and :func:`_datum`.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .segments import (
    BAD,
    GOOD,
    UGLY,
    DomainError,
    HalfInt,
    Line,
    Segment,
    _cached_segment,
    _check_block,
    _typed,
)


class Multisegment:
    """A finite multiset of nonempty segments, listed in canonical order.

    It holds the per-line int form ``{line: {(2b, 2e): multiplicity}}``,
    keys ``(2b, 2e, side)`` on mirror lines, as ``_ints``, and builds
    ``entries`` from it on first access.  Equality and hash compare the int
    form.  The views have no setters and the slots are private: the object
    is immutable.
    """

    __slots__ = ("_entries", "_ints")

    def __init__(self, entries=()):
        form = {}
        for d in entries:
            if not isinstance(d, Segment):
                raise TypeError(f"multisegment entry {d!r} is not a Segment")
            cnt = form.setdefault(d.line, {})
            cnt[d._key] = cnt.get(d._key, 0) + 1
        _refuse(form)
        self._entries, self._ints = None, form

    @property
    def entries(self) -> tuple:
        if self._entries is None:
            self._entries = tuple(sorted(
                (_segment(ln, v) for ln, cnt in self._ints.items()
                 for v, k in cnt.items() for _ in range(k)),
                key=lambda d: _sort_key(d.line, d._key)))
        return self._entries

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __bool__(self):
        return bool(self._ints)

    def __eq__(self, other):
        return isinstance(other, Multisegment) and self._ints == other._ints

    def __hash__(self):
        return hash(frozenset((key, frozenset(cnt.items()))
                              for key, cnt in self._ints.items()))

    def __add__(self, other):
        if not isinstance(other, Multisegment):
            return NotImplemented
        form = {ln: dict(cnt) for ln, cnt in self._ints.items()}
        for ln, cnt in other._ints.items():
            mine = form.setdefault(ln, {})
            for v, k in cnt.items():
                mine[v] = mine.get(v, 0) + k
        return _plain(form)

    @property
    def degree(self) -> int:
        return sum(_degree(cnt) for cnt in self._ints.values())

    def lines(self):
        """Distinct lines present, sorted by id; of lines declaring one id,
        the last in ``Line`` order."""
        return list({ln.id: ln for ln in sorted(self._ints)}.values())

    def restrict(self, ln: Line) -> "Multisegment":
        cnt = self._ints.get(ln)
        return _plain({ln: cnt} if cnt else {})

    def __str__(self):
        return "+".join(str(d) for d in self.entries) if self.entries else "0"

    __repr__ = __str__


def _plain(form) -> Multisegment:
    """The plain multisegment of a per-line int form ``{line: counter}``,
    kept, not copied; the form holds no zero count and no empty line."""
    m = object.__new__(Multisegment)
    m._entries, m._ints = None, form
    return m


class SignedSymMultisegment:
    """A multisegment together with signs on its centered segments.

    It holds ``_ints``, ``{line: (counter, minus set)}`` in the per-line int
    form below, and builds ``m`` and ``minus`` (the segments signed -1) on
    first access.  Built from Segments, it reads them once, here, and keeps
    the conflicting line declarations among ``m``'s lines.  ``_valid`` is set
    once :func:`validate` has found nothing wrong with the object.  The views
    have no setters and the slots are private: the object is immutable.
    """

    __slots__ = ("_ints", "_m", "_minus", "_conflicts", "_valid", "_hash")

    def __init__(self, m=(), minus=()):
        if not isinstance(m, Multisegment):
            m = Multisegment(m)
        signed = []
        for d in minus:
            if not isinstance(d, Segment):
                raise TypeError(f"sign key {d!r} is not a Segment")
            signed.append((d.line, d._key))
        _refuse({}, signed)
        form = m._ints
        _fill(self, _with_signs(form, signed))._conflicts = _conflicts(form)

    @property
    def m(self) -> Multisegment:
        if self._m is None:
            self._m = _plain({ln: cnt for ln, (cnt, _) in self._ints.items() if cnt})
        return self._m

    @property
    def minus(self) -> frozenset:
        if self._minus is None:
            self._minus = frozenset(_segment(ln, v) for ln, (_, minus) in self._ints.items()
                                    for v in minus)
        return self._minus

    def eps(self, d: Segment) -> int:
        return -1 if d in self.minus else 1

    def __eq__(self, other):
        return isinstance(other, SignedSymMultisegment) and self._ints == other._ints

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset((ln, frozenset(cnt.items()), frozenset(minus))
                                        for ln, (cnt, minus) in self._ints.items()))
        return self._hash

    def __bool__(self):
        return any(cnt for cnt, _ in self._ints.values())

    @property
    def degree(self) -> int:
        return sum(_degree(cnt) for cnt, _ in self._ints.values())

    def lines(self):
        return sorted((ln for ln, (cnt, _) in self._ints.items() if cnt),
                      key=lambda ln: ln.id)

    def max_end(self):
        ends = [v[1] for cnt, _ in self._ints.values() for v in cnt]
        return HalfInt.from_twice(max(ends)) if ends else None

    def restrict(self, ln: Line) -> "SignedSymMultisegment":
        entry = self._ints.get(ln)
        return _signed([(ln, *entry)] if entry else [])

    def __str__(self):
        return "+".join(
            f"{d}:{'-' if self.eps(d) < 0 else '+'}"
            if d.is_centered and d.line.cls == GOOD else str(d)
            for d in self.m
        ) or "0"

    __repr__ = __str__


def _fill(s: SignedSymMultisegment, ints) -> SignedSymMultisegment:
    """``s`` holding the form ``{line: (counter, minus set)}``, kept."""
    s._ints, s._m, s._minus, s._conflicts, s._valid, s._hash = ints, None, None, (), False, None
    return s


# ---------------------------------------------------------------------------
# Per-line int form
# ---------------------------------------------------------------------------
#
# The signed multisegments, their validation and transfer, the dual's step
# loop, the derivatives and the GL layer run on plain ints, one line at a
# time: a counter ``{(2b, 2e): multiplicity}`` (keys ``(2b, 2e, side)`` on
# ugly lines) and the set of centered keys signed -1.  A plain multisegment
# holds the counters alone, and a signed one's ``.m`` shares them.  Readers
# never change an object's counters; the step loop cuts a copy.  Only
# :func:`_sides` splits a mirror line into its two GL lines.  A line's
# labeled section is a sorted list of ``(key, pair, label, copies)`` groups;
# copy i precedes copy j in it exactly when key_i < key_j.


def _sort_key(ln: Line, v):
    """The canonical descending order of the segment of int key v on ln:
    (line id, side or -1, -2b, 2e)."""
    return (ln.id, v[2] if len(v) == 3 else -1, -v[0], v[1])


def _segment(ln: Line, v) -> Segment:
    return _cached_segment(ln, v[0], v[1], v[2] if len(v) == 3 else None)


def _refuse(form, signed=()) -> None:
    """Refuse an empty value of a form ``{line: counter}``, then a sign on a
    value not centered among the ``(line, key)`` pairs signed, naming the
    first such segment in canonical order, whatever the order of the pairs."""
    for what, found in (
            ("empty segment {} cannot join a multisegment",
             [(ln, v) for ln, cnt in form.items() for v in cnt if v[1] < v[0]]),
            ("sign attached to non-centered segment {}",
             [(ln, v) for ln, v in signed if v[0] + v[1] or v[1] < v[0]])):
        if found:
            raise DomainError(what.format(_segment(*min(found, key=lambda c: _sort_key(*c)))))


def _with_signs(form, signed) -> dict:
    """``{line: (counter, minus set)}`` of ``{line: counter}`` and the pairs signed -1."""
    ints = {ln: (cnt, set()) for ln, cnt in form.items()}
    for ln, x in signed:
        ints.setdefault(ln, ({}, set()))[1].add(x)
    return ints


def _sides(ln: Line, cnt) -> dict:
    """A line's counter split into its GL lines, ``{tail: {(2b, 2e): k}}``:
    one entry per side present, tail ``(side,)``, on a mirror line, and
    ``{(): cnt}``, not copied, on any other line."""
    if ln.cls != UGLY:
        return {(): cnt}
    out: dict = {}
    for v, k in cnt.items():
        out.setdefault(v[2:], {})[v[:2]] = k
    return out


def _signed(parts) -> SignedSymMultisegment:
    """The signed multisegment of one (line, counter, minus set) per line,
    zero counts dropped.  The minus sets are kept, not copied."""
    ints = {}
    for ln, cnt, minus in parts:
        cnt = {v: k for v, k in cnt.items() if k}
        if cnt or minus:
            ints[ln] = (cnt, minus)
    return _fill(object.__new__(SignedSymMultisegment), ints)


def _dual(v):
    """The key of [-e, -b]; flips the side on ugly lines."""
    return (-v[1], -v[0]) if len(v) == 2 else (-v[1], -v[0], 1 - v[2])


def _degree(cnt) -> int:
    return sum(((v[1] - v[0]) // 2 + 1) * k for v, k in cnt.items())


def _parity(cnt, minus) -> int:
    """0 when the product of the signs, with multiplicity, is +1; else 1."""
    return sum(cnt.get(v, 0) for v in minus) % 2


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
        _check_block(self.line, self.a)

    def __str__(self):
        return f"S{self.a}@{self.line.id}"

    __repr__ = __str__


class LanglandsData:
    """Parameter data: a multisegment with negative centers plus tempered
    blocks, with signs on the good-line blocks (stored sparsely as the set
    of blocks signed -1).

    It holds ``n`` and its blocks' per-line int form ``{line: ({a:
    multiplicity}, minus set of a)}``, and builds ``phi`` and ``eta_minus``
    on first access; built through :func:`_datum`, its ``n`` may hold the
    int form too.  The views have no setters: the object is immutable.
    """

    __slots__ = ("_n", "_blocks", "_phi", "_eta_minus")

    def __init__(self, n=(), phi=(), eta_minus=()):
        n = n if isinstance(n, Multisegment) else Multisegment(n)
        blocks = {}
        for p in phi:
            if not isinstance(p, PhiComponent):
                raise TypeError(f"{p!r} is not a PhiComponent")
            cnt = blocks.setdefault(p.line, ({}, set()))[0]
            cnt[p.a] = cnt.get(p.a, 0) + 1
        for p in eta_minus:
            if not isinstance(p, PhiComponent):
                raise TypeError(f"sign key {p!r} is not a PhiComponent")
            blocks.setdefault(p.line, ({}, set()))[1].add(p.a)
        self._n, self._blocks, self._phi, self._eta_minus = n, blocks, None, None

    @property
    def n(self) -> Multisegment:
        return self._n

    @property
    def phi(self) -> tuple:
        if self._phi is None:
            self._phi = tuple(sorted((PhiComponent(ln, a) for ln, (cnt, _) in self._blocks.items()
                                      for a, k in cnt.items() for _ in range(k)),
                                     key=lambda p: (p.line.id, p.a)))
        return self._phi

    @property
    def eta_minus(self) -> frozenset:
        if self._eta_minus is None:
            self._eta_minus = frozenset(PhiComponent(ln, a)
                                        for ln, (_, minus) in self._blocks.items() for a in minus)
        return self._eta_minus

    def eta(self, p: PhiComponent) -> int:
        return -1 if p in self.eta_minus else 1

    def lines(self):
        blocked = [ln for ln, (cnt, _) in self._blocks.items() if cnt]
        return list({ln.id: ln for ln in sorted([*self._n._ints, *blocked])}.values())

    def __eq__(self, other):
        return (isinstance(other, LanglandsData) and self._n == other._n
                and self._blocks == other._blocks)

    def __hash__(self):
        return hash((self._n, frozenset((ln, frozenset(cnt.items()), frozenset(minus))
                                        for ln, (cnt, minus) in self._blocks.items())))

    def __bool__(self):
        return bool(self._n) or any(cnt for cnt, _ in self._blocks.values())

    def __str__(self):
        right = "+".join(
            f"{p}:{'-' if self.eta(p) < 0 else '+'}" if p.line.cls == GOOD else str(p)
            for p in self.phi
        )
        return f"{self._n} ; {right or '0'}"

    __repr__ = __str__


def _datum(n: Multisegment, blocks) -> LanglandsData:
    """The parameter data of ``n`` and a block form ``{line: (counter, minus
    set)}``, both kept, not copied; the form holds no zero count and no
    line without blocks or signs."""
    d = object.__new__(LanglandsData)
    d._n, d._blocks, d._phi, d._eta_minus = n, blocks, None, None
    return d


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _conflicts(*forms) -> list:
    """The conflicting line declarations among the keys of per-line forms
    ``{line: counter}``, the counters keyed by segment key or block size.
    Read form after form, the copies of an id declared by two lines walk in
    canonical order, with a message each time they pass to another line."""
    lines = {ln for form in forms for ln in form}
    if len({ln.id for ln in lines}) == len(lines):
        return []
    clash = sorted(ident for ident, k in Counter(ln.id for ln in lines).items() if k > 1)
    out, last = [], {}
    for form in forms:
        for ident in clash:
            copies = sorted(((ln, v) for ln, cnt in form.items() if ln.id == ident for v in cnt),
                            key=lambda c: _sort_key(*c) if type(c[1]) is tuple else c[1])
            for ln, _ in copies:
                if last.setdefault(ident, ln) != ln:
                    out.append(f"conflicting declarations for line {ident!r}")
                last[ident] = ln
    return out


def validate(x) -> list:
    """Report-style validation: returns a list of violations, empty when valid."""
    if isinstance(x, Multisegment):
        return _conflicts(x._ints)
    if isinstance(x, SignedSymMultisegment):
        if x._valid:
            return []
        found = []  # (0 for a value or 1 for a sign, line, key, text)
        for ln, (cnt, minus) in x._ints.items():
            for v, k in cnt.items():
                if cnt.get(_dual(v), 0) != k:
                    found.append((0, ln, v, f"symmetry violation at {_segment(ln, v)}"))
                if ln.cls == BAD and k % 2 and v[0] + v[1] == 0:
                    found.append((0, ln, v, f"odd multiplicity {k} of centered "
                                            f"{_segment(ln, v)} on bad line"))
            for v in minus:
                if v[0] + v[1]:
                    found.append((1, ln, v, f"sign attached to non-centered segment "
                                            f"{_segment(ln, v)}"))
                if v not in cnt:
                    found.append((1, ln, v, f"sign attached to absent segment {_segment(ln, v)}"))
                if ln.cls != GOOD:
                    found.append((1, ln, v, f"explicit -1 sign on non-good line at {_segment(ln, v)}"))
        found.sort(key=lambda r: (r[0], _sort_key(r[1], r[2])))  # values, then signs
        out = [*x._conflicts, *(r[3] for r in found)]
        x._valid = not out
        return out
    if isinstance(x, LanglandsData):
        n, blocks = x._n._ints, x._blocks
        found = []  # (0 for a segment, 1 for a count or 2 for a sign, sort key, text)
        for ln, cnt in n.items():
            for v, k in cnt.items():
                if v[0] + v[1] >= 0:
                    text = f"segment {_segment(ln, v)} does not have negative center"
                    found += [(0, _sort_key(ln, v), text)] * k
        for ln, (cnt, minus) in blocks.items():
            for a, k in cnt.items():
                if ln.cls == BAD and k % 2:
                    text = f"odd multiplicity {k} of block {PhiComponent(ln, a)} on bad line"
                    found.append((1, (ln.id, a), text))
            for a in minus:
                if a in cnt and ln.cls == GOOD:
                    continue
                p = PhiComponent(ln, a)
                if a not in cnt:
                    found.append((2, (ln.id, a), f"sign attached to absent block {p}"))
                if ln.cls != GOOD:
                    found.append((2, (ln.id, a), f"explicit -1 sign on non-good line block {p}"))
        found.sort(key=lambda r: r[:2])
        return _conflicts(n, {ln: cnt for ln, (cnt, _) in blocks.items()}) + [r[2] for r in found]
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
    require_valid(_typed(d, LanglandsData))
    ints = {}
    for ln, ncnt in d.n._ints.items():
        cnt = ints.setdefault(ln, ({}, set()))[0]
        for v, k in ncnt.items():
            for w in (v, _dual(v)):
                cnt[w] = cnt.get(w, 0) + k
    for ln, (bcnt, bminus) in d._blocks.items():
        cnt, minus = ints.setdefault(ln, ({}, set()))
        for a, k in bcnt.items():
            y2 = a - 1
            for w in ((-y2, y2, 0), (-y2, y2, 1)) if ln.cls == UGLY else ((-y2, y2),):
                cnt[w] = cnt.get(w, 0) + k
        minus.update((1 - a, a - 1) for a in bminus)
    return _fill(object.__new__(SignedSymMultisegment), ints)


def untransfer(s: SignedSymMultisegment) -> LanglandsData:
    """Inverse of :func:`transfer`: centered segments become tempered blocks,
    each non-centered dual pair contributes its negative-center member."""
    require_valid(_typed(s, SignedSymMultisegment))
    n, blocks = {}, {}
    for ln, (cnt, minus) in s._ints.items():
        for v, k in cnt.items():
            c2 = v[0] + v[1]
            if c2 < 0:
                n.setdefault(ln, {})[v] = k
            elif c2 == 0 and (len(v) == 2 or v[2] == 0):
                a = (v[1] - v[0]) // 2 + 1
                bcnt, bminus = blocks.setdefault(ln, ({}, set()))
                bcnt[a] = k
                if v in minus:
                    bminus.add(a)
    return _datum(_plain(n), blocks)


# ---------------------------------------------------------------------------
# Line projection and sign bookkeeping
# ---------------------------------------------------------------------------


def line_project(x, ln: Line):
    """Restrict to one line (both sides of an ugly pair), same kind out."""
    _typed(ln, Line)
    if isinstance(x, (Multisegment, SignedSymMultisegment)):
        return x.restrict(ln)
    if isinstance(x, LanglandsData):
        entry = x._blocks.get(ln)
        return _datum(x._n.restrict(ln), {ln: entry} if entry else {})
    raise TypeError(f"cannot project {type(x).__name__}")


def sign_product(s: SignedSymMultisegment, ln: Line) -> int:
    """Product of the signs of all centered segments on a good line,
    counted with multiplicity."""
    _typed(s, SignedSymMultisegment)
    if _typed(ln, Line).cls != GOOD:
        raise DomainError(f"sign_product needs a good line, got {ln.id} ({ln.cls})")
    entry = s._ints.get(ln)
    return -1 if entry and _parity(*entry) else 1


def plus_product(s: SignedSymMultisegment) -> int:
    """Global product of sign_product over every good line present."""
    total = 1
    for ln in s.lines():
        if ln.cls == GOOD:
            total *= sign_product(s, ln)
    return total
