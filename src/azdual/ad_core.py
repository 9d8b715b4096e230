"""The duality algorithm on signed symmetric multisegments.

Each step extracts a chain of copies with strictly descending ends from the
canonical descending enumeration, emits an initial piece (a dual pair, or a
single centered segment when the chain hits a terminal form), and shortens
the chain copies and their dual copies.  Iterating per line until nothing is
left computes the dual; conjugating by the data transfer computes the dual
of parameter data.

The step loop runs on the int line form of :mod:`langdata`, one line at a
time.  A line is a counter ``{(2b, 2e): multiplicity}`` (keys
``(2b, 2e, side)`` on ugly lines), its centered values signed -1 are a set
of such pairs, and a good line's labeled section is a sorted list of
``(pair, label, copies)`` groups.  ``Segment`` objects are read once when a
line is entered and built once when it is left.

Good lines run on the labeled section with sign bookkeeping; bad lines run
on plain copies with a multiplicity guard forbidding a copy and its own dual
from chaining simultaneously; ugly lines run the GL chain on the primary
side and mirror it on the partner side.
"""
from __future__ import annotations

from dataclasses import dataclass

from .segments import BAD, GOOD, GRID_INT, DomainError, InvariantError, Line
from .langdata import (
    LabeledSeg,
    LanglandsData,
    SignedSymMultisegment,
    _degree,
    _dual,
    _in_section,
    _labeled_dual,
    _line_ints,
    _section,
    _segment,
    _signed,
    require_valid,
    transfer,
    untransfer,
    validate,
)


@dataclass(frozen=True)
class InitialSequence:
    """The chain extracted by one step, with its positions and outcome sign.

    ``enumeration`` is the canonical descending list of copies (labeled on
    good lines, plain elsewhere); ``segments`` the picked entries in chain
    order; ``idx`` / ``idx_dual`` the 0-based positions of the picked copies
    and of their dual copies inside ``enumeration``; ``eps0`` is -1 exactly
    when the chain stopped on a terminal form.
    """

    line: Line
    enumeration: tuple
    segments: tuple
    idx: tuple
    idx_dual: tuple
    eps0: int


def _parity(cnt, minus) -> int:
    """0 when the product of the signs, with multiplicity, is +1; else 1."""
    return sum(cnt.get(v, 0) for v in minus) % 2


# ---------------------------------------------------------------------------
# Good lines
# ---------------------------------------------------------------------------


def _good_step(cnt, minus, same_type):
    section = _section(cnt)

    # The chain: one copy per end, top end first, each later in the
    # enumeration than the one before; consecutive centered copies must
    # carry opposite signs.  Only the first copy of a group can be picked.
    chain = []
    target = max(e2 for _, e2 in cnt)
    prev = None
    terminal = False
    for _, pair, lab, _ in section:
        b2, e2 = pair
        if e2 != target:
            continue
        if (
            prev is not None
            and b2 + e2 == 0
            and prev[0] + prev[1] == 0
            and (pair in minus) == (prev in minus)
        ):
            continue
        chain.append((pair, lab))
        prev = pair
        target -= 2
        if same_type:
            terminal = pair == (0, 0) and lab >= 0
        else:
            terminal = pair == (1, 1) or (
                pair == (-1, 1) and lab >= 0 and pair in minus
            )
        if terminal:
            break

    eps0 = -1 if terminal else 1
    e1 = chain[0][0][1]
    el = chain[-1][0][1]
    if terminal:
        top = (-e1, e1)
        m1_cnt = {top: 1}
        n0 = sum(k for (b2, e2), k in cnt.items() if b2 + e2 == 0)
        if same_type:
            s1 = (1 if n0 % 2 else -1) * (-1 if (0, 0) in minus else 1)
        else:
            s1 = -1 if n0 % 2 else 1
        m1_minus = {top} if s1 == -1 else set()
    else:
        if e1 + el == 0:
            raise InvariantError("open chain produced a centered initial pair")
        m1_cnt = {(el, e1): 1, (-e1, -el): 1}
        m1_minus = set()

    last, last_lab = chain[-1]
    if (last == (0, 0) and last_lab == 1) or last == (1, 1):
        for j, (pair, _) in enumerate(chain):
            if pair != (e1 - 2 * j, e1 - 2 * j):
                raise InvariantError("chain into the corner is not a staircase")

    # The first copy of each chain group loses its end (bit 1), the first
    # copy of each dual group its beginning (bit 2); a copy can be both.
    cut = dict.fromkeys(chain, 1)
    for entry in chain:
        dual_entry = _labeled_dual(*entry)
        if not _in_section(cnt, *dual_entry):
            raise InvariantError(
                f"dual copy (2b, 2e, label) = {dual_entry} missing from the section"
            )
        cut[dual_entry] = cut.get(dual_entry, 0) | 2

    new_cnt = dict(cnt)
    shortened = {}
    for entry, bits in cut.items():
        pair = entry[0]
        b2 = pair[0] + (2 if bits & 2 else 0)
        e2 = pair[1] - (2 if bits & 1 else 0)
        k = new_cnt.pop(pair) - 1
        if k:
            new_cnt[pair] = k
        t = (b2, e2) if b2 <= e2 else None
        if t is not None:
            new_cnt[t] = new_cnt.get(t, 0) + 1
        shortened[entry] = t

    source = {}
    for entry in chain:
        t = shortened[entry]
        if t is not None and t[0] + t[1] == 0:
            if t in source:
                raise InvariantError(
                    f"two chain copies collapsed onto centered (2b, 2e) = {t}"
                )
            source[t] = entry[0]
    new_minus = set()
    for v in new_cnt:
        if v[0] + v[1]:
            continue
        dj = source.get(v)
        if dj is None:
            if v not in cnt:
                raise InvariantError(
                    f"centered (2b, 2e) = {v} appeared without a chain source"
                )
            s = -eps0 if v in minus else eps0
        elif dj[0] + dj[1] == 0:
            s = -eps0 if dj in minus else eps0
        elif dj[0] + dj[1] == 2:
            s = (eps0 if v in minus else -eps0) if v in cnt else eps0
        else:
            raise InvariantError(
                f"chain copy with center {dj[0] + dj[1]}/2 became centered"
            )
        if s == -1:
            new_minus.add(v)

    if _parity(cnt, minus) != (
        _parity(m1_cnt, m1_minus) + _parity(new_cnt, new_minus)
    ) % 2:
        raise InvariantError("sign product not preserved across the step")

    return m1_cnt, m1_minus, new_cnt, new_minus, chain, eps0


# ---------------------------------------------------------------------------
# Bad and ugly lines
# ---------------------------------------------------------------------------


def _plain_order(v):
    return (-v[0],) + v[1:]


def _plain_chain(cnt, keys):
    """The greedy chain over ``keys`` in canonical descending order: ends
    drop by one and beginnings strictly drop at each link.  A value joins
    beside its own dual only when it has a second copy (on ugly lines the
    chain keeps to side 0, so this never applies)."""
    chain = []
    target = max(v[1] for v in keys)
    prev_b = None
    for v in sorted(keys, key=_plain_order):
        if v[1] != target or (prev_b is not None and v[0] >= prev_b):
            continue
        if _dual(v) in chain and cnt[v] < 2:
            continue
        chain.append(v)
        prev_b = v[0]
        target -= 2
    return chain


def _consume(cnt, chain, missing: str):
    """Take out each chain copy and its dual copy, and put them back with
    the chain copy's end and the dual copy's beginning cut off."""
    new_cnt = dict(cnt)
    for v in chain:
        dv = _dual(v)
        new_cnt[v] -= 1
        new_cnt[dv] = new_cnt.get(dv, 0) - 1
        if new_cnt[v] < 0 or new_cnt[dv] < 0:
            raise InvariantError(missing)
    for v in chain:
        if v[0] < v[1]:
            short = (v[0], v[1] - 2) + v[2:]
            for w in (short, _dual(short)):
                new_cnt[w] = new_cnt.get(w, 0) + 1
    return {v: k for v, k in new_cnt.items() if k}


def _bad_step(cnt):
    chain = _plain_chain(cnt, cnt)
    e1, el = chain[0][1], chain[-1][1]
    m1_cnt = {(el, e1): 1}
    m1_cnt[(-e1, -el)] = m1_cnt.get((-e1, -el), 0) + 1
    new_cnt = _consume(cnt, chain, "chain consumed more copies than available")
    return m1_cnt, new_cnt, chain


def _ugly_step(cnt):
    side0 = [v for v in cnt if v[2] == 0]
    if not side0:
        raise InvariantError("ugly step with an empty primary side")
    chain = _plain_chain(cnt, side0)
    e1, el = chain[0][1], chain[-1][1]
    m1_cnt = {(el, e1, 0): 1, (-e1, -el, 1): 1}
    new_cnt = _consume(cnt, chain, "mirror copies missing on the partner side")
    return m1_cnt, new_cnt, chain


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def _step(ln: Line, cnt, minus, degree: int):
    """One step on one line's ints, ``degree`` being the degree of ``cnt``.
    Returns the emitted piece and the rest, each as a counter and a minus
    set, then the rest's degree, the chain and its sign eps0."""
    if ln.cls == GOOD:
        m1_cnt, m1_minus, new_cnt, new_minus, chain, eps0 = _good_step(
            cnt, minus, ln.grid == GRID_INT
        )
    else:
        step = _bad_step if ln.cls == BAD else _ugly_step
        m1_cnt, new_cnt, chain = step(cnt)
        m1_minus, new_minus, eps0 = set(), set(), 1
    new_degree = _degree(new_cnt)
    if _degree(m1_cnt) + new_degree != degree:
        raise InvariantError("degree not preserved across the step")
    return m1_cnt, m1_minus, new_cnt, new_minus, new_degree, chain, eps0


def _first_step(s: SignedSymMultisegment, what: str):
    require_valid(s)
    if not s.m:
        raise DomainError(f"{what} on the zero multisegment")
    lines = s.lines()
    if len(lines) != 1:
        raise DomainError("this operation needs data supported on exactly one line")
    ln = lines[0]
    cnt, minus = _line_ints(s)[ln.id]
    return ln, cnt, _step(ln, cnt, minus, _degree(cnt))


def ad_step(s: SignedSymMultisegment):
    """One extraction step on a single-line signed symmetric multisegment.
    Returns (initial part, remaining part) as signed symmetric multisegments."""
    ln, _, (m1_cnt, m1_minus, new_cnt, new_minus, *_) = _first_step(s, "ad_step")
    return _signed([(ln, m1_cnt, m1_minus)]), _signed([(ln, new_cnt, new_minus)])


def ad_initial_sequence(s: SignedSymMultisegment) -> InitialSequence:
    """The chain data of the first step on a single-line input."""
    ln, cnt, step = _first_step(s, "ad_initial_sequence")
    chain, eps0 = step[-2:]
    if ln.cls == GOOD:
        enum = [(pair, lab) for _, pair, lab, k in _section(cnt) for _ in range(k)]
        idx = tuple(enum.index(entry) for entry in chain)
        idx_dual = tuple(enum.index(_labeled_dual(*entry)) for entry in chain)
        labeled = tuple(LabeledSeg(_segment(ln, pair), lab) for pair, lab in enum)
        return InitialSequence(
            ln, labeled, tuple(labeled[p] for p in idx), idx, idx_dual, eps0
        )
    # A value may be picked twice (by the chain and as a dual): each pick
    # takes the first copy not yet taken.
    enum = sorted((v for v, k in cnt.items() for _ in range(k)), key=_plain_order)
    taken = set()

    def take(v):
        p = next(p for p, w in enumerate(enum) if w == v and p not in taken)
        taken.add(p)
        return p

    idx = tuple(take(v) for v in chain)
    idx_dual = tuple(take(_dual(v)) for v in chain)
    segs = tuple(_segment(ln, v) for v in enum)
    return InitialSequence(ln, segs, tuple(segs[p] for p in idx), idx, idx_dual, eps0)


def ad_symm(s: SignedSymMultisegment) -> SignedSymMultisegment:
    """The dual of a signed symmetric multisegment (an involution)."""
    require_valid(s)
    ints = _line_ints(s)
    parts = []
    for ln in s.lines():
        cnt, minus = ints[ln.id]
        degree = _degree(cnt)
        dual_cnt, dual_minus = {}, set()
        while cnt:
            m1_cnt, m1_minus, cnt, minus, new_degree, _, _ = _step(ln, cnt, minus, degree)
            if new_degree >= degree:
                raise InvariantError("degree failed to decrease across a step")
            degree = new_degree
            for v, k in m1_cnt.items():
                dual_cnt[v] = dual_cnt.get(v, 0) + k
            dual_minus |= m1_minus
        parts.append((ln, dual_cnt, dual_minus))
    result = _signed(parts)
    report = validate(result)
    if report:
        raise InvariantError("dual left the symmetric class:\n  " + "\n  ".join(report))
    return result


def ad_data(d: LanglandsData) -> LanglandsData:
    """The dual of parameter data, via transfer conjugation."""
    return untransfer(ad_symm(transfer(d)))
