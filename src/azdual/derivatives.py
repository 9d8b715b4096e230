"""Derivative operators on signed symmetric multisegments.

A twist derivative at x removes the final coefficient of every unprotected
copy ending at x together with the first coefficient of the dual copies,
where protection is decided by a greedy best matching against the copies
ending one lower.  Good lines carry sign bookkeeping and a sign-dependent
exceptional case; bad lines instead drop one protection edge when the count
of a boundary value is odd.  The zero-chunk derivative removes the symmetric
degree sitting at the origin once all strictly negative twists vanish.

Both operators run on the int line form of :mod:`langdata`, the one the
dual's step loop uses: a copy is a ``(2b, 2e)`` pair (``(2b, 2e, side)`` on
ugly lines) with a multiplicity.  Each is a kernel on one line's counter and
minus set; callers that need only the order build no derived state.  The
protection matching is the greedy one of :func:`best_matching` run on those
counts: one merge over the distinct beginnings, so its cost does not grow
with the multiplicities.
"""
from __future__ import annotations

from dataclasses import dataclass

from .segments import (
    BAD,
    GOOD,
    GRID_INT,
    UGLY,
    DomainError,
    HalfInt,
    InvariantError,
    Line,
    _typed,
    half,
)
from .langdata import (
    SignedSymMultisegment,
    _degree,
    _dual,
    _segment,
    _sides,
    _signed,
    require_valid,
    validate,
)


@dataclass(frozen=True)
class MatchingResult:
    """Outcome of a greedy protection matching: the matched sources ``x0``
    with their targets ``f``, and the leftovers on both sides."""

    x0: tuple
    f: tuple  # pairs (x, y), in x order
    xc: tuple
    y0: tuple
    yc: tuple


def best_matching(xs, ys, rel, drop=None) -> MatchingResult:
    """Greedy matching of sources to the targets they point at.

    ``xs`` and ``ys`` are sequences in ascending order; ``rel(y, x)`` says y
    points at x.  Requires the staircase condition: whenever x1 >= x2 and
    y1 >= y2 with y1, y2 both pointing at x1 and y2 pointing at x2, y1 must
    point at x2 as well (checked; violation is an error).  Sources are
    matched from the largest down, each taking the smallest unused target.
    ``drop``, when given, is a single (y, x) pair barred from matching; the
    staircase check runs on ``rel`` alone, before the pair is barred.
    """
    xs = list(xs)
    ys = list(ys)
    r = [[bool(rel(y, x)) for y in ys] for x in xs]
    # Row i as a bitmask of the targets pointing at xs[i].  Rows i2 < i1
    # violate the condition when some target of both rows lies below a
    # target of row i1 alone: c's lowest bit under a bit of r1 & ~r2.
    rows = [sum(1 << j for j, ok in enumerate(row) if ok) for row in r]
    for i1, r1 in enumerate(rows):
        for r2 in rows[:i1]:
            c = r1 & r2
            if c and r1 & ~r2 >= c & -c:
                raise DomainError("matching relation violates the staircase condition")
    if drop is not None:
        r = [[ok and (y, x) != drop for y, ok in zip(ys, row)] for x, row in zip(xs, r)]
    used: dict = {}  # target: source
    for i in range(len(xs) - 1, -1, -1):
        for j, ok in enumerate(r[i]):
            if ok and j not in used:
                used[j] = i
                break
    f = {i: j for j, i in used.items()}
    x0 = tuple(xs[i] for i in sorted(f))
    pairs = tuple((xs[i], ys[f[i]]) for i in sorted(f))
    xc = tuple(xs[i] for i in range(len(xs)) if i not in f)
    y0 = tuple(ys[j] for j in sorted(used))
    yc = tuple(ys[j] for j in range(len(ys)) if j not in used)
    return MatchingResult(x0, pairs, xc, y0, yc)


@dataclass(frozen=True)
class DerivativeResult:
    """The derived multisegment and the order of vanishing witnessed.

    ``k`` is 0 exactly when the input was already reduced at this operator,
    in which case ``result`` equals the input.
    """

    result: SignedSymMultisegment
    k: int


def _sub(ln: Line, cnt, v, k=1):
    cnt[v] = cnt.get(v, 0) - k
    if cnt[v] < 0:
        raise InvariantError(
            f"correction consumed an absent copy of {_segment(ln, v)}"
        )


def _addk(cnt, v, k=1):
    cnt[v] = cnt.get(v, 0) + k


def _unprotected(cnt, x2: int, tail, star=False, drop=False):
    """The copies ending at x2 left unmatched by the best matching against
    the copies ending at x2 - 2, in the ``(2b, 2e)`` counter of one GL line
    (side 0 of a mirror line), as ``{value + tail: count}`` in ascending
    beginning.  ``star`` holds back one copy of [-x, x] and one of
    [-x+1, x-1]; ``drop`` bars the last copy of [-x, x-1] to be matched
    from the last copy of [-x+1, x].

    The matching is one merge over the distinct beginnings, in descending
    order.  A source (ending at x2 - 2) protects the smallest unused target
    (ending at x2) of strictly larger beginning, so the targets met so far
    wait on a stack of ``[2b, copies left]``, the smallest on top, and the
    sources at a beginning take from it before the targets there are pushed.
    """
    ys = {v[0]: k for v, k in cnt.items() if v[1] == x2}
    xs = {v[0]: k for v, k in cnt.items() if v[1] == x2 - 2}
    if star:
        ys[-x2] -= 1
        if -x2 + 2 in xs:
            xs[-x2 + 2] -= 1
    stack = []
    for b2 in sorted(ys.keys() | xs.keys(), reverse=True):
        n = xs.get(b2, 0)
        if drop and b2 == -x2:
            # No source of larger beginning takes [-x+1, x], so its toff
            # copies are on top, free: toff - 1 copies of [-x, x-1] take
            # them but one, and the last takes the next target below it.
            stack[-1][1], n = 1, 0
            if len(stack) > 1:
                stack[-2][1] -= 1
                if not stack[-2][1]:
                    del stack[-2]
        while n and stack:
            top = stack[-1]
            t = min(n, top[1])
            top[1] -= t
            n -= t
            if not top[1]:
                stack.pop()
        if ys.get(b2):
            stack.append([b2, ys[b2]])
    return {(b2, x2) + tail: k for b2, k in reversed(stack)}


def _cut(ln: Line, cnt, unprot):
    """Each unprotected copy loses its end and a copy of its dual its
    beginning; a value equal to its own dual (the centered [-x, x]) loses
    both ends instead."""
    new_cnt = dict(cnt)
    for v, u in unprot.items():
        b2, e2 = v[0], v[1]
        dv = _dual(v)
        _sub(ln, new_cnt, v, u)
        if dv == v:
            if b2 + 2 <= e2 - 2:
                _addk(new_cnt, (b2 + 2, e2 - 2), u)
            continue
        if b2 <= e2 - 2:
            _addk(new_cnt, (b2, e2 - 2) + v[2:], u)
        _sub(ln, new_cnt, dv, u)
        if dv[0] + 2 <= dv[1]:
            _addk(new_cnt, (dv[0] + 2,) + dv[1:], u)
    return new_cnt


def _derive_line(ln: Line, cnt, minus, x2: int):
    """The twist derivative at x = x2/2 of one line's counter and minus
    set, as (order, counter, minus set); the counter may keep zero counts."""

    def eps(v):
        return -1 if v in minus else 1

    V, upper, lower = (-x2, x2), (-x2 + 2, x2), (-x2, x2 - 2)
    W = (-x2 + 2, x2 - 2) if x2 > 1 else None
    toff = cnt.get(lower, 0)
    mW = 1 if x2 == 1 else cnt.get(W, 0)
    w_sign = eps(V) if toff % 2 == 0 else -eps(V)  # of a W the cut creates
    star = ln.cls == GOOD and cnt.get(V, 0) > 0 and mW > 0 and eps(W) == -w_sign
    # A copy may not protect its own mirror on a bad line.  The t mirror pairs
    # between the two boundary values can dodge that ban pairwise only when t
    # is even; for odd t one pair is stuck: the last copy of the lower value
    # to be matched may not take the last copy of the upper one.
    drop = ln.cls == BAD and toff % 2 == 1

    tail = (0,) if ln.cls == UGLY else ()
    unprot = _unprotected(_sides(ln, cnt).get(tail, {}), x2, tail, star=star, drop=drop)
    k, c = sum(unprot.values()), unprot.get(V, 0)
    new_cnt = _cut(ln, cnt, unprot)
    if c % 2 == 1 and (star or ln.cls == BAD):
        _sub(ln, new_cnt, V)
        if W is not None:
            _sub(ln, new_cnt, W)
        _addk(new_cnt, upper)
        _addk(new_cnt, lower)
    if ln.cls != GOOD:
        return k, new_cnt, set()

    eps_new = {}
    for v, count in new_cnt.items():
        if count <= 0 or v[0] + v[1]:
            continue
        if v in cnt:
            eps_new[v] = eps(v)
        else:
            if v != W:
                raise InvariantError(
                    f"unexpected new centered value {_segment(ln, v)}"
                )
            eps_new[v] = w_sign

    if not star and c % 2 == 1 and toff >= 1:
        _sub(ln, new_cnt, upper)
        _sub(ln, new_cnt, lower)
        _addk(new_cnt, V)
        eps_new[V] = eps(V)
        if W is not None:
            _addk(new_cnt, W)
            if W not in eps_new:
                eps_new[W] = eps(W) if W in cnt else w_sign

    new_minus = {v for v, sg in eps_new.items() if sg == -1 and new_cnt.get(v)}
    return k, new_cnt, new_minus


def _twist(ln: Line, x) -> int:
    """2x for a twist derivative at x on ``ln``: x != 0 and on its grid."""
    x = half(x)
    if x.twice == 0:
        raise DomainError("twist derivatives need x != 0; use the zero-chunk form")
    if not ln.grid_ok(x):
        raise DomainError(f"x = {x} is off the {ln.grid} grid of line {ln.id}")
    return x.twice


def _result(s, ln: Line, k: int, cnt, minus, what: str) -> DerivativeResult:
    """``s`` with the line ``ln`` replaced (zero counts dropped) and order
    k; ``s`` itself when k is 0."""
    if k == 0:
        return DerivativeResult(s, 0)
    ints = dict(s._ints)
    ints[ln] = (cnt, minus)
    result = _signed((l, *ints[l]) for l in s.lines())
    report = validate(result)
    if report:
        raise InvariantError(
            f"{what} left the symmetric class:\n  " + "\n  ".join(report)
        )
    return DerivativeResult(result, k)


def derivative(s: SignedSymMultisegment, ln: Line, x) -> DerivativeResult:
    """The twist derivative at x != 0 on one line; other lines pass through.

    On ugly lines this is the thin GL-style variant: unprotected end removal
    on the primary side mirrored by beginning removal on the partner side.
    """
    require_valid(_typed(s, SignedSymMultisegment))
    x2 = _twist(_typed(ln, Line), x)
    if ln not in s._ints:
        return DerivativeResult(s, 0)
    return _result(s, ln, *_derive_line(ln, *s._ints[ln], x2), "derivative")


def derivative_L(s: SignedSymMultisegment, ln: Line) -> DerivativeResult:
    """The zero-chunk derivative on an integral-grid good or bad line.

    Requires every strictly negative twist derivative on the line to vanish
    (checked; error otherwise).  Segments touching the origin retreat by a
    full chunk of two coefficients, and matched chunk pairs through the
    origin are suppressed; signs are untouched.
    """
    require_valid(_typed(s, SignedSymMultisegment))
    if _typed(ln, Line).cls not in (GOOD, BAD):
        raise DomainError("zero-chunk derivative needs a good or bad line")
    if ln.grid != GRID_INT:
        raise DomainError("zero-chunk derivative needs an integral grid")
    if ln not in s._ints:
        return DerivativeResult(s, 0)
    cnt, minus = s._ints[ln]
    emax2 = max(v[1] for v in cnt)
    for y2 in range(-emax2 + 2, 0, 2):
        if _derive_line(ln, cnt, minus, y2)[0] != 0:
            raise DomainError(
                f"zero-chunk derivative undefined: not reduced at {HalfInt.from_twice(y2)}"
            )
    return _result(s, ln, *_zero_chunk(ln, cnt, minus), "zero-chunk derivative")


def _zero_chunk(ln: Line, cnt, minus):
    """:func:`derivative_L` of one line's counter and minus set once its
    hypotheses hold, as (order, counter, minus set)."""
    zero, m10, z01 = (0, 0), (-2, 0), (0, 2)
    q = max(cnt.get(m10, 0) - cnt.get((-4, -4), 0) + cnt.get((-2, -2), 0), 0)
    if q > cnt.get(m10, 0):
        raise DomainError(
            f"zero-chunk derivative undefined: suppression needs {q} copies "
            f"of {_segment(ln, m10)} but found {cnt.get(m10, 0)}"
        )
    new_cnt: dict = {}
    for v, n in cnt.items():
        b2, e2 = v
        if e2 == 0 and v not in (zero, m10):
            e2 -= 4
        elif b2 == 0 and v not in (zero, z01):
            b2 += 4
        if b2 <= e2:
            _addk(new_cnt, (b2, e2), n)
    if q:
        _sub(ln, new_cnt, m10, q)
        _sub(ln, new_cnt, z01, q)
    for v in minus:
        if not new_cnt.get(v):
            raise InvariantError(
                f"zero-chunk derivative dropped signed value {_segment(ln, v)}"
            )
    removed = _degree(cnt) - _degree(new_cnt)
    if removed % 4:
        raise InvariantError("zero-chunk removal is not a whole number of chunk pairs")
    return removed // 4, new_cnt, minus


def reduced_report(s: SignedSymMultisegment) -> dict:
    """Vanishing orders of every applicable derivative, per good/bad line.

    For each line: the order at every grid twist x != 0 within the end
    range, whether all vanish, the zero-chunk order when its hypotheses
    hold (None otherwise), and the combined verdict.  Only the orders are
    computed: no derived multisegment is built.
    """
    require_valid(_typed(s, SignedSymMultisegment))
    report: dict = {}
    overall = True
    for ln in s.lines():
        if ln.cls not in (GOOD, BAD):
            continue
        cnt, minus = s._ints[ln]
        emax2 = max(v[1] for v in cnt)
        ks = {
            x2: _derive_line(ln, cnt, minus, x2)[0]
            for x2 in range(-emax2, emax2 + 1, 2) if x2 != 0
        }
        orders = {str(HalfInt.from_twice(x2)): k for x2, k in ks.items()}
        x_reduced = not any(ks.values())
        l_order = None
        line_reduced = x_reduced
        if ln.grid == GRID_INT:
            # derivative_L's hypothesis, read off the orders already known
            if not any(ks[y2] for y2 in range(-emax2 + 2, 0, 2)):
                try:
                    l_order = _zero_chunk(ln, cnt, minus)[0]
                except DomainError:
                    pass
            line_reduced = x_reduced and l_order == 0
        overall = overall and line_reduced
        report[ln.id] = {
            "orders": orders,
            "x_reduced": x_reduced,
            "zero_chunk_order": l_order,
            "reduced": line_reduced,
        }
    report["reduced"] = overall
    return report
