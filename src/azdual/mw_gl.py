"""The GL-side algorithm: chain extraction steps, the full transpose they
generate, and path-capacity counts over juxtaposition graphs.

Everything runs on the per-line int form of :mod:`langdata`, the one a
signed multisegment holds: a multisegment's ``_ints``, ``{line: {(2b, 2e):
multiplicity}}`` with keys ``(2b, 2e, side)`` on mirror lines, read one GL
line at a time through ``_sides``.  Results are built as that form and
wrapped by ``_plain``, so no ``Segment`` is made until a caller reads
``entries``.  The public API speaks Segment / Multisegment.

One chain walk, ``_chains`` over ``_buckets`` of a GL line's counter,
serves the transpose, the single step and the dual's mirror lines.  It
yields each chain's two ends, all that the transpose and the step read;
only the dual's mirror-line step asks it for the chain's copies too.
"""
from __future__ import annotations

from bisect import bisect_left
from collections import Counter, deque
from heapq import heapify, heappop, heappush

from .segments import UGLY, DomainError, Segment, _typed
from .langdata import (
    Multisegment,
    SignedSymMultisegment,
    _plain,
    _section,
    _segment,
    _sides,
    require_valid,
)


def _form(m) -> dict:
    """The int form of a plain multisegment; a TypeError for anything else."""
    return _typed(m, Multisegment)._ints


def _buckets(cnt) -> dict:
    """For each end 2e, the sorted beginnings 2b of the copies ending there,
    out of a GL line's counter ``{(2b, 2e): multiplicity}``."""
    buckets: dict = {}
    for (b2, e2), k in cnt.items():
        lst = buckets.get(e2)
        if lst is None:
            buckets[e2] = [b2] * k
        else:
            lst += [b2] * k
    for lst in buckets.values():
        if len(lst) > 1:
            lst.sort()
    return buckets


def _chains(buckets, copies=None):
    """Extract chains of strictly descending ends until no copy is left,
    each from the highest end; yields each chain's ends ``(last end, top
    end)``, the ends of its initial segment.  A caller that passes a list
    ``copies`` finds it refilled, at each yield, with the chain's copies
    ``(2b, 2e)``, top first; without one no per-copy tuple is made.

    A chain starts from the biggest copy at the top end e and goes on with
    the biggest copy one end lower whose beginning strictly drops.  Each
    chain copy's final coefficient is cut off in place: when the chain picks
    (b', e - 2) below a copy (b, e), the cut copy (b, e - 2) takes the
    picked copy's slot, since everything before the slot is at most b' < b
    and everything after it at least b; a copy of length 1 frees the slot
    instead.  The last copy's cut goes first in the bucket one end lower,
    where every beginning is at least its own.  A bucket the chain empties
    is deleted.

    The heap ``tops`` holds every end that has had a bucket, negated; an end
    whose bucket is gone is popped when it comes to the top, and the end of
    a bucket the last cut opens is pushed.  So the cost is one heap entry
    per bucket opened, whatever the gaps between the ends.  Cut copies go
    back one end lower, so the top only walks down."""
    tops = [-e for e in buckets]
    heapify(tops)
    while buckets:
        while -tops[0] not in buckets:
            heappop(tops)
        top = e = -tops[0]
        lst = buckets[e]
        b = lst.pop()
        if not lst:
            del buckets[e]
        if copies is not None:
            copies[:] = [(b, e)]
        while True:
            e -= 2
            lst = buckets.get(e)
            i = -1 if lst is None else bisect_left(lst, b) - 1
            if i < 0:
                break
            picked = lst[i]
            if b <= e:
                lst[i] = b
            else:
                del lst[i]
                if not lst:
                    del buckets[e]
            b = picked
            if copies is not None:
                copies.append((b, e))
        if b <= e:
            if lst is None:
                buckets[e] = [b]
                heappush(tops, -e)
            else:
                lst.insert(0, b)
        yield e + 2, top


def mw_step(m: Multisegment):
    """One extraction step: returns (initial segment, remaining multisegment).

    The initial segment runs from the last chain element's end up to the top
    end; the chain elements lose their final coefficient.
    """
    parts = [(ln, tail, cnt) for ln, line_cnt in _form(m).items()
             for tail, cnt in _sides(ln, line_cnt).items()]
    if not parts:
        raise DomainError("mw_step on the zero multisegment")
    if len(parts) != 1:
        raise DomainError("mw_step needs a multisegment on exactly one line")
    ((ln, tail, cnt),) = parts
    buckets = _buckets(cnt)
    ends = next(_chains(buckets))
    rest = dict(Counter((b2, e2) + tail for e2, lst in buckets.items() for b2 in lst))
    initial = _segment(ln, ends + tail)
    return initial, _plain({ln: rest} if rest else {})


def transpose_pairs(cnt) -> dict:
    """Full transpose of one GL line's counter ``{(2b, 2e): multiplicity}``;
    returns the transposed counter, one copy per chain, counted in chain
    order."""
    out: dict = {}
    for v in _chains(_buckets(cnt)):
        out[v] = out.get(v, 0) + 1
    return out


def mw_transpose(m: Multisegment) -> Multisegment:
    """Iterate extraction steps per line until exhausted.  Degree-preserving
    involution; the zero multisegment maps to itself.  Only a mirror line's
    keys are split by side and get their side back."""
    form = {}
    for ln, line_cnt in _form(m).items():
        if ln.cls != UGLY:
            form[ln] = transpose_pairs(line_cnt)
            continue
        cnt = form[ln] = {}
        for tail, side in _sides(ln, line_cnt).items():
            for pair, k in transpose_pairs(side).items():
                cnt[pair + tail] = k
    return _plain(form)


# ---------------------------------------------------------------------------
# Path capacities
# ---------------------------------------------------------------------------


def _max_flow(cap, s, t) -> int:
    """Maximum s-t flow over the integer capacities ``cap[u][w]``, each edge
    with a reverse entry, augmenting along shortest paths by the bottleneck;
    ``cap`` is left as the residual graph."""
    flow = 0
    while True:
        parent = {s: None}
        q = deque([s])
        while q and t not in parent:
            u = q.popleft()
            for w, c in cap[u].items():
                if c and w not in parent:
                    parent[w] = u
                    q.append(w)
        if t not in parent:
            return flow
        path, w = [], t
        while w != s:
            path.append((parent[w], w))
            w = parent[w]
        push = min(cap[u][w] for u, w in path)
        for u, w in path:
            cap[u][w] -= push
            cap[w][u] += push
        flow += push


def _capacity_graph(values, target: Segment, less):
    """Shared capacity computation over a nonempty target window.

    ``values``: one (value, copies) per distinct value, the value starting
    with its (2b, 2e); ``less(x, y)``: strict comparability allowing value x
    at one column to feed value y at the next column.  Each (value, column)
    is a split node whose capacity is the value's copies.  The copies of a
    value have the same neighbours and, ``less`` being strict, none feeds
    another, so the flow equals the number of vertex-disjoint paths through
    single copies.
    """
    tb2, te2 = target.b.twice, target.e.twice
    cap: dict = {"S": {}, "T": {}}

    def add(u, w, c):
        cap.setdefault(u, {})[w] = c
        cap.setdefault(w, {})[u] = 0

    for x, k in values:
        lo, hi = max(x[0], tb2), min(x[1], te2)
        for col in range(lo, hi + 2, 2):
            add((x, col), (x, col, 1), k)
        if lo == tb2 <= hi:
            add("S", (x, tb2), k)
        if lo <= hi == te2:
            add((x, te2, 1), "T", k)
        for y, _ in values:
            if less(x, y):
                for col in range(max(lo, y[0] - 2), min(hi + 2, y[1], te2), 2):
                    add((x, col, 1), (y, col + 2), k)
    return _max_flow(cap, "S", "T")


def _gl_line(cnt, target: Segment) -> dict:
    """The counter of target's GL line, its side on a mirror line, out of
    the counter ``cnt`` of target's line."""
    return _sides(target.line, cnt).get(target._key[2:], {})


def _juxtaposed(x, y) -> bool:
    return x[0] < y[0] and x[1] < y[1] and y[0] <= x[1] + 2


def kz_capacity(m: Multisegment, target: Segment) -> int:
    """Maximum number of vertex-disjoint column-paths across the target
    window, where a copy can feed a strictly juxtaposed distinct copy.

    Calibrated so that the count of transpose segments containing the target
    equals this capacity; an empty target has capacity 0.
    """
    form = _form(m)
    if _typed(target, Segment).is_empty:
        return 0
    return _capacity_graph(_gl_line(form.get(target.line, {}), target).items(),
                           target, _juxtaposed)


def kz_capacity_labeled(s: SignedSymMultisegment, target: Segment) -> int:
    """Capacity over the labeled section of a signed symmetric multisegment:
    a labeled copy feeds any strictly greater labeled copy at the next
    column, that is any copy before it in the section."""
    _typed(s, SignedSymMultisegment)
    if _typed(target, Segment).is_empty:
        return 0
    require_valid(s)
    cnt = _gl_line(s._ints.get(target.line, ({},))[0], target)
    values = [(pair + (key,), k) for key, pair, _, k in _section(cnt)]
    return _capacity_graph(values, target, lambda x, y: x[2] > y[2])


def containment_count(m: Multisegment, target: Segment) -> int:
    """How many segments of m contain the (nonempty) target."""
    form = _form(m)
    if _typed(target, Segment).is_empty:
        raise DomainError("containment of an empty target is not defined")
    tb2, te2 = target.b.twice, target.e.twice
    return sum(k for (b2, e2), k in _gl_line(form.get(target.line, {}), target).items()
               if b2 <= tb2 and te2 <= e2)
