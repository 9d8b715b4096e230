"""The GL-side algorithm: chain extraction steps, the full transpose they
generate, and path-capacity counts over juxtaposition graphs.

Internals work on (2b, 2e) int pairs for speed; the public API speaks
Segment / Multisegment.
"""
from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque

from .segments import DomainError, HalfInt, Segment
from .langdata import Multisegment, SignedSymMultisegment, section_s, labeled_cmp


def _single_key(m: Multisegment, what: str):
    keys = {d.key() for d in m}
    if len(keys) != 1:
        raise DomainError(f"{what} needs a multisegment on exactly one line")
    return next(iter(keys))


def _desc_order(pairs):
    return sorted(range(len(pairs)), key=lambda i: (-pairs[i][0], pairs[i][1]))


def _mw_chain(pairs):
    """Greedy maximal chain of strictly descending ends.

    Start from the biggest copy at the top end; extend with the biggest copy
    one end lower whose beginning strictly drops.  Returns indices in chain
    order.
    """
    order = _desc_order(pairs)
    target = max(e for _, e in pairs)
    chain = []
    prev_b = None
    for i in order:
        b, e = pairs[i]
        if e != target:
            continue
        if prev_b is not None and b >= prev_b:
            continue
        chain.append(i)
        prev_b = b
        target -= 2
    return chain


def mw_step(m: Multisegment):
    """One extraction step: returns (initial segment, remaining multisegment).

    The initial segment runs from the last chain element's end up to the top
    end; the chain elements lose their final coefficient.
    """
    if not m:
        raise DomainError("mw_step on the zero multisegment")
    ln, side = _single_key(m, "mw_step")
    segs = list(m)
    pairs = [(d.b.twice, d.e.twice) for d in segs]
    chain = _mw_chain(pairs)
    top = pairs[chain[0]][1]
    bottom = pairs[chain[-1]][1]
    initial = Segment(ln, HalfInt.from_twice(bottom), HalfInt.from_twice(top), side)
    chain_set = set(chain)
    rest = []
    for i, (b2, e2) in enumerate(pairs):
        if i in chain_set:
            if e2 - 2 >= b2:
                rest.append(Segment(ln, HalfInt.from_twice(b2), HalfInt.from_twice(e2 - 2), side))
        else:
            rest.append(segs[i])
    return initial, Multisegment(rest)


def transpose_pairs(pairs):
    """Full transpose on (2b, 2e) pairs of one line; returns sorted pairs."""
    buckets: dict = {}
    total = 0
    for b2, e2 in pairs:
        buckets.setdefault(e2, []).append(b2)
        total += 1
    for lst in buckets.values():
        lst.sort()
    out = []
    while total:
        ymax = max(e for e, lst in buckets.items() if lst)
        lst = buckets[ymax]
        cur_b = lst.pop()
        chain = [(cur_b, ymax)]
        e = ymax - 2
        while True:
            lst = buckets.get(e)
            if not lst:
                break
            i = bisect_left(lst, cur_b) - 1
            if i < 0:
                break
            cur_b = lst.pop(i)
            chain.append((cur_b, e))
            e -= 2
        out.append((chain[-1][1], ymax))
        total -= len(chain)
        for b2, e2 in chain:
            if e2 - 2 >= b2:
                insort(buckets.setdefault(e2 - 2, []), b2)
                total += 1
    return sorted(out)


def mw_transpose(m: Multisegment) -> Multisegment:
    """Iterate extraction steps per line until exhausted.  Degree-preserving
    involution; the zero multisegment maps to itself."""
    out = []
    for key in sorted({d.key() for d in m}, key=lambda k: (k[0].id, k[1] or 0)):
        ln, side = key
        pairs = [(d.b.twice, d.e.twice) for d in m if d.key() == key]
        for b2, e2 in transpose_pairs(pairs):
            out.append(Segment(ln, HalfInt.from_twice(b2), HalfInt.from_twice(e2), side))
    return Multisegment(out)


# ---------------------------------------------------------------------------
# Path capacities
# ---------------------------------------------------------------------------


def _max_vertex_disjoint(n_nodes, edges, sources, sinks):
    """Maximum number of vertex-disjoint paths (unit node capacities) via
    node splitting and unit-capacity augmenting paths."""
    adj: dict = {}

    def add(u, v):
        adj.setdefault(u, set()).add(v)

    S, T = 2 * n_nodes, 2 * n_nodes + 1
    for i in range(n_nodes):
        add(2 * i, 2 * i + 1)
    for u, v in edges:
        add(2 * u + 1, 2 * v)
    for v in sources:
        add(S, 2 * v)
    for v in sinks:
        add(2 * v + 1, T)
    flow = 0
    while True:
        parent = {S: None}
        q = deque([S])
        while q:
            u = q.popleft()
            if u == T:
                break
            for w in adj.get(u, ()):
                if w not in parent:
                    parent[w] = u
                    q.append(w)
        if T not in parent:
            return flow
        w = T
        while w != S:
            u = parent[w]
            adj[u].discard(w)
            add(w, u)
            w = u
        flow += 1


def _capacity_graph(items, target, less):
    """Shared capacity computation.

    ``items``: copies carrying a segment each (via ``key=lambda`` below);
    ``less(i, j)``: strict comparability allowing a copy at one column to
    feed a copy at the next column.  No copy feeds itself.
    """
    tb2, te2 = target.b.twice, target.e.twice
    if te2 < tb2:
        return 0
    nodes = []
    node_id = {}
    for i, d in enumerate(items):
        for col in range(max(d.b.twice, tb2), min(d.e.twice, te2) + 2, 2):
            node_id[(i, col)] = len(nodes)
            nodes.append((i, col))
    edges = []
    for i, di in enumerate(items):
        for j, dj in enumerate(items):
            if i == j or not less(di, dj):
                continue
            lo = max(di.b.twice, tb2)
            hi = min(di.e.twice, te2 - 2)
            for col in range(lo, hi + 2, 2):
                a = node_id.get((i, col))
                b = node_id.get((j, col + 2))
                if a is not None and b is not None:
                    edges.append((a, b))
    sources = [node_id[(i, tb2)] for i, _ in enumerate(items) if (i, tb2) in node_id]
    sinks = [node_id[(i, te2)] for i, _ in enumerate(items) if (i, te2) in node_id]
    return _max_vertex_disjoint(len(nodes), edges, sources, sinks)


def kz_capacity(m: Multisegment, target: Segment) -> int:
    """Maximum number of vertex-disjoint column-paths across the target
    window, where a copy can feed a strictly juxtaposed distinct copy.

    Calibrated so that the count of transpose segments containing the target
    equals this capacity; an empty target has capacity 0.
    """
    if target.is_empty:
        return 0
    items = [d for d in m if d.key() == target.key()]
    if not items:
        return 0

    def less(di, dj):
        return (
            di.b.twice < dj.b.twice
            and di.e.twice < dj.e.twice
            and dj.b.twice <= di.e.twice + 2
        )

    return _capacity_graph(items, target, less)


class _LabeledItem:
    __slots__ = ("lam", "b", "e")

    def __init__(self, lam):
        self.lam = lam
        self.b = lam.seg.b
        self.e = lam.seg.e


def kz_capacity_labeled(s: SignedSymMultisegment, target: Segment) -> int:
    """Capacity over the labeled section of a signed symmetric multisegment:
    a labeled copy feeds any strictly greater labeled copy at the next
    column."""
    if target.is_empty:
        return 0
    sec = section_s(s)
    items = [_LabeledItem(lam) for lam in sec if lam.seg.key() == target.key()]
    if not items:
        return 0

    def less(di, dj):
        return labeled_cmp(di.lam, dj.lam) < 0

    return _capacity_graph(items, target, less)


def containment_count(m: Multisegment, target: Segment) -> int:
    """How many segments of m contain the (nonempty) target."""
    if target.is_empty:
        raise DomainError("containment of an empty target is not defined")
    return sum(
        1
        for d in m
        if d.key() == target.key()
        and d.b.twice <= target.b.twice
        and target.e.twice <= d.e.twice
    )
