"""Enumeration of inputs, closed-form duals for recognized families,
inverse derivative search, and the property-checking harness.

Everything here is an oracle or a stress harness for the core algorithm:
independent enumeration, pattern-matched closed forms, and properties that
any claimed dual must satisfy.

Every state here is built in the per-line int form and read in it: the
exhaustive enumerators walk multisets of int keys, the sampler draws
straight into the form, the inverse search filters int candidates, a
closed form matches one line's counter and minus set, and the mirror-line
reduction transposes a line's counter and mirrors side 0 of the result.
The family formulas share no code with the dual's engine, which is what
makes them an independent oracle.
"""
from __future__ import annotations

import random
from collections import Counter
from itertools import combinations_with_replacement, compress, product

from .segments import (
    BAD,
    GOOD,
    GRID_HALF,
    GRID_INT,
    UGLY,
    DomainError,
    HalfInt,
    InvariantError,
    Line,
)
from .langdata import (
    LanglandsData,
    SignedSymMultisegment,
    _datum,
    _degree,
    _dual,
    _fill,
    _plain,
    _sides,
    _signed,
    _sort_key,
    line_project,
    plus_product,
    require_valid,
    sign_product,
    transfer,
    untransfer,
    validate,
)
from .mw_gl import mw_transpose
from .ad_core import ad_data, ad_step, ad_symm
from .derivatives import _derive_line, _twist, derivative


def _grid_range(ln: Line, lo2: int, hi2: int):
    par = 0 if ln.grid == GRID_INT else 1
    start = lo2 + ((par - lo2) % 2)
    return range(start, hi2 + 1, 2)


def _window(ln: Line, n: int, tails=((),)):
    """The key of every segment on ln with coefficients in [-n, n], with
    each side tail in turn on a mirror line, by ascending beginning, then end."""
    return [(b2, e2, *tail) for tail in tails for b2 in _grid_range(ln, -2 * n, 2 * n)
            for e2 in range(b2, 2 * n + 1, 2)]


def _multisets(values, most):
    """Every multiset of at most ``most`` of the values, smallest first."""
    for t in range(most + 1):
        yield from combinations_with_replacement(values, t)


def _signings(distinct) -> list:
    """Every minus set of the distinct values, in the order of the sign
    vectors from all +1 to all -1, the first value's sign varying slowest."""
    return [frozenset(compress(distinct, signs))
            for signs in product((False, True), repeat=len(distinct))]


def _sizes(**sizes):
    """Refuse a negative size, as the command line does."""
    for name, n in sizes.items():
        if n < 0:
            raise DomainError(f"{name} must not be negative, got {n}")


def _symm_forms(ln: Line, n: int, max_pairs: int, max_centered: int,
                max_degree=None, with_signs: bool = True):
    """The (counter, minus set) on ln of each state of :func:`enumerate_symm`,
    in order; the signings of one multiset share its counter."""
    _sizes(n=n, max_pairs=max_pairs, max_centered=max_centered)
    # A dual pair is given by its negative-center member, or its side-0 one on
    # a mirror line.  A bad line takes each centered value twice; a mirror line has none.
    copies = 2 if ln.cls == BAD else 1
    cap = max_degree if max_degree is not None else float("inf")
    signed = ln.cls == GOOD and with_signs
    centers = [] if ln.cls == UGLY else [(-y2, y2) for y2 in _grid_range(ln, 0, 2 * n)]
    centered = [(cc * copies, copies * _degree(Counter(cc)),
                 _signings(sorted(set(cc), key=lambda v: v[1])) if signed else [frozenset()])
                for cc in _multisets(centers, max_centered // copies)]
    pairs = (_window(ln, n, ((0,),)) if ln.cls == UGLY
             else [v for v in _window(ln, n) if v[0] + v[1] < 0])
    duals = {v: _dual(v) for v in pairs}
    for pc in _multisets(duals, max_pairs):
        base = tuple(w for v in pc for w in (v, duals[v]))
        base_deg = _degree(Counter(base))
        if base_deg > cap:
            continue
        for cc, deg, signings in centered:
            if base_deg + deg > cap:
                continue
            cnt = dict(Counter(base + cc))
            for minus in signings:
                yield cnt, minus


def enumerate_symm(ln: Line, n: int, max_pairs: int, max_centered: int,
                   max_degree=None, with_signs: bool = True):
    """All valid signed symmetric multisegments on one line with coefficients
    in [-n, n], at most max_pairs dual pairs and max_centered centered
    copies, optionally capped in degree.  Deterministic and duplicate-free.
    """
    for cnt, minus in _symm_forms(ln, n, max_pairs, max_centered, max_degree, with_signs):
        yield _fill(object.__new__(SignedSymMultisegment), {ln: (cnt, minus)} if cnt else {})


def _block_sizes(ln: Line, n: int):
    return range(1 if ln.grid == GRID_INT else 2, 2 * n + 2, 2)


def enumerate_data(
    n: int,
    k_m: int,
    k_phi: int,
    lines,
    mode: str = "exhaustive",
    count=None,
    seed=None,
):
    """Valid parameter data within the given bounds.

    Exhaustive mode yields, per line, every datum with at most k_m segments
    and k_phi tempered blocks and coefficients in [-n, n], deterministically
    and without duplicates.  Sampled mode draws ``count`` data from the
    seeded scheme: each of the k_m slots draws an end uniformly on the grid
    and then a beginning uniform among those making the center negative
    (slots with no room are skipped); each block slot draws a size uniformly
    (drawn in mirrored pairs on bad lines); signs are uniform per distinct
    good block.  No slot has room when no grid point or block fits in
    [-n, n], as on a half-integral line with n = 0.
    """
    _sizes(n=n, k_m=k_m, k_phi=k_phi, count=count or 0)
    lines = sorted(lines, key=lambda ln: ln.id)
    if mode == "exhaustive":
        for ln in lines:
            yield from _enumerate_data_line(ln, n, k_m, k_phi)
    elif mode == "sampled":
        if count is None:
            raise DomainError("sampled enumeration needs a count")
        if not lines:
            raise DomainError("sampled enumeration needs at least one line")
        rng = random.Random(seed)
        grids = {ln: _grid_range(ln, -2 * n, 2 * n) for ln in lines}
        sizes = {ln: _block_sizes(ln, n) for ln in lines}
        for _ in range(count):
            ln = lines[rng.randrange(len(lines))]
            grid = grids[ln]
            cnt = {}
            for _ in range(k_m if grid else 0):
                e2 = rng.choice(grid)
                cand = range(grid.start, min(e2, -e2 - 2) + 1, 2)
                if not cand:
                    continue
                b2 = rng.choice(cand)
                v = (b2, e2, rng.choice((0, 1))) if ln.cls == UGLY else (b2, e2)
                cnt[v] = cnt.get(v, 0) + 1
            copies = 2 if ln.cls == BAD else 1
            blocks = {}
            for _ in range(k_phi // copies if sizes[ln] else 0):
                a = rng.choice(sizes[ln])
                blocks[a] = blocks.get(a, 0) + copies
            minus = {a for a in sorted(blocks) if ln.cls == GOOD and rng.choice((1, -1)) == -1}
            yield _datum(_plain({ln: cnt} if cnt else {}),
                         {ln: (blocks, minus)} if blocks else {})
    else:
        raise DomainError(f"unknown enumeration mode {mode!r}")


def _enumerate_data_line(ln: Line, n: int, k_m: int, k_phi: int):
    # A bad line takes each block twice; a mirror line has segments on both sides.
    copies = 2 if ln.cls == BAD else 1
    tails = ((0,), (1,)) if ln.cls == UGLY else ((),)
    blocks = [dict(Counter(pc * copies)) for pc in _multisets(_block_sizes(ln, n), k_phi // copies)]
    signed = [(cnt, _signings(sorted(cnt)) if ln.cls == GOOD else [frozenset()])
              for cnt in blocks]
    negative = [v for v in _window(ln, n, tails) if v[0] + v[1] < 0]
    for ncombo in _multisets(negative, k_m):
        m = _plain({ln: dict(Counter(ncombo))} if ncombo else {})
        for cnt, signings in signed:
            for eta_minus in signings:
                yield _datum(m, {ln: (cnt, eta_minus)} if cnt else {})


def standard_sweep(n: int = 2, max_pairs: int = 3, max_centered: int = 3):
    """The default verification sweep: one good and one bad line per grid."""
    lns = [
        Line("g", GOOD, GRID_INT),
        Line("gh", GOOD, GRID_HALF),
        Line("b", BAD, GRID_INT),
        Line("bh", BAD, GRID_HALF),
    ]
    for ln in lns:
        yield from enumerate_symm(ln, n, max_pairs, max_centered)


# ---------------------------------------------------------------------------
# Closed-form duals
# ---------------------------------------------------------------------------


def _build(ln, cnt, eps_map):
    """The signed state on ``ln`` of a matcher's counter and sign map; only
    positive counts are kept, and signs only on kept values."""
    cnt = {v: k for v, k in cnt.items() if k > 0}
    minus = {v for v, sg in eps_map.items() if sg == -1 and v in cnt}
    out = _signed([(ln, cnt, minus)])
    report = validate(out)
    if report:
        raise InvariantError("closed form built an invalid dual:\n  " + "\n  ".join(report))
    return out


def _alternating_up(minus, lowest2, top2):
    """Signs alternate between consecutive centered values from lowest2."""
    for y2 in range(lowest2 + 2, top2 + 1, 2):
        if ((-y2, y2) in minus) == ((2 - y2, y2 - 2) in minus):
            return False
    return True


def _cf_good_int_zero_tower(cnt, minus):
    """All-centered tower over [0,0]: n0 copies of [0,0] plus one [-y,y]
    for each 1 <= y <= y0, signs alternating."""
    zero = (0, 0)
    n0 = cnt.get(zero, 0)
    if n0 < 1:
        return None
    y0_2 = 0
    for v, k in cnt.items():
        if v == zero:
            continue
        if v[0] + v[1] or k != 1:
            return None
        y0_2 = max(y0_2, v[1])
    for y2 in range(2, y0_2 + 1, 2):
        if cnt.get((-y2, y2), 0) != 1:
            return None
    if sum(cnt.values()) != n0 + y0_2 // 2:
        return None
    if not _alternating_up(minus, 0, y0_2):
        return None
    eps = lambda v: -1 if v in minus else 1
    if y0_2 == 0:
        sgn = (-1 if (n0 + 1) % 2 else 1) * eps(zero)
        return cnt, {zero: sgn}
    if n0 % 2 == 1:
        return cnt, {v: eps(v) for v in cnt}
    top = (-y0_2, y0_2)
    new_cnt = dict(cnt)
    new_cnt[zero] -= 1
    new_cnt[top] -= 1
    for d in ((-y0_2, 0), (0, y0_2)):
        new_cnt[d] = new_cnt.get(d, 0) + 1
    eps_map = {}
    for v in cnt:
        if new_cnt.get(v, 0) > 0:
            eps_map[v] = -eps(v)
    return new_cnt, eps_map


def _cf_good_half_tower(cnt, minus):
    """Pure tower of centered segments on the half grid with the forced
    alternating signs starting at -1: a fixed point."""
    if not cnt:
        return None
    y0_2 = 0
    for v, k in cnt.items():
        if v[0] + v[1] or k != 1:
            return None
        y0_2 = max(y0_2, v[1])
    for y2 in range(1, y0_2 + 1, 2):
        if cnt.get((-y2, y2), 0) != 1:
            return None
    if (-1, 1) not in minus:
        return None
    if not _alternating_up(minus, 1, y0_2):
        return None
    return cnt, {v: -1 for v in minus}


def _cf_good_half_low(cnt, minus):
    """Ends at most 1/2 on a good half-integral line: c copies of the
    centered segment plus n singleton pairs."""
    hc, hp, hm = (-1, 1), (1, 1), (-1, -1)
    if any(v not in (hc, hp, hm) for v in cnt):
        return None
    c = cnt.get(hc, 0)
    nn = cnt.get(hp, 0)
    if c == 0 and nn == 0:
        return None
    eps = -1 if hc in minus else 1
    star = c != 0 and eps == (-1 if (nn + 1) % 2 else 1)
    if star:
        c2, n2 = nn + 1, c - 1
    else:
        c2, n2 = nn, c
    eps2 = -1 if c % 2 else 1
    return {hc: c2, hp: n2, hm: n2}, {hc: eps2}


_F4_LOW = ((0, 0), (-2, 2), (-2, 0), (0, 2), (-2, -2), (2, 2))
"""The values of the low integral families: [0,0], [-1,1], the chunk pair
[-1,0] and [0,1], and the singleton pair [-1,-1] and [1,1]."""


def _f4_low_params(cnt):
    """(c0, c1, t, n): the counts of [0,0], [-1,1], [-1,0] and [-1,-1], or
    None when a value lies outside the low integral families."""
    if any(v not in _F4_LOW for v in cnt):
        return None
    c0, c1, t, _, nn, _ = (cnt.get(v, 0) for v in _F4_LOW)
    return c0, c1, t, nn


def _f4_low(c0n, c1n, tn, nnn):
    return dict(zip(_F4_LOW, (c0n, c1n, tn, tn, nnn, nnn)))


def _cf_good_int_low(cnt, minus):
    """Ends at most 1 on a good integral line."""
    params = _f4_low_params(cnt)
    if params is None:
        return None
    c0, c1, t, nn = params
    if c0 + c1 + t + nn == 0:
        return None
    zero, c1v = (0, 0), (-2, 2)
    e0 = -1 if zero in minus else 1
    e1 = -1 if c1v in minus else 1
    star = c0 != 0 and c1 != 0 and e0 * e1 == (-1 if t % 2 == 0 else 1)
    sflip = -1 if (c0 + c1 + 1) % 2 else 1
    if nn > c0 or nn == c0:
        c0n, c1n, tn = c1, c0, t
        nnn = (nn - c0 + c1) if nn > c0 else c1
        en0, en1 = e1 * sflip, e0 * sflip
    elif not star and ((c0 - nn) % 2 == 0 or t == 0):
        c0n, c1n, tn, nnn = c0 + c1 - nn, nn, t, c1
        en0 = e0 * (-1 if (c0 + c1 + t + 1) % 2 else 1)
        en1 = e0 * sflip
    elif not star:
        c0n, c1n, tn, nnn = c0 + c1 - nn + 1, nn + 1, t - 1, c1
        en0 = e0 * (-1 if (c0 + c1 + t + 1) % 2 else 1)
        en1 = e0 * sflip
    elif (c0 - nn) % 2 == 0:
        c0n, c1n, tn, nnn = c0 + c1 - nn - 2, nn, t + 1, c1 - 1
        en0 = e0 * (-1 if (t + c0 + c1) % 2 else 1)
        en1 = e0 * sflip
    else:
        c0n, c1n, tn, nnn = c0 + c1 - nn - 1, nn + 1, t, c1 - 1
        en0 = e0 * (-1 if (t + c0 + c1) % 2 else 1)
        en1 = e0 * sflip
    return _f4_low(c0n, c1n, tn, nnn), {zero: en0, c1v: en1}


def _cf_good_int_high(cnt, minus):
    """The tall integral family: matched singleton towers, one centered
    segment per level, and the forced chunk count."""
    emax2 = max((v[1] for v in cnt), default=0)
    if emax2 < 4:
        return None
    ne = cnt.get((emax2, emax2), 0)
    for y2 in range(4, emax2 + 1, 2):
        if cnt.get((y2, y2), 0) != ne:
            return None
    nn1 = cnt.get((2, 2), 0)
    t0 = cnt.get((-2, 0), 0)
    n0 = cnt.get((0, 0), 0)
    if t0 != ne - nn1 or nn1 > ne or n0 < nn1 + 1:
        return None
    expected: dict = {}
    for y2 in range(4, emax2 + 1, 2):
        if ne:
            expected[(y2, y2)] = ne
            expected[(-y2, -y2)] = ne
    if nn1:
        expected[(2, 2)] = nn1
        expected[(-2, -2)] = nn1
    expected[(0, 0)] = n0
    if t0:
        expected[(-2, 0)] = t0
        expected[(0, 2)] = t0
    for y2 in range(2, emax2 + 1, 2):
        expected[(-y2, y2)] = expected.get((-y2, y2), 0) + 1
    if expected != cnt:
        return None
    eps = lambda v: -1 if v in minus else 1
    zero = (0, 0)
    if eps(zero) * eps((-2, 2)) != (-1 if t0 % 2 == 0 else 1):
        return None
    if not _alternating_up(minus, 2, emax2):
        return None
    top = (-emax2, emax2)
    half_lo = (-emax2, 0)
    half_hi = (0, emax2)
    new_cnt: dict = {}
    eps_map: dict = {}
    e_top = (-1 if (n0 + emax2 // 2 + 1) % 2 else 1) * eps(zero)
    if (n0 - nn1) % 2 == 1:
        new_cnt[top] = nn1 + 1
        new_cnt[half_lo] = new_cnt[half_hi] = ne - nn1
        new_cnt[zero] = n0 - nn1
        eps_map[zero] = (-1 if ne % 2 else 1) * eps(zero)
        flip = -1 if nn1 % 2 else 1
    else:
        new_cnt[top] = nn1
        new_cnt[half_lo] = new_cnt[half_hi] = ne - nn1 + 1
        new_cnt[zero] = n0 - nn1 - 1
        eps_map[zero] = (-1 if (ne + 1) % 2 else 1) * eps(zero)
        flip = -1 if (nn1 + 1) % 2 else 1
    eps_map[top] = e_top
    for y2 in range(2, emax2, 2):
        v = (-y2, y2)
        new_cnt[v] = 1
        eps_map[v] = flip * eps(v)
    return new_cnt, eps_map


def _cf_good_half_high(cnt, minus):
    """The tall half-integral family: equal singleton towers at every level
    plus the full centered tower with forced signs."""
    emax2 = max((v[1] for v in cnt), default=0)
    if emax2 < 3:
        return None
    ne = cnt.get((emax2, emax2), 0)
    expected: dict = {}
    for y2 in range(1, emax2 + 1, 2):
        if ne:
            expected[(y2, y2)] = ne
            expected[(-y2, -y2)] = ne
        expected[(-y2, y2)] = expected.get((-y2, y2), 0) + 1
    if expected != cnt:
        return None
    eps = lambda v: -1 if v in minus else 1
    if eps((-1, 1)) != (-1 if (ne + 1) % 2 else 1):
        return None
    if not _alternating_up(minus, 1, emax2):
        return None
    top = (-emax2, emax2)
    new_cnt = {top: ne + 1}
    eps_map = {top: (-1 if ((emax2 + 1) // 2) % 2 else 1)}
    for u2 in range(1, emax2, 2):
        v = (-u2, u2)
        new_cnt[v] = 1
        eps_map[v] = (-1 if ne % 2 else 1) * eps(v)
    return new_cnt, eps_map


def _cf_bad_half_low(cnt, minus):
    hc, hp, hm = (-1, 1), (1, 1), (-1, -1)
    if any(v not in (hc, hp, hm) for v in cnt):
        return None
    c = cnt.get(hc, 0)
    nn = cnt.get(hp, 0)
    if c == 0 and nn == 0:
        return None
    if nn % 2 == 0:
        c2, n2 = nn, c
    else:
        c2, n2 = nn - 1, c + 1
    return {hc: c2, hp: n2, hm: n2}, {}


def _cf_bad_int_low(cnt, minus):
    params = _f4_low_params(cnt)
    if params is None:
        return None
    c0, c1, t, nn = params
    if c0 + c1 + t + nn == 0:
        return None
    if nn > c0:
        c0n, c1n, tn, nnn = c1, c0, t, nn - c0 + c1
    elif nn % 2 == 0 and t % 2 == 0:
        c0n, c1n, tn, nnn = c0 - nn + c1, nn, t, c1
    elif nn % 2 == 0:
        c0n, c1n, tn, nnn = c0 - nn + c1 + 2, nn, t - 1, c1 + 1
    elif t % 2 == 0:
        c0n, c1n, tn, nnn = c0 - nn - 1 + c1, nn - 1, t + 1, c1
    else:
        c0n, c1n, tn, nnn = c0 - nn + c1 + 1, nn - 1, t, c1 + 1
    return _f4_low(c0n, c1n, tn, nnn), {}


_CF_MATCHERS = {
    (GOOD, GRID_INT): (_cf_good_int_zero_tower, _cf_good_int_low, _cf_good_int_high),
    (GOOD, GRID_HALF): (_cf_good_half_tower, _cf_good_half_low, _cf_good_half_high),
    (BAD, GRID_HALF): (_cf_bad_half_low,),
    (BAD, GRID_INT): (_cf_bad_int_low,),
}


def closed_form_dual(s: SignedSymMultisegment):
    """Dual via pattern-matched closed forms; None when no family matches.

    Only single-line inputs are matched.  Each matcher reads the line's
    counter and minus set and returns the dual's counter and sign map.
    """
    require_valid(s)
    lines = s.lines()
    if len(lines) != 1:
        return None
    ln = lines[0]
    for matcher in _CF_MATCHERS.get((ln.cls, ln.grid), ()):
        out = matcher(*s._ints[ln])
        if out is not None:
            return _build(ln, *out)
    return None


def closed_form_instances(bound: int = 6):
    """Every instance of the eight recognized families with all counters
    at most ``bound``.  Deterministic."""
    gi = Line("g", GOOD, GRID_INT)
    gh = Line("gh", GOOD, GRID_HALF)
    bi = Line("b", BAD, GRID_INT)
    bh = Line("bh", BAD, GRID_HALF)

    # zero tower (good integral)
    for n0 in range(1, bound + 1):
        for y0 in range(0, bound + 1):
            for e0 in (1, -1):
                cnt = {(0, 0): n0}
                minus = set()
                sign = e0
                if sign == -1:
                    minus.add((0, 0))
                for y in range(1, y0 + 1):
                    sign = -sign
                    cnt[(-2 * y, 2 * y)] = 1
                    if sign == -1:
                        minus.add((-2 * y, 2 * y))
                yield _signed([(gi, cnt, minus)])
    # half tower (good half-integral)
    for y0_2 in range(1, 2 * bound, 2):
        cnt = {}
        minus = set()
        sign = 1
        for y2 in range(1, y0_2 + 1, 2):
            sign = -sign
            cnt[(-y2, y2)] = 1
            if sign == -1:
                minus.add((-y2, y2))
        yield _signed([(gh, cnt, minus)])
    # low half-integral (good)
    for c in range(bound + 1):
        for nn in range(bound + 1):
            if c == 0 and nn == 0:
                continue
            for e in ((1, -1) if c else (1,)):
                cnt = {(-1, 1): c, (1, 1): nn, (-1, -1): nn}
                minus = {(-1, 1)} if (c and e == -1) else set()
                yield _signed([(gh, cnt, minus)])
    # low integral (good)
    for c0 in range(bound + 1):
        for c1 in range(bound + 1):
            for t in range(bound + 1):
                for nn in range(bound + 1):
                    if c0 + c1 + t + nn == 0:
                        continue
                    for e0 in ((1, -1) if c0 else (1,)):
                        for e1 in ((1, -1) if c1 else (1,)):
                            minus = set()
                            if e0 == -1:
                                minus.add((0, 0))
                            if e1 == -1:
                                minus.add((-2, 2))
                            yield _signed([(gi, _f4_low(c0, c1, t, nn), minus)])
    # tall integral (good)
    for emax in range(2, 5):
        for ne in range(bound + 1):
            for nn1 in range(ne + 1):
                for n0 in range(nn1 + 1, bound + 1):
                    for e0 in (1, -1):
                        t0 = ne - nn1
                        cnt = {(0, 0): n0, (-2, 0): t0, (0, 2): t0,
                               (2, 2): nn1, (-2, -2): nn1}
                        for y in range(2, emax + 1):
                            cnt[(2 * y, 2 * y)] = cnt[(-2 * y, -2 * y)] = ne
                        minus = set()
                        if e0 == -1:
                            minus.add((0, 0))
                        sign = e0 * (-1 if t0 % 2 == 0 else 1)
                        for y in range(1, emax + 1):
                            cnt[(-2 * y, 2 * y)] = 1
                            if sign == -1:
                                minus.add((-2 * y, 2 * y))
                            sign = -sign
                        yield _signed([(gi, cnt, minus)])
    # tall half-integral (good)
    for emax2 in range(3, 10, 2):
        for ne in range(bound + 1):
            cnt = {}
            minus = set()
            sign = -1 if (ne + 1) % 2 else 1
            for y2 in range(1, emax2 + 1, 2):
                cnt[(y2, y2)] = cnt[(-y2, -y2)] = ne
                cnt[(-y2, y2)] = 1
                if sign == -1:
                    minus.add((-y2, y2))
                sign = -sign
            yield _signed([(gh, cnt, minus)])
    # low half-integral (bad)
    for c in range(0, bound + 1, 2):
        for nn in range(bound + 1):
            if c == 0 and nn == 0:
                continue
            yield _signed([(bh, {(-1, 1): c, (1, 1): nn, (-1, -1): nn}, set())])
    # low integral (bad)
    for c0 in range(0, bound + 1, 2):
        for c1 in range(0, bound + 1, 2):
            for t in range(bound + 1):
                for nn in range(bound + 1):
                    if c0 + c1 + t + nn == 0:
                        continue
                    yield _signed([(bi, _f4_low(c0, c1, t, nn), set())])


# ---------------------------------------------------------------------------
# Inverse derivative search
# ---------------------------------------------------------------------------


def inverse_derivative_search(
    target: SignedSymMultisegment, ln: Line, x, k: int, bound: int
):
    """The unique preimage s with derivative (target, k) at x, searching all
    candidates with coefficients within the bound; None when there is none,
    an error when several exist (k=0 returns the target itself).  ``ln`` and
    x get the checks of :func:`derivative`, once."""
    require_valid(target)
    if k < 0:
        raise DomainError("derivative order must be nonnegative")
    _sizes(bound=bound)
    if k == 0:
        return target
    if any(t.id == ln.id and t != ln for t in target._ints):
        raise DomainError(f"invalid input:\n  conflicting declarations for line {ln.id!r}")
    x2 = _twist(ln, x)
    want = target._ints.get(ln, ({}, set()))
    part_deg = _degree(want[0]) + 2 * k
    hits = []
    for cnt, minus in _symm_forms(ln, bound, part_deg // 2, part_deg, part_deg):
        if _degree(cnt) != part_deg:
            continue
        got, new_cnt, new_minus = _derive_line(ln, cnt, minus, x2)
        if got == k and ({v: n for v, n in new_cnt.items() if n}, new_minus) == want:
            hits.append(_signed([*((l, *e) for l, e in target._ints.items() if l != ln),
                                 (ln, cnt, minus)]))
            if len(hits) > 1:
                raise DomainError("multiple preimages within the bound")
    return hits[0] if hits else None


# ---------------------------------------------------------------------------
# Property harness
# ---------------------------------------------------------------------------


class _StateMemo:
    """What the property suites share for one state ``s``, each value
    computed on first use and dropped with the state."""

    def __init__(self, s):
        self.s = s
        self._duals = {}
        self._longest = None

    def dual(self, x):
        """``ad_symm(x)``, computed at most once per distinct ``x``."""
        if x not in self._duals:
            self._duals[x] = ad_symm(x)
        return self._duals[x]

    def longest(self):
        """(line, 2e, 2b) of the longest copy at the top end 2e of the
        first extraction step on each good or bad line of ``s``."""
        if self._longest is None:
            self._longest = []
            for ln in self.s.lines():
                if ln.cls not in (GOOD, BAD):
                    continue
                cnt = ad_step(line_project(self.s, ln))[0]._ints[ln][0]
                etop = max(v[1] for v in cnt)
                self._longest.append((ln, etop, min(v[0] for v in cnt if v[1] == etop)))
        return self._longest


def _pair_properties(s, d, memo):
    """Named checks a claimed dual d of s must pass, yielded in order; each
    is computed only when it is pulled, so a caller that stops at the first
    failure skips the rest."""
    d_valid = not validate(d)
    yield "membership", d_valid
    yield "degree", d.degree == s.degree
    em_s = s.max_end()
    em_d = d.max_end()
    yield "emax", (em_s is None) == (em_d is None) and (em_s is None or em_s == em_d)
    yield "sign_product", not d_valid or (
        all(sign_product(s, ln) == sign_product(d, ln) for ln in s.lines() if ln.cls == GOOD)
        and plus_product(s) == plus_product(d))
    yield "longest_first", not any(
        v[1] == etop and v[0] < b2
        for ln, etop, b2 in memo.longest() for v in d._ints.get(ln, ({},))[0])
    yield "involution", d_valid and memo.dual(d) == s


def _corruptions(d: SignedSymMultisegment):
    """Deterministic single-sign and single-coefficient corruptions of a
    claimed dual; each must be caught by some property."""
    ints = d._ints

    def rebuilt(ln, cnt, minus):
        return _signed((l, *((cnt, minus) if l == ln else ints[l])) for l in ints)

    out = []
    centered = [(ln.id, v[1], ln, v) for ln, (cnt, _) in ints.items()
                if ln.cls == GOOD for v in cnt if v[0] + v[1] == 0]
    if centered:
        _, _, ln, v = min(centered, key=lambda c: c[:2])
        out.append(("sign_flip", rebuilt(ln, ints[ln][0], set(ints[ln][1]) ^ {v})))
    if d:
        # the first copy in canonical (_sort_key) order
        ln, v = min(((ln, v) for ln, (cnt, _) in ints.items() for v in cnt),
                    key=lambda c: _sort_key(*c))
        cnt, minus = ints[ln]
        minus = set(minus) - {v}
        dropped = {**cnt, v: cnt[v] - 1}
        w = (v[0], v[1] + 2) + v[2:]  # v one longer at its end
        out.append(("coeff_stretch", rebuilt(ln, {**dropped, w: dropped.get(w, 0) + 1}, minus)))
        out.append(("copy_drop", rebuilt(ln, dropped, minus)))
    return out


def _suite_involution(s, memo):
    return memo.dual(memo.dual(s)) == s, None


def _suite_preservation(s, memo):
    for name, ok in _pair_properties(s, memo.dual(s), memo):
        if not ok:
            return False, name
    return True, None


def _suite_commutation(s, memo):
    d = memo.dual(s)
    for ln in s.lines():
        if ln.cls not in (GOOD, BAD):
            continue
        emax2 = max(v[1] for v in s._ints[ln][0])
        for x2 in range(-emax2, emax2 + 1, 2):
            if x2 == 0:
                continue
            x = HalfInt.from_twice(x2)
            res = derivative(s, ln, x)
            if res.k == 0:
                continue
            lhs = memo.dual(res.result)
            rhs = derivative(d, ln, -x)
            if rhs.k != res.k or lhs != rhs.result:
                return False, f"x={x} on {ln.id}"
    return True, None


def _suite_roundtrip(s, memo):
    if transfer(untransfer(s)) != s:
        return False, "transfer of untransfer"
    return True, None


def _suite_closed_form(s, memo):
    cf = closed_form_dual(s)
    if cf is None:
        return True, None
    return cf == memo.dual(s), "closed form disagrees"


def _suite_ugly_reduction(s, memo):
    for ln in s.lines():
        if ln.cls != UGLY:
            continue
        mt = mw_transpose(_plain({ln: s._ints[ln][0]}))._ints[ln]
        want = {}
        for (b2, e2), k in _sides(ln, mt).get((0,), {}).items():
            want[(b2, e2, 0)] = want[(-e2, -b2, 1)] = k
        if memo.dual(line_project(s, ln)) != _signed([(ln, want, set())]):
            return False, f"line {ln.id}"
    return True, None


def _suite_fault_injection(s, memo):
    d = memo.dual(s)
    for name, bad_dual in _corruptions(d):
        if bad_dual == d:
            continue
        caught = any(not ok for _, ok in _pair_properties(s, bad_dual, memo))
        if not caught:
            return False, f"corruption {name} undetected"
    return True, None


SUITES = {
    "involution": _suite_involution,
    "preservation": _suite_preservation,
    "commutation": _suite_commutation,
    "roundtrip": _suite_roundtrip,
    "closed_form": _suite_closed_form,
    "ugly_reduction": _suite_ugly_reduction,
    "fault_injection": _suite_fault_injection,
}


def run_properties(stream, suites=None) -> dict:
    """Run the selected property suites over a stream of signed symmetric
    multisegments.  Machine-readable report with the first counterexample
    per suite; the suites of one state share one :class:`_StateMemo`."""
    if suites is None:
        suites = list(SUITES)
    unknown = [name for name in suites if name not in SUITES]
    if unknown:
        raise DomainError(f"unknown suites: {', '.join(unknown)}")
    report = {
        name: {"pass": True, "checked": 0, "counterexample": None}
        for name in suites
    }
    for s in stream:
        memo = _StateMemo(s)
        for name in suites:
            entry = report[name]
            if entry["counterexample"] is not None:
                continue
            entry["checked"] += 1
            ok, detail = SUITES[name](s, memo)
            if not ok:
                entry["pass"] = False
                entry["counterexample"] = str(s) + (f" [{detail}]" if detail else "")
    return {"suites": report, "pass": all(v["pass"] for v in report.values())}


# ---------------------------------------------------------------------------
# Observed statistics
# ---------------------------------------------------------------------------


def first_start_prediction(d: LanglandsData):
    """(observed, predicted) lowest beginning in the dual's symmetric form.

    The prediction is the minimum over the datum's own beginnings and the
    beginnings of its blocks' centered segments; that quantity is expected
    to be preserved by the duality.  None when the datum is empty.
    """
    s = transfer(d)
    if not s:
        return None
    observed = min(v[0] for cnt, _ in transfer(ad_data(d))._ints.values() for v in cnt)
    predicted = min(v[0] for cnt, _ in s._ints.values() for v in cnt)
    return HalfInt.from_twice(observed), HalfInt.from_twice(predicted)
