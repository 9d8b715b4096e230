"""Twist and zero-chunk derivative behavior, plus the greedy matching core."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import azdual.derivatives
import azdual.langdata
from azdual.segments import (
    BAD,
    GOOD,
    GRID_HALF,
    GRID_INT,
    UGLY,
    DomainError,
    HalfInt,
    Line,
    Segment,
    half,
)
from azdual.langdata import Multisegment, SignedSymMultisegment, sign_product, validate
from azdual.derivatives import (
    best_matching,
    derivative,
    derivative_L,
    reduced_report,
)
from azdual.ad_core import ad_symm
from azdual.verify import enumerate_symm, standard_sweep

G = Line("rho", GOOD, GRID_INT)
GH = Line("rho", GOOD, GRID_HALF)
B = Line("rho", BAD, GRID_INT)
U = Line("rho", UGLY, GRID_INT)


def seg(b, e, ln=G, side=None):
    if side is None and ln.cls == UGLY:
        side = 0
    return Segment(ln, half(b), half(e), side=side)


def sym(pairs, minus=(), ln=G, sides=None):
    sides = sides or [None] * len(pairs)
    m = Multisegment([seg(b, e, ln, sd) for (b, e), sd in zip(pairs, sides)])
    return SignedSymMultisegment(m, minus=[seg(b, e, ln) for b, e in minus])


def prod_le(y, x):
    return x[0] <= y[0] and x[1] <= y[1]


def max_matching_size(r):
    """Brute-force maximum matching via augmenting paths."""
    ny = len(r[0]) if r else 0
    match_y = [None] * ny

    def augment(i, seen):
        for j in range(ny):
            if r[i][j] and j not in seen:
                seen.add(j)
                if match_y[j] is None or augment(match_y[j], seen):
                    match_y[j] = i
                    return True
        return False

    return sum(1 for i in range(len(r)) if augment(i, set()))


def staircase_violated(r):
    """The staircase condition's violation by its definition, four nested
    loops over rows x2 <= x1 and columns y2 <= y1 of the bool matrix r."""
    return any(r[i1][j1] and r[i1][j2] and r[i2][j2] and not r[i2][j1]
               for i1 in range(len(r)) for i2 in range(i1 + 1)
               for j1 in range(len(r[i1])) for j2 in range(j1 + 1))


class TestBestMatching:
    def test_no_sources(self):
        r = best_matching([], [(0, 2), (2, 2)], prod_le)
        assert r.f == () and r.x0 == ()
        assert r.yc == ((0, 2), (2, 2))

    def test_takes_smallest_eligible_target(self):
        r = best_matching([(1, 1)], [(0, 2), (2, 2)], prod_le)
        assert r.f == (((1, 1), (2, 2)),)
        assert r.yc == ((0, 2),)
        assert r.y0 == ((2, 2),)

    def test_short_targets_leave_the_smaller_source_out(self):
        r = best_matching([1, 2], [7], lambda y, x: True)
        assert r.x0 == (2,)
        assert r.xc == (1,)
        assert r.yc == ()

    def test_staircase_violation_is_an_error(self):
        rel = lambda y, x: not (x == 1 and y == 20)
        with pytest.raises(DomainError, match="staircase"):
            best_matching([1, 2], [10, 20], rel)

    def test_drop_bars_one_edge_without_the_staircase_check(self):
        xs = [("I", 0), ("I", 1)]
        ys = [("J", 0), ("J", 1)]
        r = best_matching(xs, ys, lambda y, x: True, drop=(("J", 1), ("I", 0)))
        assert r.x0 == (("I", 1),)
        assert r.xc == (("I", 0),)
        assert r.yc == (("J", 1),)
        # encoding the same hole in the relation itself is rejected
        rel = lambda y, x: not (y == ("J", 1) and x == ("I", 0))
        with pytest.raises(DomainError, match="staircase"):
            best_matching(xs, ys, rel)

    def test_staircase_check_matches_the_loop_form(self):
        """The bitmask check raises exactly on the relations that the four
        nested loops find a violation in, with the same error."""
        rng = random.Random(5)
        violated = 0
        for _ in range(5000):
            nx, ny = rng.randint(0, 5), rng.randint(0, 5)
            p = rng.random()
            r = [[rng.random() < p for _ in range(ny)] for _ in range(nx)]
            rel = lambda y, x: r[x][y]
            if staircase_violated(r):
                violated += 1
                with pytest.raises(DomainError) as info:
                    best_matching(range(nx), range(ny), rel)
                assert str(info.value) == "matching relation violates the staircase condition"
            else:
                best_matching(range(nx), range(ny), rel)
        assert 500 < violated < 4500

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_count_kernel_agrees_with_the_per_copy_matching(self, data):
        """_unprotected's merge over distinct beginnings leaves the targets
        that best_matching leaves on the per-copy lists, ordered by
        beginning, where it matches by ``x[0] < y[0]``: a relation that
        passes the staircase check on such lists."""
        x2 = data.draw(st.sampled_from([-2, 1, 2, 3, 4]), label="x2")
        mult = st.integers(1, 300)
        begins = st.integers(-3, 3).map(lambda b: 2 * b + x2 % 2)
        ys = data.draw(st.dictionaries(begins.filter(lambda b2: b2 <= x2), mult, max_size=2))
        xs = data.draw(st.dictionaries(begins.filter(lambda b2: b2 <= x2 - 2), mult, max_size=2))
        kind = data.draw(st.sampled_from(["plain", "star", "drop"]))
        star = kind == "star" and x2 > 0
        drop = kind == "drop" and x2 > 0
        if star:
            ys[-x2] = data.draw(mult)
        if drop:
            # the symmetric counts _derive_line fires drop on: toff odd
            # copies of [-x, x-1] and as many of its dual [-x+1, x]
            ys[-x2 + 2] = xs[-x2] = data.draw(mult.filter(lambda t: t % 2))
        cnt = {(b2, x2): k for b2, k in ys.items()}
        cnt.update({(b2, x2 - 2): k for b2, k in xs.items()})

        def copies(e2):
            return [(v[0], i) for v in sorted(cnt) if v[1] == e2 for i in range(cnt[v])]

        targets, sources = copies(x2), copies(x2 - 2)
        if star:
            targets.remove((-x2, 0))
            sources = [c for c in sources if c != (-x2 + 2, 0)]
        toff = xs.get(-x2, 0)
        barred = ((-x2 + 2, toff - 1), (-x2, 0)) if drop else None
        r = best_matching(sources, targets, lambda y, x: x[0] < y[0], drop=barred)
        left: dict = {}
        for b2, _ in r.yc:
            left[(b2, x2)] = left.get((b2, x2), 0) + 1
        got = azdual.derivatives._unprotected(cnt, x2, (), star=star, drop=drop)
        assert list(got.items()) == list(left.items())

    def test_matches_brute_force_maximum(self):
        rng = random.Random(11)
        accepted = 0
        for _ in range(500):
            xs = sorted(
                (b, b + rng.randint(0, 3))
                for b in (rng.randint(-3, 3) for _ in range(rng.randint(0, 8)))
            )
            ys = sorted(
                (b, b + rng.randint(0, 3))
                for b in (rng.randint(-3, 3) for _ in range(rng.randint(0, 8)))
            )
            try:
                r = best_matching(xs, ys, prod_le)
            except DomainError:
                continue
            accepted += 1
            grid = [[prod_le(y, x) for y in ys] for x in xs]
            assert len(r.x0) == max_matching_size(grid)
            assert len(r.x0) + len(r.xc) == len(xs)
            assert len(r.y0) + len(r.yc) == len(ys)
        assert accepted >= 150


pair_st = st.tuples(st.integers(-3, 0), st.integers(0, 3)).map(
    lambda t: (t[0], t[0] + t[1])
)
x_st = st.integers(-3, 3).filter(lambda v: v != 0)


def symmetrized(pairs, centers, ln=G, minus=()):
    segs = []
    for b, e in pairs:
        segs.append(seg(b, e, ln))
        segs.append(seg(-e, -b, ln))
    for c in centers:
        segs.append(seg(-c, c, ln))
    return SignedSymMultisegment(
        Multisegment(segs), minus=[seg(-c, c, ln) for c in minus]
    )


class TestTwist:
    def test_nothing_ends_above(self):
        s = sym([(0, 0)] * 3)
        r = derivative(s, G, half(1))
        assert r.k == 0 and r.result == s

    def test_plain_pair_removal(self):
        s = sym([(-2, -2), (2, 2), (-1, 1)])
        r = derivative(s, G, half(-2))
        assert r.result == sym([(-1, 1)]) and r.k == 1

    def test_centered_retreat_with_sign_transfer(self):
        s = sym([(0, 0), (-1, 1), (-2, 2)], minus=[(0, 0)])
        r = derivative(s, G, half(2))
        assert r.result == sym([(0, 0), (-1, 1), (-1, 1)], minus=[(0, 0)])
        assert r.k == 1
        assert r.result.eps(seg(-1, 1)) == 1

    def test_zero_twist_is_refused(self):
        with pytest.raises(DomainError, match="x != 0"):
            derivative(sym([(0, 0)]), G, half(0))

    def test_off_grid_twist_is_refused(self):
        with pytest.raises(DomainError, match="off the"):
            derivative(sym([(0, 0)]), G, HalfInt.from_twice(1))

    def test_half_grid_convention_at_one_half(self):
        x = HalfInt.from_twice(1)
        v = Segment(GH, HalfInt.from_twice(-1), HalfInt.from_twice(1))
        plus = SignedSymMultisegment(Multisegment([v]))
        r = derivative(plus, GH, x)
        assert r.k == 1 and not r.result.m
        minus = SignedSymMultisegment(Multisegment([v]), minus=[v])
        r = derivative(minus, GH, x)
        assert r.k == 0 and r.result == minus

    def test_ugly_side_zero_end_removal(self):
        s = sym([(0, 1), (-1, 0)], ln=U, sides=[0, 1])
        r = derivative(s, U, half(1))
        assert r.result == sym([(0, 0), (0, 0)], ln=U, sides=[0, 1])
        assert r.k == 1

    def test_forbidden_mirror_edge_on_odd_boundary_count(self):
        # three copies of each boundary value: one protection edge is barred,
        # so exactly one copy retreats
        d = sym([(2, 2)] * 3 + [(0, 1)] * 3 + [(-1, 0)] * 3 + [(-2, -2)] * 3, ln=B)
        r = derivative(d, B, half(1))
        want = sym(
            [(2, 2)] * 3 + [(0, 1)] * 2 + [(-1, 0)] * 2 + [(-2, -2)] * 3
            + [(0, 0)] * 2,
            ln=B,
        )
        assert r.result == want and r.k == 1

    def test_odd_boundary_state_commutes_with_duality(self):
        s = sym(
            [(1, 2), (0, 0), (0, 0), (0, 2), (0, 2), (-2, -1), (-2, 0), (-2, 0)],
            ln=B,
        )
        d = ad_symm(s)
        for x in (1, 2, -1, -2):
            a = derivative(s, B, half(x))
            b = derivative(d, B, half(-x))
            assert a.k == b.k
            assert ad_symm(a.result) == b.result

    def test_input_order_does_not_matter(self):
        pairs = [(2, 2)] * 3 + [(0, 1)] * 3 + [(-1, 0)] * 3 + [(-2, -2)] * 3
        rng = random.Random(3)
        base = derivative(sym(pairs, ln=B), B, half(1))
        for _ in range(5):
            rng.shuffle(pairs)
            again = derivative(sym(pairs, ln=B), B, half(1))
            assert again.result == base.result and again.k == base.k

    @given(
        pairs=st.lists(pair_st, max_size=4),
        centers=st.lists(st.integers(0, 2), max_size=2),
        neg=st.booleans(),
        x=x_st,
    )
    @settings(max_examples=120, deadline=None)
    def test_good_line_degree_and_idempotence(self, pairs, centers, neg, x):
        minus = [centers[0]] if (neg and centers) else []
        s = symmetrized(pairs, centers, minus=minus)
        r = derivative(s, G, half(x))
        assert not validate(r.result)
        assert s.degree - r.result.degree == 2 * r.k
        assert derivative(r.result, G, half(x)).k == 0
        dual = derivative(ad_symm(s), G, half(-x))
        assert dual.k == r.k and ad_symm(r.result) == dual.result

    @given(
        pairs=st.lists(pair_st, max_size=4),
        centers=st.lists(st.integers(0, 2), max_size=2),
        x=x_st,
    )
    @settings(max_examples=120, deadline=None)
    def test_bad_line_degree_and_idempotence(self, pairs, centers, x):
        # centered values need even multiplicity here
        s = symmetrized(pairs, centers + centers, ln=B)
        r = derivative(s, B, half(x))
        assert not validate(r.result)
        assert s.degree - r.result.degree == 2 * r.k
        assert derivative(r.result, B, half(x)).k == 0
        dual = derivative(ad_symm(s), B, half(-x))
        assert dual.k == r.k and ad_symm(r.result) == dual.result

    def test_injective_at_fixed_order(self):
        for ln in (G, B):
            states = list(enumerate_symm(ln, 2, max_pairs=2, max_centered=2))
            for x in (-2, -1, 1, 2):
                seen = {}
                for s in states:
                    r = derivative(s, ln, half(x))
                    if r.k == 0:
                        continue
                    key = (r.result, r.k)
                    assert seen.setdefault(key, s) == s, (
                        f"two preimages at x={x}: {seen[key]} and {s}"
                    )


class TestSumRule:
    """Adding a symmetric pair far from the twist leaves the derivative alone;
    near it, the pair either derives independently or protects one copy."""

    def test_disjoint_ends_pass_through(self):
        extra = [(-3, 0), (0, 3)]
        core = [(-2, 0), (0, 2)]
        r = derivative(sym(extra + core), G, half(2))
        assert r.result == sym(extra + [(-1, 0), (0, 1)])
        assert r.k == derivative(sym(core), G, half(2)).k == 1

    def test_unprotectable_source_derives_independently(self):
        extra = [(-3, 1), (-1, 3)]
        core = [(0, 0), (0, 0)]
        r = derivative(sym(extra + core), G, half(1))
        assert r.result == sym([(-3, 0), (0, 3)] + core)
        d1 = derivative(sym(extra), G, half(1))
        d2 = derivative(sym(core), G, half(1))
        assert r.k == d1.k + d2.k == 1
        assert d1.result == sym([(-3, 0), (0, 3)])

    def test_wide_protector_absorbs_one_copy(self):
        extra = [(-4, 0), (0, 4)]
        core = [(-1, 1), (0, 0)]
        assert derivative(sym(core), G, half(1)).k == 1
        r = derivative(sym(extra + core), G, half(1))
        assert r.k == 0 and r.result == sym(extra + core)

    def test_wide_protector_lowers_the_order_by_one(self):
        extra = [(-4, 0), (0, 4)]
        core = [(-1, 1), (-1, 1), (0, 0)]
        assert derivative(sym(core), G, half(1)).k == 2
        r = derivative(sym(extra + core), G, half(1))
        assert r.k == 1
        assert r.result == sym(extra + [(-1, 1), (0, 0), (0, 0)])


class TestZeroChunk:
    def test_retreat_by_a_full_chunk(self):
        r = derivative_L(sym([(-3, 0), (0, 3)]), G)
        assert r.result == sym([(-3, -2), (2, 3)]) and r.k == 1

    def test_matched_chunk_pair_suppressed(self):
        r = derivative_L(sym([(-1, 0), (0, 1)]), G)
        assert not r.result.m and r.k == 1

    def test_untouched_when_nothing_meets_origin(self):
        s = sym([(-2, 2)])
        r = derivative_L(s, G)
        assert r.k == 0 and r.result == s

    def test_needs_good_or_bad_line(self):
        s = sym([(0, 1), (-1, 0)], ln=U, sides=[0, 1])
        with pytest.raises(DomainError, match="good or bad"):
            derivative_L(s, U)

    def test_needs_integral_grid(self):
        v = Segment(GH, HalfInt.from_twice(-1), HalfInt.from_twice(1))
        s = SignedSymMultisegment(Multisegment([v]))
        with pytest.raises(DomainError, match="integral grid"):
            derivative_L(s, GH)

    def test_negative_twists_must_vanish_first(self):
        with pytest.raises(DomainError, match="not reduced at -1"):
            derivative_L(sym([(-3, -1), (1, 3)]), G)

    def test_suppression_shortfall_is_refused(self):
        with pytest.raises(DomainError, match="suppression needs"):
            derivative_L(sym([(1, 1), (-1, -1)]), G)


class TestReducedReport:
    def test_chunk_pair_is_seen_only_by_the_zero_chunk(self):
        rep = reduced_report(sym([(-1, 0), (0, 1)]))
        assert rep == {
            "rho": {
                "orders": {"-1": 0, "1": 0},
                "x_reduced": True,
                "zero_chunk_order": 1,
                "reduced": False,
            },
            "reduced": False,
        }

    def test_unprotected_point_pair(self):
        rep = reduced_report(sym([(1, 1), (-1, -1)]))
        assert rep["rho"]["orders"]["1"] == 1
        assert rep["rho"]["x_reduced"] is False
        assert rep["rho"]["zero_chunk_order"] is None
        assert rep["reduced"] is False

    def test_alternating_nested_family_is_reduced(self):
        fam = sym([(0, 0), (0, 0), (-1, 1), (-2, 2)], minus=[(-1, 1)])
        rep = reduced_report(fam)
        assert rep["reduced"] is True
        assert rep["rho"]["zero_chunk_order"] == 0

    def test_each_derivative_is_computed_once(self, monkeypatch):
        """The zero-chunk order reuses the twist orders the report already
        has instead of recomputing the negative ones."""
        calls = []
        real = azdual.derivatives._derive_line

        def counting(ln, cnt, minus, x2):
            calls.append((ln, x2))
            return real(ln, cnt, minus, x2)

        monkeypatch.setattr(azdual.derivatives, "_derive_line", counting)
        states = [sym([(-2, 0), (0, 2)]), sym([(-3, -1), (1, 3), (0, 0)])]
        states += list(enumerate_symm(B, 2, 2, 2))
        total = 0
        for s in states:
            calls.clear()
            reduced_report(s)
            assert len(calls) == len(set(calls))
            total += len(calls)
        assert total > 0

    def test_reduced_report_builds_no_result(self, monkeypatch):
        """The report needs only the orders: over the 6608-state sweep it
        builds no derived multisegment."""
        built = []
        for module in (azdual.langdata, azdual.derivatives):
            monkeypatch.setattr(module, "_signed",
                                lambda parts, real=module._signed: built.append(1)
                                or real(parts))
        for s in standard_sweep(2, 3, 3):
            reduced_report(s)
        assert built == []


PLAIN = Multisegment([seg(-1, 0), seg(0, 1)])
ELSEWHERE = Multisegment([seg(-1, 0, Line("sig", GOOD, GRID_INT))])


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: derivative(PLAIN, G, 1), "SignedSymMultisegment, got Multisegment",
                 id="derivative-holds-line"),
    pytest.param(lambda: derivative(ELSEWHERE, G, 1), "SignedSymMultisegment, got Multisegment",
                 id="derivative-lacks-line"),
    pytest.param(lambda: derivative_L(ELSEWHERE, G), "SignedSymMultisegment, got Multisegment",
                 id="derivative_L"),
    pytest.param(lambda: reduced_report(PLAIN), "SignedSymMultisegment, got Multisegment",
                 id="reduced_report"),
    pytest.param(lambda: sign_product(ELSEWHERE, G), "SignedSymMultisegment, got Multisegment",
                 id="sign_product"),
    pytest.param(lambda: derivative(sym([(0, 0)]), "rho", 1), "Line, got str",
                 id="derivative-line"),
    pytest.param(lambda: derivative_L(sym([(0, 0)]), "rho"), "Line, got str",
                 id="derivative_L-line"),
])
def test_derivatives_refuse_the_wrong_kind(call, message):
    """A plain multisegment is refused, not read as a state that lacks the
    line and answered for with order 0 or sign +1."""
    with pytest.raises(TypeError) as info:
        call()
    assert str(info.value) == f"expected a {message}"
