"""Enumeration counts, closed-form fixtures, inverse search, and the
property harness."""
import math
from itertools import combinations_with_replacement

import pytest

import azdual.langdata
import azdual.segments
import azdual.verify
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
    seg_dual,
)
from azdual.langdata import (
    LanglandsData,
    Multisegment,
    PhiComponent,
    SignedSymMultisegment,
    _signed,
    sign_product,
    transfer,
    validate,
)
from azdual.ad_core import ad_symm
from azdual.cli import parse_input, render_output
from azdual.derivatives import derivative
from azdual.verify import (
    _pair_properties,
    _StateMemo,
    closed_form_dual,
    closed_form_instances,
    enumerate_data,
    enumerate_symm,
    first_start_prediction,
    inverse_derivative_search,
    run_properties,
    standard_sweep,
)

G = Line("rho", GOOD, GRID_INT)
GH = Line("rho", GOOD, GRID_HALF)
B = Line("rho", BAD, GRID_INT)


def seg(b, e, ln=G):
    return Segment(ln, half(b), half(e))


def sym(pairs, minus=(), ln=G):
    return SignedSymMultisegment(
        Multisegment([seg(b, e, ln) for b, e in pairs]),
        minus=[seg(b, e, ln) for b, e in minus],
    )


def cwr(n, k):
    return math.comb(n + k - 1, k)


def window_pair_values(parity, n):
    """Independent count of dual-pair parameters: grid segments in the
    window with negative center."""
    total = 0
    for b2 in range(-2 * n, 2 * n + 1):
        if (b2 - parity) % 2:
            continue
        for e2 in range(b2, 2 * n + 1, 2):
            if b2 + e2 < 0:
                total += 1
    return total


def signed_center_combos(ncv, tmax):
    """Multisets of centered values with one sign choice per distinct value."""
    total = 0
    for t in range(tmax + 1):
        for c in combinations_with_replacement(range(ncv), t):
            total += 2 ** len(set(c))
    return total


class TestEnumeration:
    def test_sweep_counts_match_combinatorics(self):
        ncv_int = 3  # centered radii 0, 1, 2
        ncv_half = 2  # centered radii 1/2, 3/2
        pairs_int = sum(cwr(window_pair_values(0, 2), k) for k in range(4))
        pairs_half = sum(cwr(window_pair_values(1, 2), k) for k in range(4))
        want = {
            ("g", GOOD, GRID_INT): pairs_int * signed_center_combos(ncv_int, 3),
            ("gh", GOOD, GRID_HALF): pairs_half * signed_center_combos(ncv_half, 3),
            ("b", BAD, GRID_INT): pairs_int * sum(cwr(ncv_int, t) for t in range(2)),
            ("bh", BAD, GRID_HALF): pairs_half * sum(cwr(ncv_half, t) for t in range(2)),
        }
        total = 0
        for (lid, cls, grid), expect in want.items():
            got = list(enumerate_symm(Line(lid, cls, grid), 2, 3, 3))
            assert len(got) == expect
            assert len(set(got)) == expect
            total += expect
        assert len(list(standard_sweep())) == total == 6608

    def test_zero_bounds_give_only_the_empty_datum(self):
        got = list(enumerate_data(0, 0, 0, [G]))
        assert got == [LanglandsData()]
        assert not got[0]

    def test_small_exhaustive_data_count(self):
        got = list(enumerate_data(1, 1, 1, [G]))
        # independent recount: a segment slot (or none) times a signed
        # tempered block slot (or none)
        neg_values = window_pair_values(0, 1)
        block_sizes = len([a for a in (1, 2, 3) if (a - 1) % 2 == 0])
        expect = (1 + neg_values) * (1 + 2 * block_sizes)
        assert len(got) == expect == 15
        assert len({str(d) for d in got}) == expect
        for d in got:
            assert not validate(transfer(d))

    def test_sampled_is_seeded_and_valid(self):
        a = list(enumerate_data(5, 5, 3, [G, B], mode="sampled", count=40, seed=9))
        b = list(enumerate_data(5, 5, 3, [G, B], mode="sampled", count=40, seed=9))
        c = list(enumerate_data(5, 5, 3, [G, B], mode="sampled", count=40, seed=10))
        assert [str(d) for d in a] == [str(d) for d in b]
        assert [str(d) for d in a] != [str(d) for d in c]
        assert len(a) == 40
        for d in a:
            assert not validate(transfer(d))

    def test_sampled_skips_slots_with_no_room(self):
        """On a half-integral line with n = 0 no grid point and no block fits
        in [-n, n]: every slot is skipped and the data are empty."""
        for ln in (Line("gh", GOOD, GRID_HALF), Line("bh", BAD, GRID_HALF)):
            got = list(enumerate_data(0, 2, 3, [ln], mode="sampled", count=5, seed=1))
            assert got == [LanglandsData()] * 5

    def test_sampled_needs_a_count(self):
        with pytest.raises(DomainError, match="count"):
            list(enumerate_data(1, 1, 1, [G], mode="sampled"))

    def test_unknown_mode_is_refused(self):
        with pytest.raises(DomainError, match="mode"):
            list(enumerate_data(1, 1, 1, [G], mode="lazy"))

    @pytest.mark.parametrize("call, name", [
        pytest.param(lambda: enumerate_symm(G, -1, 1, 1), "n", id="symm-n"),
        pytest.param(lambda: enumerate_symm(G, 1, -1, 1), "max_pairs", id="symm-pairs"),
        pytest.param(lambda: enumerate_symm(G, 1, 1, -1), "max_centered", id="symm-centered"),
        pytest.param(lambda: enumerate_data(-1, 1, 1, [G]), "n", id="data-n"),
        pytest.param(lambda: enumerate_data(1, -1, 1, [G]), "k_m", id="data-km"),
        pytest.param(lambda: enumerate_data(1, 1, -1, [G]), "k_phi", id="data-kphi"),
        pytest.param(lambda: enumerate_data(1, 1, 1, [G], mode="sampled", count=-1, seed=0),
                     "count", id="sampled-count"),
        pytest.param(lambda: standard_sweep(-1, 1, 1), "n", id="sweep-n"),
        pytest.param(lambda: standard_sweep(1, -1, 1), "max_pairs", id="sweep-pairs"),
        pytest.param(lambda: [inverse_derivative_search(sym([(-1, 1)]), G, 1, 1, -1)],
                     "bound", id="inverse-bound"),
    ])
    def test_negative_sizes_are_refused(self, call, name):
        """As on the command line, a negative size is an error, not an
        empty window."""
        with pytest.raises(DomainError, match=f"^{name} must not be negative, got -1$"):
            list(call())


GOLDEN_TEXTS = (
    "[-3,-1]+[-2,0]+[-2,-2]+[-1,0] ; S3", "[-3,-1]@u~+[-2,-1]@u~+[-2,0]@u~ ;",
    "[-2,-2]@u~+[-1,-1]@u~+[-1,-1]~@u ; S1@u", "[-1,-1]@b! ; 2*S1@b",
    "[-3,-3] ; 3*S3+3*S5:-+2*S7", "[-2,-2]+[0,0]:-+[-1,1]+[2,2]", "[-2,1]",
)


def test_internal_states_build_no_segment(monkeypatch):
    """The sweep, the exhaustive data on every kind of line and the parsed
    goldens, DSL and JSON, are int-built: no Segment or PhiComponent is
    built and no interned Segment is looked up."""
    texts = [t for text in GOLDEN_TEXTS for t in (text, render_output(parse_input(text)))]
    made = []
    for cls in (Segment, PhiComponent):
        init = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__",
                            lambda self, init=init: made.append(type(self)) or init(self))
    lookup = azdual.segments._cached_segment
    for mod in (azdual.segments, azdual.langdata):
        monkeypatch.setattr(mod, "_cached_segment",
                            lambda *args: made.append(args) or lookup(*args))
    lines = [G, GH, B, Line("bh", BAD, GRID_HALF), Line("u", UGLY, GRID_INT)]
    assert len(list(standard_sweep())) == 6608
    assert len(list(enumerate_data(2, 2, 3, lines))) > 1000
    assert len([parse_input(t) for t in texts]) == 14
    assert made == []
    assert str(parse_input("[-2,1] ; S3")) == "[-2,1]@rho ; S3@rho:+" and made


class TestClosedForms:
    def test_zero_tower_with_parity_flip(self):
        s = sym([(0, 0), (0, 0), (-1, 1)], minus=[(-1, 1)])
        cf = closed_form_dual(s)
        assert cf == sym([(0, 0), (-1, 0), (0, 1)], minus=[(0, 0)])
        assert cf == ad_symm(s)

    def test_half_centered_singleton_opens_up(self):
        v = Segment(GH, HalfInt.from_twice(-1), HalfInt.from_twice(1))
        s = SignedSymMultisegment(Multisegment([v]))
        cf = closed_form_dual(s)
        assert cf == SignedSymMultisegment(
            Multisegment([
                Segment(GH, HalfInt.from_twice(1), HalfInt.from_twice(1)),
                Segment(GH, HalfInt.from_twice(-1), HalfInt.from_twice(-1)),
            ])
        )
        assert cf == ad_symm(s)

    def test_bad_low_family(self):
        s = sym([(0, 0), (0, 0), (-1, 0), (0, 1)], ln=B)
        cf = closed_form_dual(s)
        assert cf == sym([(0, 0)] * 4 + [(-1, -1), (1, 1)], ln=B)
        assert cf == ad_symm(s)

    def test_unrecognized_shapes_return_none(self):
        assert closed_form_dual(sym([(-3, 1), (-1, 3)])) is None
        two_lines = SignedSymMultisegment(
            Multisegment([seg(0, 0), seg(0, 0, Line("sig", GOOD, GRID_INT))])
        )
        assert closed_form_dual(two_lines) is None

    def test_families_agree_with_the_algorithm(self):
        checked = 0
        for inst in closed_form_instances(4):
            cf = closed_form_dual(inst)
            assert cf is not None, f"family member unmatched: {inst}"
            assert cf == ad_symm(inst), f"closed form disagrees on {inst}"
            checked += 1
        assert checked > 2000


class TestInverseSearch:
    def test_order_zero_returns_the_target(self):
        t = sym([(-1, 1)])
        assert inverse_derivative_search(t, G, half(-2), 0, 2) == t

    def test_recovers_the_suppressed_pair(self):
        t = sym([(-1, 1)])
        got = inverse_derivative_search(t, G, half(-2), 1, 2)
        assert got == sym([(-2, -2), (2, 2), (-1, 1)])

    def test_absent_preimage_is_none(self):
        t = sym([(1, 1), (-1, -1)])
        assert inverse_derivative_search(t, G, half(1), 1, 1) is None

    def test_negative_order_is_refused(self):
        with pytest.raises(DomainError, match="nonnegative"):
            inverse_derivative_search(sym([(0, 0)]), G, half(1), -1, 1)

    @pytest.mark.parametrize("ln, x, match", [
        (G, 0, "x != 0"),
        (G, half("1/2"), "off the integral grid"),
        (B, 1, "conflicting declarations for line 'rho'"),
    ], ids=["zero", "off-grid", "conflicting-line"])
    def test_edge_checks_of_the_derivative(self, ln, x, match):
        with pytest.raises(DomainError, match=match):
            inverse_derivative_search(sym([(-1, 1)]), ln, x, 1, 1)

    @pytest.mark.parametrize("ln, cases", [
        (G, 86), (Line("bh", BAD, GRID_HALF), 8), (Line("u", UGLY, GRID_INT), 22),
    ], ids=["good-integral", "bad-half", "mirror"])
    def test_recovers_every_derived_state(self, ln, cases):
        """Every state of a small window on a good, a bad and a mirror line
        is the preimage found for each of its nonzero twist derivatives."""
        for s in enumerate_symm(ln, 1, 2, 2):
            emax2 = s.max_end().twice if s else 0
            for x2 in range(-emax2, emax2 + 1, 2):
                if x2 == 0:
                    continue
                x = HalfInt.from_twice(x2)
                res = derivative(s, ln, x)
                if res.k:
                    assert inverse_derivative_search(res.result, ln, x, res.k, 1) == s
                    cases -= 1
        assert cases == 0


class TestPropertyHarness:
    def test_all_suites_pass_on_a_small_window(self):
        states = list(enumerate_symm(G, 1, 2, 2))
        report = run_properties(iter(states))
        assert report["pass"] is True
        for entry in report["suites"].values():
            assert entry["pass"] is True
            assert entry["checked"] == len(states)
            assert entry["counterexample"] is None

    def test_suites_share_one_dual_per_state(self, monkeypatch):
        s = sym([(-2, 0), (0, 2), (0, 0)], minus=[(0, 0)])
        d = ad_symm(s)
        assert d != s
        seen = []

        def counting(x):
            seen.append(x)
            return ad_symm(x)

        monkeypatch.setattr(azdual.verify, "ad_symm", counting)
        assert run_properties([s])["pass"] is True
        assert seen.count(s) == 1 and seen.count(d) == 1
        seen.clear()
        assert run_properties([s], suites=["roundtrip"])["pass"] is True
        assert seen == []

    def test_suite_selection_is_respected(self):
        report = run_properties([sym([(0, 0)])], suites=["involution"])
        assert list(report["suites"]) == ["involution"]

    def test_unknown_suite_is_refused(self):
        with pytest.raises(DomainError, match="unknown suites"):
            run_properties([], suites=["nope"])

    def test_ugly_reduction_catches_a_wrong_mirror_line_dual(self, monkeypatch):
        """On the mirror-line window of C7 with at most two side-0 segments,
        the suite passes, and fails when the dual is the identity."""
        u = Line("rho", UGLY, GRID_INT)
        base = [Segment(u, half(b), half(e), 0) for b in range(-3, 4) for e in range(b, 4)]
        states = [SignedSymMultisegment([*combo, *map(seg_dual, combo)])
                  for k in range(3) for combo in combinations_with_replacement(base, k)]
        assert run_properties(states, suites=["ugly_reduction"])["pass"] is True
        monkeypatch.setattr(azdual.verify, "ad_symm", lambda s: s)
        entry = run_properties(states, suites=["ugly_reduction"])["suites"]["ugly_reduction"]
        assert entry["pass"] is False
        assert entry["counterexample"].endswith(" [line rho]")

    def test_sign_corruption_shows_in_the_sign_product(self):
        s = sym([(0, 0)])
        d = ad_symm(s)
        corrupt = SignedSymMultisegment(d.m, minus=set(d.minus) ^ {seg(0, 0)})
        assert not validate(corrupt)
        assert sign_product(s, G) == sign_product(d, G)
        assert sign_product(s, G) != sign_product(corrupt, G)

    def test_membership_fails_for_a_dual_with_a_sign_on_a_non_centered_value(self):
        """A claimed dual that carries a stray -1 on a non-centered value is
        not in the symmetric class, though its str does not show the sign."""
        s = sym([(-1, 0), (0, 1)])
        d = ad_symm(s)
        cnt, minus = d._ints[G]
        v = min(v for v in cnt if v[0] + v[1])
        stray = _signed([(G, cnt, minus | {v})])
        assert str(stray) == str(d) and stray != d
        assert next(_pair_properties(s, stray, _StateMemo(s))) == ("membership", False)


class TestFirstStart:
    def test_walkthrough_prediction_is_exact(self):
        d = LanglandsData(
            Multisegment([seg(-3, -1), seg(-2, 0), seg(-2, -2), seg(-1, 0)]),
            (PhiComponent(G, 3),),
        )
        obs, pred = first_start_prediction(d)
        assert obs == pred == half(-3)

    def test_empty_datum_has_no_prediction(self):
        assert first_start_prediction(LanglandsData()) is None

