from enum import IntEnum

import pytest
from hypothesis import given, settings, strategies as st

import azdual.langdata

from azdual.segments import (
    BAD,
    GOOD,
    GRID_HALF,
    GRID_INT,
    UGLY,
    DomainError,
    half,
    line,
    seg,
)
from azdual.langdata import (
    LabeledSeg,
    LanglandsData,
    Multisegment,
    PhiComponent,
    SignedSymMultisegment,
    _datum,
    _plain,
    _section,
    _signed,
    line_project,
    plus_product,
    require_valid,
    sign_product,
    transfer,
    untransfer,
    validate,
)
from azdual.ad_core import ad_initial_sequence, ad_step, ad_symm
from azdual.derivatives import derivative, derivative_L, reduced_report
from azdual.mw_gl import kz_capacity_labeled, mw_transpose
from azdual.verify import enumerate_symm, standard_sweep

GI = line("rho", GOOD, GRID_INT)
GH = line("sig", GOOD, GRID_HALF)
BI = line("chi", BAD, GRID_INT)
BH = line("phi", BAD, GRID_HALF)
UG = line("tau", UGLY, GRID_INT)


def sym(*pairs, minus=()):
    """Symmetric multisegment from (b, e) pairs on GI plus their duals."""
    entries = []
    for b, e in pairs:
        entries.append(seg(GI, b, e))
        if b + e != 0:
            entries.append(seg(GI, -e, -b))
    return SignedSymMultisegment(
        Multisegment(entries), minus={seg(GI, b, e) for b, e in minus}
    )


class TestMultisegment:
    def test_canonical_order_and_str(self):
        m = Multisegment([seg(GI, -1, 1), seg(GI, 0, 2), seg(GI, 0, 1)])
        assert str(m) == "[0,1]@rho+[0,2]@rho+[-1,1]@rho"
        assert str(Multisegment([])) == "0"

    def test_rejects_empty_segments(self):
        with pytest.raises(DomainError):
            Multisegment([seg(GI, 1, 0)])
        with pytest.raises(DomainError, match=r"^empty segment \[3,2\]@rho cannot join"):
            Multisegment([seg(GI, 0, 1), seg(GI, 1, 0), seg(GI, 3, 2)])

    def test_holds_the_int_form_and_builds_entries_on_read(self):
        segs = [seg(UG, 0, 1, 1), seg(GI, -1, 1), seg(UG, -2, 0, 0), seg(GI, 0, 2),
                seg(GI, -1, 1), seg(UG, 0, 1, 1)]
        m = Multisegment(segs)
        held = _plain({GI: {(0, 4): 1, (-2, 2): 2}, UG: {(0, 2, 1): 2, (-4, 0, 0): 1}})
        assert m._entries is None
        assert m._ints == held._ints and m == held and hash(m) == hash(held)
        assert m and m.degree == held.degree and m._entries is None
        assert str(m) == str(held) == "[0,2]@rho+[-1,1]@rho+[-1,1]@rho+[-2,0]@tau+[0,1]@tau~+[0,1]@tau~"
        assert m._entries == held.entries

    @pytest.mark.parametrize("entry", [1, "[0,1]"])
    def test_rejects_entries_that_are_not_segments(self, entry):
        with pytest.raises(TypeError, match="is not a Segment"):
            Multisegment([seg(GI, 0, 1), entry])

    def test_add_sub(self):
        a = Multisegment([seg(GI, 0, 1)])
        b = Multisegment([seg(GI, 0, 1), seg(GI, -1, 1)])
        assert a + Multisegment([seg(GI, -1, 1)]) == b

    def test_add_counts_the_two_forms_without_building_entries(self):
        left = [seg(GI, -1, 1), seg(UG, 0, 1, 1), seg(GI, 0, 2)]
        right = [seg(GI, -1, 1), seg(BI, 0, 0), seg(UG, -2, 0, 0), seg(UG, 0, 1, 1)]
        a, b = Multisegment(left), Multisegment(right)
        total = a + b
        assert a._entries is None and b._entries is None
        assert total._ints == Multisegment(left + right)._ints
        assert all(total._ints[ln] is not cnt for m in (a, b) for ln, cnt in m._ints.items())
        assert a == Multisegment(left) and b == Multisegment(right)

    def test_degree(self):
        assert Multisegment([seg(GI, -2, 2), seg(GI, 0, 1)]).degree == 7

    def test_restrict(self):
        m = Multisegment([seg(GI, 0, 1), seg(BI, 0, 0)])
        assert m.restrict(GI) == Multisegment([seg(GI, 0, 1)])
        assert m.lines() == [BI, GI]


class TestSignedSym:
    def test_eps_defaults(self):
        s = sym((0, 0), (-1, 1), minus=[(-1, 1)])
        assert s.eps(seg(GI, 0, 0)) == 1
        assert s.eps(seg(GI, -1, 1)) == -1

    def test_minus_needs_centered(self):
        with pytest.raises(DomainError):
            SignedSymMultisegment(
                Multisegment([seg(GI, 0, 1), seg(GI, -1, 0)]),
                minus={seg(GI, 0, 1)},
            )

    def test_str_shows_signs(self):
        s = sym((0, 0), minus=[(0, 0)])
        assert str(s) == "[0,0]@rho:-"

    def test_degree_and_max_end(self):
        s = sym((-2, 1), (0, 0))
        assert s.degree == 9
        assert s.max_end() == half(2)


class TestValidate:
    def test_asymmetric_flagged(self):
        s = SignedSymMultisegment(Multisegment([seg(GI, 0, 1)]))
        assert any("symmetry" in r for r in validate(s))
        with pytest.raises(DomainError):
            require_valid(s)

    def test_plain_multisegment_needs_no_symmetry(self):
        assert validate(Multisegment([seg(GI, 0, 1)])) == []

    def test_bad_centered_parity(self):
        s = SignedSymMultisegment(Multisegment([seg(BI, 0, 0)]))
        assert any("multiplicity" in r for r in validate(s))
        ok = SignedSymMultisegment(Multisegment([seg(BI, 0, 0)] * 2))
        assert validate(ok) == []

    def test_minus_must_be_present_and_good(self):
        s = SignedSymMultisegment(
            Multisegment([seg(GI, 0, 0)]), minus={seg(GI, -1, 1)}
        )
        assert validate(s)
        t = SignedSymMultisegment(
            Multisegment([seg(BI, 0, 0)] * 2), minus={seg(BI, 0, 0)}
        )
        assert any("good" in r for r in validate(t))

    def test_minus_must_be_centered(self):
        """The constructor refuses a sign on a non-centered segment, naming
        the first in canonical order; an int-built state can hold one, and validate reports it with the same
        text, among the sign violations, in canonical order."""
        with pytest.raises(DomainError, match="sign attached to non-centered"):
            SignedSymMultisegment(Multisegment([seg(GI, -1, 0), seg(GI, 0, 1)]),
                                  minus={seg(GI, -1, 0)})
        with pytest.raises(DomainError, match=r"non-centered segment \[0,1\]@rho$"):
            SignedSymMultisegment(Multisegment([seg(GI, -1, 0), seg(GI, 0, 1)]),
                                  minus={seg(GI, -1, 0), seg(GI, 0, 1)})
        s = _signed([(GI, {(-2, 0): 1, (0, 2): 1}, {(-2, 0)})])
        assert validate(s) == ["sign attached to non-centered segment [-1,0]@rho"]
        s = _signed([(GI, {(-2, 0): 1, (0, 2): 1, (0, 4): 1}, {(0, 2), (-2, 0), (-4, 4)})])
        assert validate(s) == [
            "symmetry violation at [0,2]@rho",
            "sign attached to non-centered segment [0,1]@rho",
            "sign attached to non-centered segment [-1,0]@rho",
            "sign attached to absent segment [-2,2]@rho",
        ]

    def test_data_centers_negative(self):
        d = LanglandsData(Multisegment([seg(GI, 0, 1)]), [])
        assert validate(d)
        d = LanglandsData(Multisegment([seg(GI, -2, 1)]), [])
        assert validate(d) == []

    def test_data_bad_blocks_doubled(self):
        d = LanglandsData(Multisegment([]), [PhiComponent(BI, 1)])
        assert validate(d)
        d = LanglandsData(Multisegment([]), [PhiComponent(BI, 1)] * 2)
        assert validate(d) == []

    def test_a_valid_object_is_checked_once(self, monkeypatch):
        orig = azdual.langdata._dual
        calls = []
        monkeypatch.setattr(azdual.langdata, "_dual",
                            lambda v: calls.append(v) or orig(v))
        good = sym((-2, 0), (0, 0))
        bad = SignedSymMultisegment(good.m + Multisegment([seg(GI, 0, 1)]))
        assert validate(good) == [] and calls
        calls.clear()
        assert validate(good) == [] and require_valid(good) is None
        assert calls == []
        for _ in range(2):  # an invalid object is checked in full every time
            assert validate(bad) and calls
            calls.clear()
        fresh = SignedSymMultisegment(good.m, minus=good.minus)
        assert validate(fresh) == [] and calls

    def test_line_conflicts(self):
        other = line("rho", BAD, GRID_INT)
        m = Multisegment([seg(GI, 0, 1), seg(other, 0, 0), seg(other, 0, 0)])
        assert any("conflict" in r.lower() for r in validate(m))


class TestPhi:
    def test_parity_matches_grid(self):
        PhiComponent(GI, 3)
        with pytest.raises(DomainError):
            PhiComponent(GI, 2)
        PhiComponent(GH, 2)
        with pytest.raises(DomainError):
            PhiComponent(GH, 3)
        with pytest.raises(DomainError):
            PhiComponent(GI, 0)

    @pytest.mark.parametrize("a", [True, IntEnum("Size", "ONE TWO THREE").THREE],
                             ids=["bool", "int-enum"])
    def test_block_size_is_an_int_exactly(self, a):
        with pytest.raises(DomainError, match=f"^block size must be a positive int, got {a!r}$"):
            PhiComponent(GI, a)


class TestTransfer:
    def test_simple_datum(self):
        d = LanglandsData(
            Multisegment([seg(GI, -2, 1)]),
            [PhiComponent(GI, 3), PhiComponent(GI, 5)],
            eta_minus={PhiComponent(GI, 5)},
        )
        s = transfer(d)
        assert s.m == Multisegment(
            [seg(GI, -2, 1), seg(GI, -1, 2), seg(GI, -1, 1), seg(GI, -2, 2)]
        )
        assert s.eps(seg(GI, -1, 1)) == 1
        assert s.eps(seg(GI, -2, 2)) == -1
        assert untransfer(s) == d

    def test_ugly_blocks_take_both_sides(self):
        d = LanglandsData(Multisegment([]), [PhiComponent(UG, 3)])
        s = transfer(d)
        assert s.m == Multisegment([seg(UG, -1, 1, side=0), seg(UG, -1, 1, side=1)])
        assert untransfer(s) == d

    def test_duplicate_block_eta_collapses(self):
        p = PhiComponent(GI, 3)
        d = LanglandsData(Multisegment([]), [p, p])
        s = transfer(d)
        assert list(s.m).count(seg(GI, -1, 1)) == 2
        assert untransfer(s) == d

    def test_transfer_requires_validity(self):
        with pytest.raises(DomainError):
            transfer(LanglandsData(Multisegment([seg(GI, 0, 1)]), []))


def _h(t):
    from azdual.segments import HalfInt

    return HalfInt.from_twice(t)


@st.composite
def data_st(draw):
    ln = draw(st.sampled_from([GI, GH, BI, BH, UG]))
    par = 0 if ln.grid == GRID_INT else 1
    entries = []
    for _ in range(draw(st.integers(0, 3))):
        e2 = draw(st.integers(-4, 4).filter(lambda t: t % 2 == par))
        b2 = draw(st.integers(-8, min(e2, -e2 - 2)).filter(lambda t: t % 2 == par))
        side = draw(st.sampled_from([0, 1])) if ln.cls == UGLY else None
        entries.append(seg(ln, _h(b2), _h(e2), side))
    ks = draw(st.integers(0, 2))
    blocks = []
    for _ in range(ks):
        a = draw(st.integers(1, 7).filter(lambda a: (a - 1) % 2 == par))
        blocks.append(PhiComponent(ln, a))
        if ln.cls == BAD:
            blocks.append(PhiComponent(ln, a))
    eta_minus = set()
    if ln.cls == GOOD:
        for p in set(blocks):
            if draw(st.booleans()):
                eta_minus.add(p)
    return LanglandsData(Multisegment(entries), blocks, eta_minus=eta_minus)


class TestTransferRoundtrip:
    @given(data_st())
    @settings(max_examples=120, deadline=None)
    def test_untransfer_inverts(self, d):
        assert untransfer(transfer(d)) == d

    @given(data_st())
    @settings(max_examples=120, deadline=None)
    def test_transfer_lands_in_valid_symm(self, d):
        assert validate(transfer(d)) == []


class TestProjections:
    def test_line_project_kinds(self):
        d = LanglandsData(
            Multisegment([seg(GI, -1, 0), seg(BI, -1, -1)]),
            [PhiComponent(GI, 1), PhiComponent(BI, 1), PhiComponent(BI, 1)],
        )
        p = line_project(d, GI)
        assert p.n == Multisegment([seg(GI, -1, 0)])
        assert [q.line for q in p.phi] == [GI]
        s = transfer(d)
        assert line_project(s, BI).m == transfer(line_project(d, BI)).m

    def test_line_project_needs_a_line(self):
        d = LanglandsData(Multisegment([seg(GI, -1, 0)]), [PhiComponent(GI, 1)])
        for x in (d.n, transfer(d), d):
            with pytest.raises(TypeError, match="expected a Line, got str"):
                line_project(x, "rho")

    def test_sign_products(self):
        s = sym((0, 0), (-1, 1), minus=[(0, 0)])
        assert sign_product(s, GI) == -1
        assert plus_product(s) == -1
        with pytest.raises(DomainError):
            sign_product(s, BI)

    def test_sign_product_needs_a_line(self):
        s = sym((0, 0), (-1, 1), minus=[(0, 0)])
        with pytest.raises(TypeError, match="expected a Line, got str"):
            sign_product(s, "rho")

    def test_sign_product_counts_multiplicity(self):
        s = SignedSymMultisegment(
            Multisegment([seg(GI, 0, 0)] * 2), minus={seg(GI, 0, 0)}
        )
        assert sign_product(s, GI) == 1


class TestLabeled:
    def test_section_splits_centered(self):
        s = SignedSymMultisegment(
            Multisegment([seg(GI, -1, 1)] * 3 + [seg(GI, 0, 1), seg(GI, -1, 0)])
        )
        cnt = s._ints[GI][0]
        labels = sorted(
            (lab, pair, k) for _, pair, lab, k in _section(cnt) if sum(pair) == 0
        )
        assert labels == [(-1, (-2, 2), 1), (0, (-2, 2), 1), (1, (-2, 2), 1)]

    def test_forced_labels(self):
        assert LabeledSeg(seg(GI, 0, 1), 1).label == 1
        with pytest.raises(DomainError):
            LabeledSeg(seg(GI, 0, 1), -1)
        with pytest.raises(DomainError):
            LabeledSeg(seg(GI, -1, 0), 1)

    def test_labeled_cmp_classes(self):
        """+1 copies come first, then =0, then -1; descending beginning and
        ascending end inside +1 and -1, descending end inside =0."""
        cnt = {(-2, 0): 1, (-4, -2): 1, (-2, 2): 1, (-4, 4): 1,
               (0, 2): 1, (2, 4): 1, (0, 4): 1}
        assert [(pair, lab) for _, pair, lab, _ in _section(cnt)] == [
            ((2, 4), 1), ((0, 2), 1), ((0, 4), 1),
            ((-4, 4), 0), ((-2, 2), 0),
            ((-2, 0), -1), ((-4, -2), -1),
        ]


def _snapshot(s):
    return {ln: (dict(cnt), set(minus)) for ln, (cnt, minus) in s._ints.items()}


class TestIntForm:
    def test_readers_leave_the_int_form_unchanged(self):
        """The dual, its first step, the derivatives, the report and the
        labeled capacity read a state's int form and change none of it."""
        states = list(standard_sweep(1, 3, 3)) + list(enumerate_symm(UG, 1, 2, 0))
        for s in states[::3]:
            if not s:
                continue
            before = _snapshot(s)
            (ln,) = s.lines()
            ad_symm(s)
            ad_step(s)
            ad_initial_sequence(s)
            emax2 = s.max_end().twice
            for x2 in range(-emax2, emax2 + 1, 2):
                if x2:
                    derivative(s, ln, _h(x2))
            if ln.cls != UGLY and ln.grid == GRID_INT:
                try:
                    derivative_L(s, ln)
                except DomainError:
                    pass
            reduced_report(s)
            for b2 in range(-emax2, emax2 + 1, 2):
                for side in (0, 1) if ln.cls == UGLY else (None,):
                    kz_capacity_labeled(s, seg(ln, _h(b2), _h(emax2), side))
            assert _snapshot(s) == before

    def test_states_sharing_counters_stay_apart(self):
        """The ``.m`` of an int-built state (a dual) shares its counters, and
        so does a state built from that ``.m``; the dual, the step and the
        GL transpose of one change neither the other nor the plain
        multisegment.  The signings of one multiset in the enumerator share
        one counter too, and the dual, the step and the derivatives of one
        change none of the others."""
        for s in list(standard_sweep(1, 2, 2))[::5] + list(enumerate_symm(UG, 1, 2, 0)):
            if not s:
                continue
            d = ad_symm(s)
            (ln,) = d.lines()
            before, m = _snapshot(d), d.m
            t = SignedSymMultisegment(m, minus=d.minus)
            assert t._ints[ln][0] is m._ints[ln] is d._ints[ln][0]
            ad_symm(t)
            ad_step(t)
            mw_transpose(m)
            assert _snapshot(d) == before
            assert m._ints == {ln: cnt for ln, (cnt, _) in before.items()}
        groups = {}
        for s in enumerate_symm(GI, 1, 2, 3):
            if s:
                groups.setdefault(id(s._ints[GI][0]), []).append(s)
        signings = [group for group in groups.values() if len(group) > 1]
        assert len(signings) > 20
        for group in signings:
            before = [_snapshot(s) for s in group]
            assert len({frozenset(minus) for (_, minus) in (b[GI] for b in before)}) == len(group)
            for s in group:
                ad_symm(s)
                ad_step(s)
                derivative(s, GI, _h(-2))
                reduced_report(s)
            assert [_snapshot(s) for s in group] == before

    def test_a_state_of_a_shared_form_builds_no_entries(self):
        """A state built from a dual's ``.m`` reads its lines from the
        shared counters' keys: neither ``.m`` builds its Segments."""
        for s in list(standard_sweep(1, 2, 2))[::7] + list(enumerate_symm(UG, 1, 2, 0))[::7]:
            d = ad_symm(s)
            t = SignedSymMultisegment(d.m)
            assert validate(t) == [] and t.m == d.m
            assert d.m._entries is None and t.m._entries is None


# Two declarations of one id on different grids, so their values interleave
# in canonical order without ever sharing a sort key.
XI = line("x", GOOD, GRID_INT)
XH = line("x", BAD, GRID_HALF)


class TestConflicts:
    SEGS = [seg(XI, -3, -1), seg(XH, "-5/2", "-1/2"), seg(XH, "-5/2", "-1/2"),
            seg(XI, -2, -1), seg(XH, "-3/2", "-1/2"), seg(GI, -1, -1)]
    MESSAGE = "conflicting declarations for line 'x'"

    def test_int_held_and_segment_built_inputs_report_alike(self):
        m = Multisegment(self.SEGS)
        held = _plain(m._ints)
        assert held._entries is None
        assert validate(m) == validate(held) == [self.MESSAGE] * 3
        assert validate(SignedSymMultisegment(m))[:3] == [self.MESSAGE] * 3
        assert validate(SignedSymMultisegment(m)) == validate(SignedSymMultisegment(held))
        assert held._entries is None
        phi = [PhiComponent(XI, 3), PhiComponent(XH, 2), PhiComponent(XH, 2), PhiComponent(XI, 1)]
        for blocks, k in ((phi, 5), (phi[:3], 5), (phi[3:], 3)):
            d = LanglandsData(m, blocks)
            reports = {tuple(validate(x)) for x in (d, LanglandsData(held, blocks),
                                                    _datum(held, d._blocks))}
            assert reports == {tuple(validate(d))}
            assert validate(d).count(self.MESSAGE) == k
