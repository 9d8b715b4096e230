import itertools
import random
from bisect import bisect_left, insort
from collections import Counter
from heapq import heapify, heappop, heappush

import pytest
from hypothesis import given, settings, strategies as st

import azdual.langdata
import azdual.mw_gl
import azdual.segments
from azdual.cli import render_output
from azdual.segments import (
    GOOD,
    GRID_HALF,
    GRID_INT,
    UGLY,
    DomainError,
    Line,
    Segment,
    half,
)
from azdual.langdata import Multisegment, SignedSymMultisegment
from azdual.mw_gl import (
    _buckets,
    _chains,
    containment_count,
    kz_capacity,
    kz_capacity_labeled,
    mw_step,
    mw_transpose,
    transpose_pairs,
)

RHO = Line("rho", GOOD, GRID_INT)
SIG = Line("sig", GOOD, GRID_INT)
RHH = Line("rhh", GOOD, GRID_HALF)
UGL = Line("ugl", UGLY, GRID_INT)


def seg(b, e, ln=RHO):
    return Segment(ln, half(b), half(e))


def mseg(*pairs, ln=RHO):
    return Multisegment([seg(b, e, ln) for b, e in pairs])


pair_st = st.tuples(st.integers(-3, 3), st.integers(0, 3)).map(
    lambda t: (t[0], t[0] + t[1])
)
mseg_st = st.lists(pair_st, max_size=6).map(lambda ps: mseg(*ps))


class TestStep:
    def test_single_long_segment(self):
        top, rest = mw_step(mseg((-2, 1)))
        assert top == seg(1, 1)
        assert rest == mseg((-2, 0))

    def test_cuspidal_fixed_point(self):
        top, rest = mw_step(mseg((0, 0)))
        assert top == seg(0, 0)
        assert not rest

    def test_chain_of_three(self):
        top, rest = mw_step(mseg((-3, -1), (-2, -1), (-2, 0)))
        assert top == seg(-1, 0)
        assert rest == mseg((-3, -2), (-2, -1), (-2, -1))

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            mw_step(Multisegment([]))

    def test_rejects_mixed_lines(self):
        with pytest.raises(DomainError):
            mw_step(Multisegment([seg(0, 0), seg(0, 0, SIG)]))


class TestTranspose:
    def test_three_segment_example(self):
        got = mw_transpose(mseg((-3, -1), (-2, -1), (-2, 0)))
        assert got == mseg((-3, -2), (-2, -1), (-2, -2), (-1, 0), (-1, -1))

    def test_splits_into_singletons(self):
        got = mw_transpose(mseg((-2, 1)))
        assert got == mseg((-2, -2), (-1, -1), (0, 0), (1, 1))

    def test_cuspidal_pile_fixed(self):
        m = mseg((0, 0), (0, 0), (0, 0))
        assert mw_transpose(m) == m

    def test_zero_to_zero(self):
        z = Multisegment([])
        assert mw_transpose(z) == z

    def test_lines_processed_independently(self):
        m = Multisegment([seg(-1, 0), seg(0, 1, SIG), seg(-1, 0, SIG)])
        got = mw_transpose(m)
        assert got.restrict(RHO) == mw_transpose(mseg((-1, 0)))
        assert got.restrict(SIG) == mw_transpose(mseg((-1, 0), (0, 1), ln=SIG))

    def test_half_grid(self):
        m = Multisegment([seg("-3/2", "1/2", RHH), seg("-1/2", "-1/2", RHH)])
        got = mw_transpose(m)
        assert got.degree == m.degree
        assert mw_transpose(got) == m

    def test_involution_builds_no_segment(self, monkeypatch):
        """On a prebuilt multisegment the involution check runs int form to
        int form: neither transpose nor the equality makes a Segment."""
        made = []
        orig = azdual.segments._cached_segment

        def counted(*args):
            made.append(args)
            return orig(*args)

        for mod in (azdual.segments, azdual.langdata):
            monkeypatch.setattr(mod, "_cached_segment", counted)
        ms = [mseg((-3, -1), (-2, -1), (-2, 0)), mseg((-2, 1), (0, 0), (0, 0)),
              Multisegment([seg(-1, 0), seg(0, 1, SIG), seg("-3/2", "1/2", RHH)]),
              Multisegment([Segment(UGL, half(-1), half(0), side=s) for s in (0, 1)]),
              Multisegment([])]
        for m in ms:
            assert mw_transpose(mw_transpose(m)) == m
        assert made == []

    def test_form_built_result_matches_segment_built(self):
        """A result held as an int form and the same segments passed to
        Multisegment agree on equality, hash, entries, str and the JSON."""
        m = Multisegment(
            [seg(-2, 1), seg(-1, 0), seg(0, 2), seg(1, 1),
             seg(-1, 1, SIG), seg(0, 1, SIG), seg(-1, 0, SIG),
             seg("-3/2", "1/2", RHH), seg("-1/2", "-1/2", RHH), seg("-1/2", "3/2", RHH)]
            + [Segment(UGL, half(b), half(e), side=0) for b, e in [(-2, 0), (-1, 1), (0, 0)]]
            + [Segment(UGL, half(b), half(e), side=1) for b, e in [(0, 2), (1, 1), (-1, 2)]]
        )
        results = [lambda: mw_transpose(m),
                   lambda: mw_step(mseg((-3, -1), (-2, -1), (-2, 0)))[1],
                   lambda: mw_step(Multisegment([Segment(UGL, half(-1), half(1), side=1)]))[1]]
        for result in results:
            ref = Multisegment(list(result().entries))
            t = result()  # compared while it holds only its int form
            assert t == ref and ref == t
            assert hash(t) == hash(ref)
            assert t.entries == ref.entries
            assert str(t) == str(ref)
            assert render_output(t) == render_output(ref)
        t = mw_transpose(m)
        assert t.degree == m.degree
        assert {(d.line, d.side) for d in t} == {(RHO, None), (SIG, None), (RHH, None),
                                                 (UGL, 0), (UGL, 1)}

    def test_ugly_sides_kept(self):
        lu = Line("u", UGLY, GRID_INT)
        m = Multisegment(
            [Segment(lu, half(-1), half(0), side=1), Segment(lu, half(0), half(1), side=1)]
        )
        got = mw_transpose(m)
        assert got == m  # linked pair is its own transpose
        assert all(d.side == 1 for d in got)

    @given(mseg_st)
    @settings(max_examples=150)
    def test_involution(self, m):
        assert mw_transpose(mw_transpose(m)) == m

    @given(mseg_st)
    @settings(max_examples=150)
    def test_degree_preserved(self, m):
        assert mw_transpose(m).degree == m.degree

    def test_involution_exhaustive_small(self):
        vals = [(b, e) for b in range(-2, 3) for e in range(b, 3)]
        for n in range(4):
            for combo in itertools.combinations_with_replacement(vals, n):
                m = mseg(*combo)
                assert mw_transpose(mw_transpose(m)) == m

    def test_first_piece_longest_at_top(self):
        rng = random.Random(7)
        for _ in range(200):
            pairs = []
            for _ in range(rng.randint(1, 6)):
                b = rng.randint(-3, 3)
                pairs.append((b, b + rng.randint(0, 3)))
            m = mseg(*pairs)
            top, _ = mw_step(m)
            t = mw_transpose(m)
            peers = [d for d in t if d.e == top.e]
            assert top in peers
            assert all(d.length <= top.length for d in peers)


class TestCapacity:
    def test_single_column(self):
        assert kz_capacity(mseg((-2, 1)), seg(0, 0)) == 1

    def test_matches_transpose_multiplicity(self):
        m = mseg((-2, -1), (-2, 0))
        t = mw_transpose(m)
        assert kz_capacity(m, seg(-2, -1)) == list(t).count(seg(-2, -1)) == 0

    def test_empty_target(self):
        assert kz_capacity(mseg((0, 0)), seg(1, 0)) == 0

    def test_identity_on_random_instances(self):
        rng = random.Random(20)
        for _ in range(250):
            pairs = []
            for _ in range(rng.randint(1, 8)):
                b = rng.randint(-5, 5)
                pairs.append((b, b + rng.randint(0, 4)))
            m = mseg(*pairs)
            t = mw_transpose(m)
            lo = min(b for b, _ in pairs)
            hi = max(e for _, e in pairs)
            for _ in range(4):
                tb = rng.randint(lo, hi)
                te = rng.randint(tb, hi)
                target = seg(tb, te)
                assert containment_count(t, target) == kz_capacity(m, target)

    @given(st.dictionaries(pair_st, st.integers(1, 50), min_size=1, max_size=5),
           st.data())
    @settings(max_examples=100, deadline=None)
    def test_identity_at_multiplicity(self, cnt, data):
        """The capacity on distinct values counts as many paths as the
        transpose has segments containing the target, at up to 50 copies
        of a value."""
        m = mseg(*(p for p, k in cnt.items() for _ in range(k)))
        lo = min(b for b, _ in cnt)
        hi = max(e for _, e in cnt)
        tb = data.draw(st.integers(lo, hi), label="tb")
        target = seg(tb, data.draw(st.integers(tb, hi), label="te"))
        assert kz_capacity(m, target) == containment_count(mw_transpose(m), target)

    def test_labeled_two_disjoint_paths(self):
        # large mixed-sign fixture whose dual multiplicity at [-3,-1] is 1
        # while the labeled graph still carries two disjoint paths over [1,3]
        m = Multisegment(
            [seg(3, 3), seg(-3, -3)]
            + [seg(-1, 1)] * 3
            + [seg(-2, 2)] * 3
            + [seg(-3, 3)] * 2
        )
        s = SignedSymMultisegment(m, minus={seg(-2, 2)})
        assert kz_capacity_labeled(s, seg(1, 3)) == 2

    def test_labeled_empty_target(self):
        s = SignedSymMultisegment(mseg((0, 0), (0, 0)))
        assert kz_capacity_labeled(s, seg(1, 0)) == 0


class TestPairs:
    def test_raw_pairs_roundtrip(self):
        cnt = {(-4, 2): 1, (-2, 0): 1}
        t = transpose_pairs(cnt)
        assert t == {(-4, -4): 1, (-2, -2): 2, (0, 0): 2, (2, 2): 1}
        assert transpose_pairs(t) == cnt

    def test_chains_jump_the_gaps_between_far_ends(self):
        """The top end jumps from end to end: the bucket probes grow with
        the copies, not with the span of about 4,000,000 half-steps."""

        class Probed(dict):
            probes = 0

            def __contains__(self, key):
                self.probes += 1
                return super().__contains__(key)

            def get(self, key, default=None):
                self.probes += 1
                return super().get(key, default)

        cnt = {(-1999998, -1999998): 1, (-1999998, -1999996): 1, (0, 0): 1,
               (0, 2): 1, (1999998, 1999998): 1}
        buckets = Probed(_buckets(cnt))
        copies = []
        tops = Counter()
        for ends in _chains(buckets, copies):
            assert ends == (copies[-1][1], copies[0][1])
            tops[ends] += 1
        assert dict(tops) == transpose_pairs(cnt)
        assert not buckets and buckets.probes < 40


def _reference_chains(buckets):
    """The chains of ``_chains`` by the earlier extractor: pop the whole
    chain first, then insort each cut copy into the bucket one end lower."""
    tops = [-e for e in buckets]
    heapify(tops)
    while buckets:
        while -tops[0] not in buckets:
            heappop(tops)
        e = -tops[0]
        lst = buckets[e]
        cur_b = lst.pop()
        if not lst:
            del buckets[e]
        chain = [(cur_b, e)]
        while True:
            e -= 2
            lst = buckets.get(e)
            if lst is None:
                break
            i = bisect_left(lst, cur_b) - 1
            if i < 0:
                break
            cur_b = lst.pop(i)
            if not lst:
                del buckets[e]
            chain.append((cur_b, e))
        for b2, e2 in chain:
            if e2 - 2 >= b2:
                if e2 - 2 not in buckets:
                    heappush(tops, 2 - e2)
                insort(buckets.setdefault(e2 - 2, []), b2)
        yield chain


def test_in_place_cut_gives_the_reference_chains():
    """Random counters with repeated copies, copies of length 1 and ends far
    apart: the in-place cut extracts the same chains, in the same order, as
    popping the chain and inserting the cut copies afterwards, each yield
    gives the ends of the copies it refilled, and the transpose of the
    counter's transpose is the counter."""
    rng = random.Random(11)
    for _ in range(3000):
        span = rng.choice([3, 6, 40])
        cnt = {}
        for _ in range(rng.randint(1, 12)):
            b = rng.randint(-span, span)
            e = b + rng.choice([0, 0, 1, 2, rng.randint(0, span)])
            v = (2 * b, 2 * e)
            cnt[v] = cnt.get(v, 0) + rng.choice([1, 1, 2, 3])
        copies, got = [], []
        for ends in _chains(_buckets(cnt), copies):
            assert ends == (copies[-1][1], copies[0][1]), cnt
            got.append(list(copies))
        assert got == list(_reference_chains(_buckets(cnt))), cnt
        assert transpose_pairs(transpose_pairs(cnt)) == cnt, cnt


_SIGNED = SignedSymMultisegment([seg(-1, 0), seg(0, 1)])


@pytest.mark.parametrize("call", [
    pytest.param(lambda: mw_transpose(_SIGNED), id="mw_transpose"),
    pytest.param(lambda: mw_step(_SIGNED), id="mw_step"),
    pytest.param(lambda: kz_capacity(_SIGNED, seg(0, 0)), id="kz_capacity"),
    pytest.param(lambda: containment_count(_SIGNED, seg(0, 0)), id="containment_count"),
])
def test_gl_functions_refuse_a_signed_state(call):
    """A signed state holds its lines as (counter, minus set); the GL
    functions take a plain Multisegment (``.m``) and refuse anything else
    rather than misread it."""
    with pytest.raises(TypeError, match="expected a Multisegment, got SignedSymMultisegment"):
        call()
    assert kz_capacity(_SIGNED.m, seg(0, 0)) == containment_count(_SIGNED.m, seg(0, 0)) == 2


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: kz_capacity(mseg((0, 1)), mseg((0, 1))),
                 "expected a Segment, got Multisegment", id="kz_capacity-multisegment"),
    pytest.param(lambda: kz_capacity(mseg((0, 1)), "x"),
                 "expected a Segment, got str", id="kz_capacity-str"),
    pytest.param(lambda: containment_count(mseg((0, 1)), 3),
                 "expected a Segment, got int", id="containment_count-int"),
    pytest.param(lambda: kz_capacity_labeled(_SIGNED, mseg((0, 1))),
                 "expected a Segment, got Multisegment", id="labeled-multisegment"),
    pytest.param(lambda: kz_capacity_labeled(mseg((0, 1)), seg(0, 0)),
                 "expected a SignedSymMultisegment, got Multisegment", id="labeled-plain"),
    pytest.param(lambda: kz_capacity_labeled(mseg((0, 1)), seg(1, 0)),
                 "expected a SignedSymMultisegment, got Multisegment",
                 id="labeled-plain-empty-target"),
])
def test_gl_functions_refuse_a_target_of_the_wrong_kind(call, message):
    """The capacity functions check the kind of the state and of the target
    before any other check, the empty target's included."""
    with pytest.raises(TypeError, match=f"^{message}$"):
        call()
