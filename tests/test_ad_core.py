import inspect
from collections import deque

import pytest

from azdual.segments import (
    BAD,
    GOOD,
    GRID_HALF,
    GRID_INT,
    UGLY,
    DomainError,
    InvariantError,
    Line,
    Segment,
    half,
)
from azdual.langdata import (
    LanglandsData,
    Multisegment,
    PhiComponent,
    SignedSymMultisegment,
    _parity,
    transfer,
    untransfer,
)
from azdual.mw_gl import _buckets
from azdual.ad_core import _steps, ad_data, ad_initial_sequence, ad_step, ad_symm
from azdual.verify import standard_sweep

G = Line("rho", GOOD, GRID_INT)
GH = Line("rho", GOOD, GRID_HALF)
B = Line("rho", BAD, GRID_INT)
U = Line("rho", UGLY, GRID_INT)


def seg(b, e, ln=G, side=None):
    if side is None and ln.cls == UGLY:
        side = 0
    return Segment(ln, half(b), half(e), side=side)


def data(pairs, blocks=(), minus=(), ln=G, sides=None):
    sides = sides or [None] * len(pairs)
    m = Multisegment([seg(b, e, ln, sd) for (b, e), sd in zip(pairs, sides)])
    phi = tuple(PhiComponent(ln, a) for a in blocks)
    em = tuple(PhiComponent(ln, a) for a in minus)
    return LanglandsData(m, phi, eta_minus=em)


class TestGoldens:
    """The worked duals, pinned exactly."""

    def test_good_walkthrough(self):
        d = data([(-3, -1), (-2, 0), (-2, -2), (-1, 0)], blocks=(3,))
        out = ad_data(d)
        assert out == data([(-2, 0), (-3, 1)], blocks=(5,))

    def test_ugly_five_steps(self):
        d = data([(-3, -1), (-2, -1), (-2, 0)], ln=U)
        out = ad_data(d)
        want = data([(-3, -2), (-2, -1), (-2, -2), (-1, 0), (-1, -1)], ln=U)
        assert out == want

    def test_ugly_crossing_sides(self):
        d = data([(-2, 1)], ln=U)
        out = ad_data(d)
        want = data(
            [(-2, -2), (-1, -1), (-1, -1)], blocks=(1,), ln=U, sides=[0, 0, 1]
        )
        assert out == want

    def test_bad_single_pair(self):
        out = ad_data(data([(-1, 0)], ln=B))
        assert out == data([(-1, -1)], blocks=(1, 1), ln=B)

    def test_bad_double_pair_self_dual(self):
        d = data([(-1, 0), (-1, 0)], ln=B)
        assert ad_data(d) == d

    def test_good_single_pair_self_dual(self):
        d = data([(-1, 0)])
        assert ad_data(d) == d

    def test_good_signed_two_steps(self):
        d = data([(-2, -2)], blocks=(1, 1, 3), minus=(1,))
        assert ad_data(d) == data([(-2, 0)], blocks=(1,))

    def test_good_minus_product(self):
        s = SignedSymMultisegment(
            Multisegment([seg(-2, -2), seg(0, 0), seg(-1, 1), seg(2, 2)]),
            minus={seg(0, 0)},
        )
        out = ad_symm(s)
        want = SignedSymMultisegment(
            Multisegment([seg(-2, 2), seg(0, 0)]), minus={seg(0, 0)}
        )
        assert out == want

    def test_large_mixed_sign_dual(self):
        d = data(
            [(-3, -3)],
            blocks=(3, 3, 3, 5, 5, 5, 7, 7),
            minus=(5,),
        )
        out = ad_data(d)
        want = data(
            [(-3, -1), (-3, -2), (-3, -3), (-2, -2), (-2, -2)]
            + [(-1, -1)] * 5,
            blocks=(1, 1, 1, 1, 1, 1, 3, 5),
            minus=(1, 5),
        )
        assert out == want


class TestStep:
    def test_walkthrough_chain(self):
        d = data([(-3, -1), (-2, 0), (-2, -2), (-1, 0)], blocks=(3,))
        s = transfer(d)
        iseq = ad_initial_sequence(s)
        assert [str(x) for x in iseq.segments] == [
            "[1,3]@rho^{>=0}",
            "[0,2]@rho^{>=0}",
            "[-1,1]@rho^{=0}",
            "[-1,0]@rho^{<=0}",
            "[-3,-1]@rho^{<=0}",
        ]
        assert iseq.eps0 == 1

    def test_walkthrough_first_piece(self):
        d = data([(-3, -1), (-2, 0), (-2, -2), (-1, 0)], blocks=(3,))
        piece, rest = ad_step(transfer(d))
        assert piece.m == Multisegment([seg(-3, 1), seg(-1, 3)])
        want_rest = SignedSymMultisegment(
            Multisegment(
                [seg(2, 2), seg(2, 2), seg(1, 1), seg(0, 0), seg(0, 1),
                 seg(-1, -1), seg(-1, 0), seg(-2, -2), seg(-2, -2)]
            )
        )
        assert rest == want_rest

    def test_centered_piece_keeps_sign(self):
        # the walkthrough's second step closes up into a plus-signed center
        s = SignedSymMultisegment(
            Multisegment(
                [seg(2, 2), seg(2, 2), seg(1, 1), seg(0, 0), seg(0, 1),
                 seg(-1, -1), seg(-1, 0), seg(-2, -2), seg(-2, -2)]
            )
        )
        piece, rest = ad_step(s)
        assert piece.m == Multisegment([seg(-2, 2)])
        assert piece.eps(seg(-2, 2)) == 1
        assert rest.m == Multisegment([seg(2, 2), seg(0, 1), seg(-1, 0), seg(-2, -2)])

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            ad_step(SignedSymMultisegment(Multisegment([])))

    def test_rejects_multi_line(self):
        other = Line("sig", GOOD, GRID_INT)
        m = Multisegment([seg(0, 0), seg(0, 0), seg(0, 0, other), seg(0, 0, other)])
        with pytest.raises(DomainError):
            ad_step(SignedSymMultisegment(m))


class TestSymm:
    def test_rejects_asymmetric(self):
        with pytest.raises(DomainError):
            ad_symm(SignedSymMultisegment(Multisegment([seg(0, 1)])))

    def test_empty_fixed(self):
        z = SignedSymMultisegment(Multisegment([]))
        assert ad_symm(z) == z
        assert ad_data(LanglandsData()) == LanglandsData()

    def test_involution_spots(self):
        cases = [
            SignedSymMultisegment(
                Multisegment([seg(-2, 1), seg(-1, 2), seg(0, 0), seg(0, 0)])
            ),
            SignedSymMultisegment(
                Multisegment([seg(-1, 1), seg(-1, 1), seg(0, 0)]),
                minus={seg(0, 0)},
            ),
            SignedSymMultisegment(
                Multisegment(
                    [seg("-3/2", "1/2", GH), seg("-1/2", "3/2", GH),
                     seg("-1/2", "1/2", GH)]
                ),
                minus={seg("-1/2", "1/2", GH)},
            ),
            SignedSymMultisegment(
                Multisegment([seg(-1, 0, B), seg(0, 1, B), seg(-1, 1, B), seg(-1, 1, B)])
            ),
        ]
        for s in cases:
            d = ad_symm(s)
            assert ad_symm(d) == s
            assert d.degree == s.degree

    def test_multi_line_split(self):
        other = Line("sig", BAD, GRID_INT)
        m = Multisegment([seg(-1, 0), seg(0, 1), seg(-1, 0, other), seg(0, 1, other)])
        out = ad_symm(SignedSymMultisegment(m))
        # good line part is self-dual, bad line part closes into centers
        assert out.m.restrict(G) == Multisegment([seg(-1, 0), seg(0, 1)])
        assert out.m.restrict(other) == Multisegment(
            [seg(-1, -1, other), seg(1, 1, other), seg(0, 0, other), seg(0, 0, other)]
        )


PLAIN = Multisegment([seg(-1, 0), seg(0, 1)])
STATE = SignedSymMultisegment(PLAIN)
DATUM = data([(-1, 0)])


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: ad_symm(PLAIN), "SignedSymMultisegment, got Multisegment",
                 id="ad_symm-plain"),
    pytest.param(lambda: ad_symm(DATUM), "SignedSymMultisegment, got LanglandsData",
                 id="ad_symm-datum"),
    pytest.param(lambda: ad_step(PLAIN), "SignedSymMultisegment, got Multisegment",
                 id="ad_step"),
    pytest.param(lambda: ad_initial_sequence(PLAIN), "SignedSymMultisegment, got Multisegment",
                 id="ad_initial_sequence"),
    pytest.param(lambda: untransfer(PLAIN), "SignedSymMultisegment, got Multisegment",
                 id="untransfer"),
    pytest.param(lambda: ad_data(STATE), "LanglandsData, got SignedSymMultisegment",
                 id="ad_data"),
    pytest.param(lambda: transfer(STATE), "LanglandsData, got SignedSymMultisegment",
                 id="transfer"),
])
def test_the_dual_and_transfer_refuse_the_wrong_kind(call, message):
    """Each entry names the kind it expects, instead of failing inside on
    an attribute or an unpacking that the given kind lacks."""
    with pytest.raises(TypeError) as info:
        call()
    assert str(info.value) == f"expected a {message}"


class TestEngineChecks:
    """Hand-built line states that no valid input gives, fed straight to the
    step loop, so that each check a state can reach raises."""

    @pytest.mark.parametrize("ln, cnt, minus, msg", [
        # Integral pairs on a half-integral line: the copy [0,0] is its own
        # dual and loses one point, not two, but no terminal form stops there.
        pytest.param(GH, {(0, 0): 1, (0, 2): 1, (-2, 0): 1}, (),
                     "degree not preserved across the step", id="degree"),
        # Half-integral pairs on an integral line: [-3/2,3/2] signed -1 is
        # shortened to [-1/2,1/2], which then leaves with a plus piece.
        pytest.param(G, {(-3, 3): 1}, {(-3, 3)},
                     "sign product not preserved across the step", id="parity"),
        pytest.param(G, {(0, 2): 1}, (),
                     r"dual copy \(2b, 2e, label\) = \(\(-2, 0\), -1\) missing", id="dual"),
        pytest.param(G, {(-2, 0): 1}, (),
                     "open chain produced a centered initial pair", id="open-chain"),
        pytest.param(B, {(0, 0): 1}, (),
                     "chain consumed more copies than available", id="bad-copies"),
        pytest.param(U, {(0, 0, 0): 1}, (),
                     "mirror copies missing on the partner side", id="ugly-mirror"),
        pytest.param(U, {(0, 0, 1): 1}, (),
                     "ugly step with an empty primary side", id="ugly-primary"),
    ])
    def test_check_fires(self, ln, cnt, minus, msg):
        steps = _steps(ln, dict(cnt), set(minus), {}, set())
        with pytest.raises(InvariantError, match=msg):
            deque(steps, maxlen=0)

    def test_the_parity_state_passes_its_first_step(self):
        """The parity check fires on the second step, not on the first."""
        cnt, dual, dual_minus = {(-3, 3): 1}, {}, set()
        steps = _steps(G, cnt, {(-3, 3)}, dual, dual_minus)
        _, _, minus = next(steps)
        state = inspect.getgeneratorlocals(steps)
        assert (cnt, minus, state["parity"]) == ({(-1, 1): 1}, {(-1, 1)}, 1)
        assert state["minus"] is minus
        assert (dual, dual_minus) == ({(3, 3): 1, (-3, -3): 1}, set())


class TestEngineState:
    def test_indexes_follow_the_counter_after_every_step(self):
        """The end index, the centered set and the parity, which each step
        updates in place, equal their values recomputed from the
        counter and the minus set after every step of the standard sweep."""
        steps = 0
        for s in standard_sweep():
            for ln, (cnt, minus) in s._ints.items():
                cnt = dict(cnt)
                gen = _steps(ln, cnt, minus, {}, set())
                for _, _, minus in gen:
                    steps += 1
                    state = inspect.getgeneratorlocals(gen)
                    assert state["minus"] is minus
                    assert state["ends"] == _buckets(dict.fromkeys(cnt, 1))
                    if ln.cls == GOOD:
                        centered = state["centered"]
                        assert centered == {v for v in cnt if v[0] + v[1] == 0}
                        assert minus <= centered
                    assert state["parity"] == _parity(cnt, minus)
                assert not cnt
        assert steps == 45945
