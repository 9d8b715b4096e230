import pytest
from hypothesis import given, strategies as st

from azdual.langdata import Multisegment
from azdual.segments import (
    GOOD,
    GRID_HALF,
    GRID_INT,
    UGLY,
    DomainError,
    HalfInt,
    Line,
    Segment,
    half,
    line,
    seg,
    seg_dual,
)

halves = st.integers(-40, 40).map(HalfInt.from_twice)


class TestHalfInt:
    def test_construction(self):
        assert HalfInt(3).twice == 6
        assert HalfInt.from_twice(-5).twice == -5
        assert HalfInt(HalfInt(2)) == HalfInt(2)

    def test_parse(self):
        assert HalfInt.parse("3") == HalfInt(3)
        assert HalfInt.parse("-5/2").twice == -5
        assert HalfInt.parse(" 7/2 ").twice == 7
        with pytest.raises(DomainError):
            HalfInt.parse("x")
        with pytest.raises(DomainError):
            HalfInt.parse("1/3")

    @given(halves)
    def test_str_parse_roundtrip(self, h):
        assert HalfInt.parse(str(h)) == h

    @given(halves, halves)
    def test_arithmetic(self, a, b):
        assert (-a).twice == -a.twice
        assert (a == b) == (a.twice == b.twice)

    def test_hash_agrees_with_int_equality(self):
        assert HalfInt(1) == 1 and hash(HalfInt(1)) == hash(1)
        assert {HalfInt(1): 0}.get(1) == 0
        assert {HalfInt(-3): 0}.get(-3) == 0
        assert {1: 0}.get(HalfInt(1)) == 0
        assert HalfInt.from_twice(1) not in {0, 1}

    def test_immutable(self):
        h = HalfInt(1)
        with pytest.raises(AttributeError):
            h.twice = 4

    def test_half_coercion(self):
        assert half(2) == HalfInt(2)
        assert half("-3/2").twice == -3
        assert half(HalfInt(1)) == HalfInt(1)
        with pytest.raises(TypeError):
            half(1.5)

    @pytest.mark.parametrize("build, kind", [
        (lambda: HalfInt(True), "bool"),
        (lambda: HalfInt.from_twice("2"), "str"),
        (lambda: HalfInt.from_twice(300.5), "float"),
        (lambda: HalfInt.from_twice(2.0), "float"),
        (lambda: HalfInt.from_twice(True), "bool"),
        (lambda: half(True), "bool"),
        (lambda: seg(line("rho"), True, True), "bool"),
    ], ids=["init-bool", "twice-str", "twice-float", "twice-cached-float", "twice-bool",
            "half-bool", "seg-bool"])
    def test_refuses_what_is_not_an_int(self, build, kind):
        with pytest.raises(TypeError, match=f"^cannot build HalfInt from {kind}$"):
            build()


class TestLine:
    def test_ugly_grid_normalized(self):
        with pytest.raises(DomainError):
            Line("a", UGLY, GRID_HALF)

    def test_bad_class(self):
        with pytest.raises(DomainError):
            Line("a", "odd", GRID_INT)


GI = line("rho", GOOD, GRID_INT)
GH = line("sig", GOOD, GRID_HALF)
UG = line("tau", UGLY, GRID_INT)


class TestSegment:
    def test_props_of_empty(self):
        d = seg(GI, 1, 0)
        assert d.length == 0
        assert d.is_empty
        assert not d.is_centered

    def test_grid_enforced(self):
        with pytest.raises(DomainError):
            seg(GI, "1/2", "3/2")
        with pytest.raises(DomainError):
            seg(GH, 0, 1)
        seg(GH, "1/2", "3/2")

    def test_too_short(self):
        with pytest.raises(DomainError):
            seg(GI, 2, 0)

    def test_sides(self):
        with pytest.raises(DomainError):
            seg(GI, 0, 1, side=0)
        with pytest.raises(DomainError):
            seg(UG, 0, 1)
        assert seg(UG, 0, 1, side=1).side == 1

    @pytest.mark.parametrize("side", [1.0, True])
    def test_side_must_be_the_int_0_or_1(self, side):
        with pytest.raises(DomainError, match="need side 0 or 1"):
            Segment(UG, HalfInt(-1), HalfInt(0), side)

    def test_centered(self):
        assert seg(GI, -2, 2).is_centered
        assert seg(GH, "-1/2", "1/2").is_centered
        assert not seg(GI, 0, 1).is_centered
        assert not seg(GI, 0, -1).is_centered

    def test_str(self):
        assert str(seg(GI, -1, 2)) == "[-1,2]@rho"
        assert str(seg(UG, 0, 1, side=1)) == "[0,1]@tau~"


class TestDualAndTrunc:
    def test_dual(self):
        assert seg_dual(seg(GI, -2, 1)) == seg(GI, -1, 2)
        assert seg_dual(seg(UG, 0, 1, side=0)) == seg(UG, -1, 0, side=1)

    @given(st.integers(-10, 10), st.integers(0, 8))
    def test_dual_involution(self, b, n):
        d = seg(GI, b, b + n)
        assert seg_dual(seg_dual(d)) == d

class TestOrders:
    def test_sort_key_descends(self):
        ds = [seg(GI, 1, 1), seg(GI, 0, 2), seg(GI, -1, 1), seg(GI, 0, 1)]
        assert Multisegment(ds).entries == (seg(GI, 1, 1), seg(GI, 0, 1), seg(GI, 0, 2),
                                            seg(GI, -1, 1))
