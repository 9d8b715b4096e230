"""Hypothesis properties of the text edge: parsing the rendering of random
valid data of all three kinds gives the data back, and random text into
``parse_input`` ends in a value, a ``ParseError`` or a ``DomainError``,
never in another exception.  Also: a plain or signed multisegment built
from its int form is the one built from the same Segments, and the GL
transpose of copies far apart is an involution that meets the path
capacity.  The text writer renders what a dict document kept here does,
on lines whose ids need escaping."""
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from azdual.segments import (  # noqa: E402
    BAD,
    GOOD,
    GRID_HALF,
    GRID_INT,
    UGLY,
    DomainError,
    HalfInt,
    Line,
    Segment,
)
from azdual.langdata import (  # noqa: E402
    LanglandsData,
    Multisegment,
    PhiComponent,
    SignedSymMultisegment,
    _plain,
    _segment,
    _signed,
    line_project,
    transfer,
    untransfer,
    validate,
)
from azdual.ad_core import ad_symm  # noqa: E402
from azdual.mw_gl import containment_count, kz_capacity, mw_transpose  # noqa: E402
from azdual.cli import (  # noqa: E402
    ParseError,
    parse_input,
    parse_json,
    render_doc,
    render_output,
)
from azdual.verify import enumerate_data  # noqa: E402

LINES = [
    Line("g", GOOD, GRID_INT),
    Line("gh", GOOD, GRID_HALF),
    Line("b", BAD, GRID_INT),
    Line("bh", BAD, GRID_HALF),
    Line("u", UGLY, GRID_INT),
]

FAST = settings(max_examples=150, deadline=None, database=None)


@st.composite
def data(draw):
    """Parameter data on one to three lines, each part drawn by the seeded
    sampler of the property sweeps."""
    lines = draw(st.lists(st.sampled_from(LINES), min_size=1, max_size=3,
                          unique_by=lambda ln: ln.id))
    n, phi, eta_minus = [], [], set()
    for ln in lines:
        (d,) = enumerate_data(
            draw(st.integers(0, 4)), draw(st.integers(0, 4)), draw(st.integers(0, 3)),
            [ln], mode="sampled", count=1, seed=draw(st.integers(0, 2**32)),
        )
        n += d.n
        phi += d.phi
        eta_minus |= d.eta_minus
    return LanglandsData(n, phi, eta_minus=eta_minus)


@st.composite
def int_built_data(draw):
    """Int-built parameter data: a datum of the seeded sampler, or the
    untransfer of a signed state or of its dual."""
    lines = draw(st.lists(st.sampled_from(LINES), min_size=1, max_size=3,
                          unique_by=lambda ln: ln.id))
    (d,) = enumerate_data(
        draw(st.integers(0, 4)), draw(st.integers(0, 4)), draw(st.integers(0, 3)),
        lines, mode="sampled", count=1, seed=draw(st.integers(0, 2**32)),
    )
    how = draw(st.sampled_from(["sampled", "untransfer", "dual"]))
    if how == "sampled":
        return d
    s = transfer(draw(data()))
    return untransfer(s if how == "untransfer" else ad_symm(s))


@FAST
@given(int_built_data())
def test_int_built_data_agree_with_their_parsed_documents(d):
    e = parse_json(render_doc(d))
    assert d._phi is None
    assert d == e and hash(d) == hash(e) and bool(d) == bool(e)
    assert str(d) == str(e) and d.lines() == e.lines()
    assert d.phi == e.phi and d.eta_minus == e.eta_minus
    assert [d.eta(p) for p in e.phi] == [e.eta(p) for p in d.phi]
    assert d.n == e.n and list(d.n) == list(e.n)
    assert validate(d) == validate(e) == []
    assert transfer(d) == transfer(e)
    for ln in LINES:
        assert line_project(d, ln) == line_project(e, ln)
        assert render_output(line_project(d, ln)) == render_output(line_project(e, ln))
    assert render_output(d) == render_output(e)


@st.composite
def segment(draw):
    ln = draw(st.sampled_from(LINES))
    b2 = draw(st.integers(-12, 12).map(lambda t: 2 * t + (ln.grid == GRID_HALF)))
    e2 = b2 + 2 * draw(st.integers(0, 6))
    side = draw(st.integers(0, 1)) if ln.cls == UGLY else None
    return Segment(ln, HalfInt.from_twice(b2), HalfInt.from_twice(e2), side)


@FAST
@given(data())
def test_parse_of_render_is_identity_on_data(d):
    assert parse_input(render_output(d)) == d


@FAST
@given(data(), st.booleans())
def test_parse_of_render_is_identity_on_signed_states(d, dual):
    s = transfer(d)
    if dual:
        s = ad_symm(s)
    assert parse_input(render_output(s)) == s


@FAST
@given(st.lists(segment(), max_size=8))
def test_parse_of_render_is_identity_on_multisegments(segs):
    m = Multisegment(segs)
    assert parse_input(render_output(m)) == m


def _parses_or_refuses(text):
    try:
        parse_input(text)
    except (ParseError, DomainError):
        pass


DSL_CHARS = "[]0123456789,-/+*;S@:!~ rhogub"


@FAST
@given(st.text(max_size=40))
def test_random_text_ends_in_a_parse_or_domain_error(text):
    _parses_or_refuses(text)


@settings(max_examples=400, deadline=None, database=None)
@given(st.text(alphabet=DSL_CHARS, max_size=40))
def test_random_dsl_ends_in_a_parse_or_domain_error(text):
    _parses_or_refuses(text)


KEYS = ["lines", "m", "phi", "eps", "id", "class", "grid", "line", "b", "e",
        "a", "side", "eta", "sign"]
WORDS = ["rho", "good", "bad", "ugly", "integral", "half-integral", "0", "-1",
         "3/2", "-5/2", "x"]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-4, 4) | st.floats(allow_nan=False)
    | st.sampled_from(WORDS),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=400, deadline=None, database=None)
@given(st.dictionaries(st.sampled_from(KEYS), JSON_VALUES, max_size=4))
def test_random_json_ends_in_a_parse_or_domain_error(doc):
    _parses_or_refuses(json.dumps(doc))



@st.composite
def int_parts(draw):
    """One (line, counter, minus set) per line, valid or not; the minus set
    holds centered keys, present or absent."""
    parts = []
    for ln in draw(st.lists(st.sampled_from(LINES), max_size=3, unique=True)):
        par = ln.grid == GRID_HALF
        sides = (0, 1) if ln.cls == UGLY else (None,)
        cnt = {}
        for _ in range(draw(st.integers(0, 5))):
            b2 = 2 * draw(st.integers(-4, 4)) + par
            v = (b2, b2 + 2 * draw(st.integers(0, 3)))
            side = draw(st.sampled_from(sides))
            v += () if side is None else (side,)
            cnt[v] = draw(st.integers(0, 3))
        minus = set()
        for _ in range(draw(st.integers(0, 2))):
            y2 = 2 * draw(st.integers(0, 3)) + par
            side = draw(st.sampled_from(sides))
            minus.add((-y2, y2) + (() if side is None else (side,)))
        parts.append((ln, cnt, minus))
    return parts


def _from_segments(parts):
    segs = [_segment(ln, v) for ln, cnt, _ in parts for v, k in cnt.items()
            for _ in range(k)]
    minus = {_segment(ln, v) for ln, _, minus in parts for v in minus}
    return SignedSymMultisegment(Multisegment(segs), minus=minus)


@FAST
@given(int_parts())
def test_int_built_and_segment_built_states_agree(parts):
    a, b = _signed(parts), _from_segments(parts)
    assert a == b and hash(a) == hash(b)
    assert a.m == b.m and a.minus == b.minus
    assert str(a) == str(b) and render_output(a) == render_output(b)
    assert a.lines() == b.lines() and a.degree == b.degree


@FAST
@given(st.lists(segment(), max_size=10))
def test_int_built_and_segment_built_multisegments_agree(segs):
    """Random Segments on all five lines, both mirror sides included: the
    plain multisegment of a Segment-built one's int form is the same
    multisegment, and so is its transpose."""
    m = Multisegment(segs)
    a = _plain(m._ints)
    assert a == m and hash(a) == hash(m)
    assert a.entries == m.entries and str(a) == str(m) and a.lines() == m.lines()
    assert render_output(a) == render_output(m)
    assert mw_transpose(a) == mw_transpose(m)
    assert mw_transpose(a).entries == mw_transpose(m).entries


@FAST
@given(data(), st.booleans())
def test_transfer_and_dual_agree_with_their_segments(d, dual):
    s = transfer(d)
    if dual:
        s = ad_symm(s)
    t = SignedSymMultisegment(s.m, minus=s.minus)
    assert s == t and hash(s) == hash(t) and str(s) == str(t)


@st.composite
def sparse_multisegment(draw):
    """Copies on one line in one to four clusters, the clusters spread over
    [-200, 200]: the transpose's top end walks across the wide gaps between
    them.  Also returns targets near the clusters."""
    ln = draw(st.sampled_from(LINES))
    par = ln.grid == GRID_HALF
    side = draw(st.integers(0, 1)) if ln.cls == UGLY else None

    def mk(b, length):
        return Segment(ln, HalfInt.from_twice(2 * b + par),
                       HalfInt.from_twice(2 * (b + length) + par), side)

    centers = draw(st.lists(st.integers(-200, 200), min_size=1, max_size=4))
    segs, targets = [], []
    for c in centers:
        for _ in range(draw(st.integers(1, 4))):
            copy = mk(c + draw(st.integers(-3, 3)), draw(st.integers(0, 3)))
            segs += [copy] * draw(st.integers(1, 2))
        for _ in range(draw(st.integers(1, 3))):
            targets.append(mk(c + draw(st.integers(-4, 4)), draw(st.integers(0, 4))))
    return Multisegment(segs), targets


@FAST
@given(sparse_multisegment())
def test_transpose_of_sparse_wide_multisegments(mt):
    """The transpose is an involution and meets the Knight-Zelevinsky
    capacity at every target, on copies far apart."""
    m, targets = mt
    t = mw_transpose(m)
    assert mw_transpose(t) == m
    for tgt in targets + list(m):
        assert containment_count(t, tgt) == kz_capacity(m, tgt)


def _reference_doc(x):
    """The canonical document of any of the three kinds as a dict, built
    from the public views alone."""
    def lines_doc(lines):
        return [{"id": ln.id, "class": ln.cls, "grid": ln.grid}
                for ln in sorted(lines, key=lambda ln: ln.id)]

    def seg_doc(d):
        rec = {"line": d.line.id, "b": str(d.b), "e": str(d.e)}
        if d.side is not None:
            rec["side"] = d.side
        return rec

    if isinstance(x, LanglandsData):
        phi = [dict({"line": p.line.id, "a": p.a},
                    **({"eta": x.eta(p)} if p.line.cls == GOOD else {})) for p in x.phi]
        return {"lines": lines_doc(x.lines()), "m": [seg_doc(d) for d in x.n], "phi": phi}
    if isinstance(x, SignedSymMultisegment):
        centered = {d for d in x.m if d.is_centered and d.line.cls == GOOD}
        eps = [dict(seg_doc(d), sign=x.eps(d))
               for d in sorted(centered, key=lambda d: (d.line.id, d.e.twice))]
        return {"lines": lines_doc(x.lines()), "m": [seg_doc(d) for d in x.m], "eps": eps}
    return {"lines": lines_doc(x.lines()), "m": [seg_doc(d) for d in x]}


# Quotes, backslashes, control characters and non-ASCII, astral included.
ODD_IDS = st.text(alphabet='r"\\/\n\t\x00\x1f\x7f\u00e9\u2028\u20ac\U0001d11e',
                  min_size=1, max_size=4)


@st.composite
def odd_data(draw):
    """Valid parameter data on one to three lines whose ids need escaping."""
    segs, phi, eta_minus = [], [], set()
    for ident in draw(st.lists(ODD_IDS, min_size=1, max_size=3, unique=True)):
        cls = draw(st.sampled_from((GOOD, BAD, UGLY)))
        ln = Line(ident, cls, GRID_INT if cls == UGLY else draw(st.sampled_from(
            (GRID_INT, GRID_HALF))))
        par = ln.grid == GRID_HALF
        for _ in range(draw(st.integers(0, 3))):
            b2 = 2 * draw(st.integers(-4, -1)) + par
            e2 = b2 + 2 * draw(st.integers(0, (-2 * b2 - 2) // 2))
            side = draw(st.integers(0, 1)) if cls == UGLY else None
            segs.append(Segment(ln, HalfInt.from_twice(b2), HalfInt.from_twice(e2), side))
        for _ in range(draw(st.integers(0, 2))):
            p = PhiComponent(ln, 2 * draw(st.integers(0, 3)) + 1 + par)
            phi += [p, p] if cls == BAD else [p]
            if cls == GOOD and draw(st.booleans()):
                eta_minus.add(p)
    return LanglandsData(segs, phi, eta_minus=eta_minus)


@FAST
@given(odd_data())
def test_render_output_writes_the_reference_document(d):
    """All three kinds, held as Segments or as int forms."""
    s = transfer(d)
    t = ad_symm(s)
    m = Multisegment(list(t.m))
    kinds = [d, untransfer(s), untransfer(t), s, t,
             SignedSymMultisegment(m, minus=list(t.minus)), m, _plain(m._ints)]
    for x in kinds:
        assert render_output(x) == json.dumps(_reference_doc(x), separators=(",", ":"))
