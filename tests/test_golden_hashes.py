"""Differential oracle: sha256 digests of seeded outputs, recorded before
the step loop moved from Segment objects to int pairs.

Any change to one byte of a dual, a step, an initial sequence or the
``check`` report changes a digest.  The digests were recorded on the
Segment-based implementation and must not be edited to make a test pass.
The full ``check`` report and the reports under injected faults were
recorded before the property suites shared one dual per state; the
derivative digest before the derivatives moved from Segment objects to int
pairs; the GL digest before ``mw_gl`` did; the validate-report digest before
the signed multisegments held their int line form; the wide mirror-line
digest before mirror lines ran on the GL chain extractor of ``mw_gl``; the
closed-form digest before the closed forms read the int form; the
enumeration digest before the exhaustive enumerators shared one multiset
walk; the dataset CSV digest before parameter data held an int form and
one text writer rendered all three kinds; the parse digest before the
parsers built int forms; the capacity digest at multiplicity before the
capacities ran on distinct values.
"""
import hashlib
import io
import itertools
import json
import random
from contextlib import redirect_stdout

import pytest

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
    seg_dual,
)
from azdual.langdata import (
    LanglandsData,
    Multisegment,
    PhiComponent,
    SignedSymMultisegment,
    transfer,
    validate,
)
from azdual.ad_core import ad_data, ad_initial_sequence, ad_step, ad_symm
from azdual.cli import MAX_DEGREE, MAX_MULT, main, parse_input, render_output
from azdual.derivatives import derivative, derivative_L, reduced_report
from azdual.mw_gl import kz_capacity, kz_capacity_labeled, mw_step, mw_transpose
from azdual.verify import (
    closed_form_dual,
    closed_form_instances,
    enumerate_data,
    enumerate_symm,
    run_properties,
    standard_sweep,
)

LINES = [
    Line("g", GOOD, GRID_INT),
    Line("gh", GOOD, GRID_HALF),
    Line("b", BAD, GRID_INT),
    Line("bh", BAD, GRID_HALF),
    Line("u", UGLY, GRID_INT),
]

# (N, km, kphi, count, seed) for the sampled draws over LINES.
DRAWS = ((5, 5, 3, 1500, 11), (10, 10, 6, 150, 12))

DUALS_SHA256 = "df24e294ff4fcc25e0785dd3706daf67ea29af5d5b6db6c441397b049612d675"
STEPS_SHA256 = "71ee26c90f59c54d7b0a6e3e9df9d6279d51c7dae504197db216a88674cbf172"
CHECK_SHA256 = "1205cc97d63b33bfce3303a7543ce29f003925c6773f3647ca8f6bda41562b05"
FULL_CHECK_SHA256 = "f89ce377fd4b12a302fe5268176da98d7b729f4c149be5f9eef1d9a5ec315980"
DERIVATIVES_SHA256 = "b54ae2eda14448697ca14f8253a26261ffad4d6a8b6825b4142802a3927fe306"
GL_SHA256 = "b05983f17249617844c2676b6463168ca3eacdc3d48773f9affd038a964a8dac"
VALIDATE_SHA256 = "b5bf23499c87a67106371b6126d5a981e7d05aff2efe850b3bd3f80bd70c5fd9"
WIDE_MIRROR_SHA256 = "aa33cdf26a40f190f2d28d7be323218f3435af75370b2e71c9e92ccf8473a6d7"
CLOSED_FORMS_SHA256 = "7e64d0f920395e15c34f3004b53b7bcdb91d0f01b54739d4460d9f0528d318d3"
ENUMERATIONS_SHA256 = "c5b3f734123419ed99655546b1daf8bf3b6ffc26fee25b1fbb51ae9dd611631f"
DATASET_CSV_SHA256 = "c1860f33e2bf54ff1f4b11a5dfb774f692255e55ef3b2e0940455a0a7d12e024"
PARSE_SHA256 = "bab42db56326772aa3ed80c89d70b26068a3ce9f1ef7667e64cfc407b41cb3a2"
CAPACITY_MULT_SHA256 = "f6c1224b8541e58308f64a9d15e782b72ad4a9a7987e1f9fd2ab6e291ab2f2d5"


def _samples():
    out = []
    for n, km, kphi, count, seed in DRAWS:
        out.extend(enumerate_data(n, km, kphi, LINES, mode="sampled",
                                  count=count, seed=seed))
    return out


def _merged(d1, d2):
    return LanglandsData(d1.n + d2.n, d1.phi + d2.phi,
                         eta_minus=d1.eta_minus | d2.eta_minus)


def _digest(lines):
    h = hashlib.sha256()
    for text in lines:
        h.update(text.encode("utf-8") + b"\n")
    return h.hexdigest()


def test_dual_outputs_are_byte_identical():
    data = _samples()
    multi = [_merged(a, b) for a, b in zip(data[::2], data[1::2])
             if a.lines() != b.lines()]
    assert len(multi) > 100
    assert _digest(render_output(ad_data(d)) for d in data + multi) == DUALS_SHA256


def test_steps_and_initial_sequences_are_byte_identical():
    lines = []
    for d in _samples():
        s = transfer(d)
        if not s.m:
            continue
        piece, rest = ad_step(s)
        lines.append(render_output(piece) + render_output(rest))
        lines.append(repr(ad_initial_sequence(s)))
    assert _digest(lines) == STEPS_SHA256


def test_exhaustive_enumerations_are_byte_identical():
    """Every item of the exhaustive data and signed-state enumerations on
    each class of line, mirror and bad lines included."""
    lines = []
    for ln in LINES:
        lines += map(str, enumerate_data(2, 2, 3, [ln]))
        lines += map(str, enumerate_symm(ln, 2, 2, 3))
        lines += map(str, enumerate_symm(ln, 2, 3, 4, max_degree=9))
        lines += map(str, enumerate_symm(ln, 2, 3, 4, max_degree=9, with_signs=False))
    assert len(lines) == 7743
    assert _digest(lines) == ENUMERATIONS_SHA256


def test_dataset_csv_rows_are_byte_identical(tmp_path):
    """The CSV rows of ``dataset`` at the C8 settings; C8 pins the JSONL
    rows of the same sampler."""
    out = tmp_path / "rows.csv"
    with redirect_stdout(io.StringIO()):
        assert main(["dataset", "--N", "5", "--km", "5", "--kphi", "3", "--count", "2000",
                     "--seed", "0", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DATASET_CSV_SHA256


def _check_digest(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["check", *argv])
    assert code == 0
    assert json.loads(buf.getvalue())["pass"] is True
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


def test_check_report_is_byte_identical():
    assert _check_digest(["--max-coeff", "1"]) == CHECK_SHA256


def test_full_check_report_is_byte_identical():
    """All seven suites together over all 6608 states of the default sweep."""
    assert _check_digest([]) == FULL_CHECK_SHA256


def _closed_form_records():
    for s in itertools.chain(standard_sweep(), closed_form_instances(6)):
        cf = closed_form_dual(s)
        yield f"{s} {None if cf is None else render_output(cf)}"


def test_closed_forms_are_byte_identical():
    """The closed-form dual, or None, of every state of the default sweep
    and of every family instance with counters up to 6: 16578 states, of
    which 10288 match a family."""
    assert _digest(_closed_form_records()) == CLOSED_FORMS_SHA256


def _unsigned_dual(s):
    return SignedSymMultisegment(ad_symm(s).m)


def _identity(s):
    return s


def _dual_less_last_entry(s):
    d = ad_symm(s)
    kept = d.m.entries[:-1]
    return SignedSymMultisegment(Multisegment(kept),
                                 minus={v for v in d.minus if v in kept})


@pytest.mark.parametrize("fault, digest", [
    (_unsigned_dual, "f492c8d39b8b724364767c2793e744834f1dd4fcafe1cc622627c911eb94dec3"),
    (_identity, "2f8d11c7b04a45edb9fcc5892c98d5040c6f8ecc0b2c484d15dcad3acea08517"),
])
def test_reports_under_a_faulty_dual_are_byte_identical(monkeypatch, fault, digest):
    monkeypatch.setattr(azdual.verify, "ad_symm", fault)
    rep = run_properties(standard_sweep(1, 3, 3))
    assert rep["pass"] is False
    text = json.dumps(rep, separators=(",", ":"))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_a_dual_that_leaves_the_class_raises_from_the_first_suite(monkeypatch):
    monkeypatch.setattr(azdual.verify, "ad_symm", _dual_less_last_entry)
    with pytest.raises(DomainError) as err:
        run_properties(standard_sweep(1, 3, 3))
    assert str(err.value) == "invalid input:\n  symmetry violation at [1,1]@g"


def _invalid_states():
    """Seeded signed states built from Segments that break symmetry, leave
    a centered bad-line multiplicity odd, sign absent or non-good values and
    declare one line id twice.  The twin declarations use the other grid,
    so no two values of a state share a sort key."""
    rng = random.Random(77)
    pool = LINES + [Line("g", BAD, GRID_HALF), Line("bh", GOOD, GRID_INT)]
    for _ in range(1500):
        entries, minus = [], set()
        for ln in rng.sample(pool, rng.randint(1, 3)):
            par = ln.grid == GRID_HALF

            def mk(b2, e2, side=None):
                if ln.cls == UGLY and side is None:
                    side = rng.randint(0, 1)
                return _gl_seg(ln, b2, e2, side)
            for _ in range(rng.randint(0, 3)):
                b2 = 2 * rng.randint(-3, 2) + par
                d = mk(b2, b2 + 2 * rng.randint(0, 3))
                entries += [d, seg_dual(d)]
            for _ in range(rng.randint(0, 3)):
                y2 = 2 * rng.randint(0, 2) + par
                entries += [mk(-y2, y2)] * rng.randint(1, 3)
            if entries and rng.random() < 0.6:
                entries.pop(rng.randrange(len(entries)))
            if rng.random() < 0.4:
                b2 = 2 * rng.randint(-3, 2) + par
                entries.append(mk(b2, b2 + 2 * rng.randint(0, 2)))
            for _ in range(rng.randint(0, 2)):
                y2 = 2 * rng.randint(0, 3) + par
                minus.add(mk(-y2, y2))
        yield SignedSymMultisegment(Multisegment(entries), minus=minus)


def test_validate_reports_are_byte_identical():
    """The validate report, texts and order, of every corruption of every
    dual of the 6608-state sweep, and of 1500 seeded invalid states that
    reach each report text, several to a state."""
    records, texts = [], set()
    for s in standard_sweep():
        for name, bad in azdual.verify._corruptions(ad_symm(s)):
            records.append(f"{name} {json.dumps(validate(bad))}")
    for s in _invalid_states():
        report = validate(s)
        records.append(json.dumps(report))
        texts.update(r.split(" ")[0] for r in report)
    assert texts == {"symmetry", "odd", "sign", "explicit", "conflicting"}
    assert _digest(records) == VALIDATE_SHA256


def _derivative_states():
    """The standard sweep, every ugly-line state without centered copies,
    and each good-line state merged with a half-grid bad-line state."""
    yield from standard_sweep(2, 3, 3)
    yield from enumerate_symm(LINES[4], 2, 3, 0)
    goods = list(enumerate_symm(LINES[0], 2, 2, 2))
    bads = list(enumerate_symm(LINES[3], 2, 2, 2))
    for i, a in enumerate(goods):
        b = bads[(7 * i) % len(bads)]
        yield SignedSymMultisegment(a.m + b.m, minus=a.minus | b.minus)


def _derivative_records(s):
    yield render_output(s)
    for ln in s.lines():
        emax2 = max(d.e.twice for d in s.m if d.line == ln)
        for x2 in range(-emax2 - 2, emax2 + 3, 2):
            if x2 == 0:
                continue
            try:
                r = derivative(s, ln, HalfInt.from_twice(x2))
                yield f"{ln.id} {x2} {r.k} {render_output(r.result)}"
            except DomainError as err:
                yield f"{ln.id} {x2} ! {err}"
        if ln.grid == GRID_INT and ln.cls in (GOOD, BAD):
            try:
                r = derivative_L(s, ln)
                yield f"{ln.id} L {r.k} {render_output(r.result)}"
            except DomainError as err:
                yield f"{ln.id} L ! {err}"
    yield json.dumps(reduced_report(s), separators=(",", ":"))


def test_derivatives_are_byte_identical():
    """Every twist derivative within two of each line's ends, the zero-chunk
    derivative on integral good and bad lines (result or error text) and
    the reduced report, over 8124 states."""
    records = (r for s in _derivative_states() for r in _derivative_records(s))
    assert _digest(records) == DERIVATIVES_SHA256


def _gl_seg(ln, b2, e2, side=None):
    return Segment(ln, HalfInt.from_twice(b2), HalfInt.from_twice(e2), side)


def _gl_targets(ln, side, lo2, hi2):
    """Every target [b, e] on (ln, side) with lo2 <= 2b, 2e <= hi2, the
    empty ones (e = b - 1) included."""
    for b2 in range(lo2, hi2 + 1, 2):
        for e2 in range(b2 - 2, hi2 + 1, 2):
            yield _gl_seg(ln, b2, e2, side)


def _labeled_capacity_records():
    states = list(standard_sweep(1, 3, 3)) + list(enumerate_symm(LINES[4], 2, 3, 2))
    for s in states:
        yield str(s)
        if not s.m:
            continue
        (ln,) = s.lines()
        emax2 = max(d.e.twice for d in s.m)
        for side in (0, 1) if ln.cls == UGLY else (None,):
            for t in _gl_targets(ln, side, -emax2, emax2):
                yield f"{t} {kz_capacity_labeled(s, t)}"


def _gl_inputs():
    """Seeded multisegments over all five lines, both ugly sides included."""
    rng = random.Random(2024)
    for _ in range(3000):
        segs = []
        for _ in range(rng.randint(1, 8)):
            ln = rng.choice(LINES)
            b2 = 2 * rng.randint(-3, 3) + (ln.grid == GRID_HALF)
            segs.append(_gl_seg(ln, b2, b2 + 2 * rng.randint(0, 3),
                                rng.randint(0, 1) if ln.cls == UGLY else None))
        yield Multisegment(segs)


def _gl_records(m):
    yield f"{m} -> {mw_transpose(m)}"
    keys = sorted({(d.line, d.side) for d in m}, key=lambda k: (k[0].id, k[1] or 0))
    for part in [m] + [Multisegment(d for d in m if (d.line, d.side) == k) for k in keys]:
        try:
            top, rest = mw_step(part)
            yield f"step {top} {rest}"
        except DomainError as err:
            yield f"step ! {err}"
    for key in keys:
        b2s = [d.b.twice for d in m if (d.line, d.side) == key]
        e2s = [d.e.twice for d in m if (d.line, d.side) == key]
        for t in _gl_targets(*key, min(b2s) - 2, max(e2s) + 2):
            yield f"{t} {kz_capacity(m, t)}"


def test_gl_transpose_steps_and_capacities_are_byte_identical():
    """kz_capacity_labeled at every target within each state's end range,
    and mw_transpose, mw_step (whole and per line) and kz_capacity on 3000
    seeded multi-line multisegments."""
    records = itertools.chain(
        _labeled_capacity_records(),
        (r for m in _gl_inputs() for r in _gl_records(m)),
    )
    assert _digest(records) == GL_SHA256


def _capacity_mult_states():
    """200 seeded valid states on one line each, every value at a
    multiplicity of 1 to 12: up to three dual pairs and two block sizes."""
    rng = random.Random(2226)
    for _ in range(200):
        ln = rng.choice(LINES)
        odd = ln.grid == GRID_HALF
        segs, phi, minus = {}, [], []
        for _ in range(rng.randint(1, 3)):
            b2 = 2 * rng.randint(-3, -1) + odd
            e2 = rng.randrange(b2, -b2, 2)
            side = rng.randint(0, 1) if ln.cls == UGLY else None
            segs[_gl_seg(ln, b2, e2, side)] = rng.randint(1, 12)
        for a in rng.sample(range(2 if odd else 1, 6, 2), rng.randint(0, 2)):
            k = rng.randint(1, 12)
            phi += [PhiComponent(ln, a)] * (k - k % 2 if ln.cls == BAD else k)
            if ln.cls == GOOD and rng.random() < 0.5:
                minus.append(PhiComponent(ln, a))
        n = Multisegment(d for d, k in segs.items() for _ in range(k))
        yield transfer(LanglandsData(n, phi, eta_minus=minus))


def _capacity_mult_records(s):
    yield str(s)
    (ln,) = s.lines()
    emax2 = max(d.e.twice for d in s.m)
    for side in (0, 1) if ln.cls == UGLY else (None,):
        for t in _gl_targets(ln, side, -emax2, emax2):
            yield f"{t} {kz_capacity(s.m, t)} {kz_capacity_labeled(s, t)}"


def test_capacities_at_multiplicity_are_byte_identical():
    """kz_capacity and kz_capacity_labeled at every target within the end
    range of 200 seeded states whose values have multiplicities of 1 to 12;
    recorded before the capacities ran on distinct values."""
    records = (r for s in _capacity_mult_states() for r in _capacity_mult_records(s))
    assert _digest(records) == CAPACITY_MULT_SHA256


def test_capacity_compares_the_whole_line():
    """A target on a line with the same id but another class meets nothing."""
    g = LINES[0]
    twin = Line(g.id, BAD, g.grid)
    s = transfer(LanglandsData(Multisegment([_gl_seg(g, -2, 0)]), []))
    assert kz_capacity_labeled(s, _gl_seg(g, -2, 0)) == 1
    assert kz_capacity_labeled(s, _gl_seg(twin, -2, 0)) == 0
    assert kz_capacity(s.m, _gl_seg(g, -2, 0)) == 1
    assert kz_capacity(s.m, _gl_seg(twin, -2, 0)) == 0


def test_an_empty_target_has_capacity_0_before_validation():
    bad = SignedSymMultisegment(Multisegment([_gl_seg(LINES[0], 0, 2)]))
    assert kz_capacity_labeled(bad, _gl_seg(LINES[0], 2, 0)) == 0
    with pytest.raises(DomainError):
        kz_capacity_labeled(bad, _gl_seg(LINES[0], 0, 0))


def _wide_mirror_states():
    """200 seeded mirror-line states, each with 20 to 200 side-0 segments
    whose ends lie on a sparse random set of [-50, 50], so that a chain and
    the walk down from the top end cross ends that hold no copy."""
    rng = random.Random(4495)
    u = LINES[4]
    for _ in range(200):
        ends = rng.sample(range(-50, 51), rng.randint(3, 25))
        segs = []
        for _ in range(rng.randint(20, 200)):
            e = rng.choice(ends)
            b = max(-50, e - rng.choice((0, 1, 2, 5, 10, 30, 100)))
            b = rng.randint(b, e)
            segs.append(_gl_seg(u, 2 * b, 2 * e, 0))
        yield SignedSymMultisegment([*segs, *map(seg_dual, segs)])


def test_wide_mirror_line_duals_and_steps_are_byte_identical():
    """ad_symm, ad_step and ad_initial_sequence on 200 wide mirror-line
    states, recorded before mirror lines ran on the GL chain extractor."""
    lines = []
    for s in _wide_mirror_states():
        piece, rest = ad_step(s)
        lines.append(render_output(ad_symm(s)))
        lines.append(render_output(piece) + render_output(rest))
        lines.append(repr(ad_initial_sequence(s)))
    assert _digest(lines) == WIDE_MIRROR_SHA256


def _cli_texts():
    """The inputs of the parser and command tests, DSL and JSON."""
    lines = [{"id": "rho", "class": "good", "grid": "integral"}]
    one = [{"line": "rho", "b": "0", "e": "0"}]
    docs = [
        {"lines": [], "m": one}, {"m": 5}, {"lines": 5}, {"lines": lines, "phi": "S3"},
        {"lines": lines, "m": [], "eps": {}},
        {"lines": [{"id": "u", "class": "ugly", "grid": "integral"}],
         "m": [{"line": "u", "b": "0", "e": "0", "side": True}]},
        {"lines": lines, "m": one * 2, "eps": [{**one[0], "sign": -1}, {**one[0], "sign": 1}]},
        {"lines": lines, "phi": [{"line": "rho", "a": 1, "eta": 1},
                                 {"line": "rho", "a": 1, "eta": -1}]},
        {"lines": lines, "phi": [{"line": "rho", "a": 1}, {"line": "rho", "a": 1, "eta": -1}]},
        {"lines": lines, "m": [], "phi": [{"line": "rho", "a": MAX_DEGREE + 1}]},
    ]
    for block in ({"a": 3.7}, {"a": True}, {"eta": 5}, {"eta": True}, {}, {"eta": 1}, {"eta": -1}):
        docs.append({"lines": lines, "m": [], "phi": [{"line": "rho", "a": 3, **block}]})
    for ends in ({"b": True}, {"e": True}, {}):
        docs.append({"lines": lines, "m": [{"line": "rho", "b": "-1", "e": "1", **ends}]})
    texts = [json.dumps(doc) for doc in docs]
    long = "1" * 5000
    texts += [json.dumps(doc).replace('"LONG"', long) for doc in (
        {"lines": lines, "m": [], "phi": [{"line": "rho", "a": "LONG"}]},
        {"lines": lines, "m": [{"line": "rho", "b": "0", "e": "LONG"}]},
        {"lines": lines, "m": [{"line": "rho", "b": "LONG", "e": 0}]})]
    texts += [
        "[-2,0]+[0,2]", "2*[0,0]:-+[-1,1]:+", "[-3,-1]+[-2,0]+[-2,-2]+[-1,0] ; S3", "",
        "[-1,0]@a!+[0,1]@a!", "[-2,-1]~", "[-1/2,1/2]", "[0,0]+?!", "   [0,0]+?",
        "\t [0,0] + [1,1]?", "  [-1,1] ;  S3+?", "  [-1,1] ;  S3+S1;", '  {"m": ]}',
        "S3+[0,0]", "[0,0] ; [0,0]", "[0,0]+[3/2,3/2]", "[-1/2,1/2]~", "[0,0]++[1,1]",
        "[0,0]:++[0,1]", "10000000000000000000*[0,0]", "9" * 5000 + "*[0,0]",
        f"[0,0]+{MAX_MULT + 1}*[0,0]:+", f"[0,0] ; {MAX_MULT + 1}*S1", f"{MAX_MULT}*[0,0]",
        "007*[0,0]", "[0,0]:- + [0,0]:+", "[-1,-1] ; S1:+ + S1:-", "[0,0]+[0,0]:-",
        "[0,0]:-+[0,0]:-", "2*[0,0]:-", " ; S1+S1:-", " ; 2*S1:-", f" ; S{MAX_DEGREE + 1}",
        f"{MAX_MULT}*[0,9]+[0,0]", f"{MAX_MULT}*[-4,0] ; S1", " ; S50001@u~",
        f"{MAX_MULT // 2}*[-9,0] ; ", f" ; S{MAX_DEGREE - 1}+S1", f"[0,{long}]",
        f"[0,0]+[-{long}/2,0]", f"; S{long}", "; S2000000001", "[0,0000001]",
        "[999999,999999]", "[-2,1]@rho", "[0,0]:-", "[-2,1]", "[0,0]", "[0,0]+[1,1]",
        "[3,3]+[-3,-3]+3*[-1,1]:++3*[-2,2]:-+2*[-3,3]:+", "[1,3]", "[-2,-2]+[2,2]+[-1,1]",
        "[-3/2,-3/2]+[3/2,3/2]", "[-3,0]+[0,3]", "[0,0]@a+[0,0]@a+[0,0]@b+[0,0]@b",
        "[0,1]+[-1,0]", "[-2,1] ; S3",
    ]
    return texts


_GOLDEN_DSL = (
    "[-3,-1]+[-2,0]+[-2,-2]+[-1,0] ; S3", "[-2,0]+[-3,1] ; S5",
    "[-3,-1]@u~+[-2,-1]@u~+[-2,0]@u~ ;", "[-3,-2]@u~+[-2,-1]@u~+[-2,-2]@u~+[-1,0]@u~+[-1,-1]@u~ ;",
    "[-2,1]@u~ ;", "[-2,-2]@u~+[-1,-1]@u~+[-1,-1]~@u ; S1@u",
    "[-1,0]@b! ;", "[-1,-1]@b! ; 2*S1@b", "2*[-1,0]@b! ;", "[-1,0] ;",
    "[-2,-2] ; 2*S1:-+S3", "[-2,0] ; S1", "[-3,-3] ; 3*S3+3*S5:-+2*S7",
    "[-3,-1]+[-3,-2]+[-3,-3]+2*[-2,-2]+5*[-1,-1] ; 6*S1:-+S3+S5:-",
    "[-2,-2]+[0,0]:-+[-1,1]+[2,2]", "[-2,2]+[0,0]:-",
)


def _golden_texts():
    """The worked duals' inputs and outputs as DSL, and as canonical JSON."""
    out = []
    for text in _GOLDEN_DSL:
        out.append(text)
        out.append(render_output(parse_input(text)))
    return out


def _malformed_texts():
    """Seeded DSL and JSON texts, most of them malformed: empty, degenerate
    and off-grid segments, ``0*`` terms and signs on them, mirror marks and
    sides where they do not belong, lines marked two ways, contradictory
    signs, invalid symmetric states, at most one non-centered value signed
    -1 per text, and both caps."""
    rng = random.Random(16)
    grids = (["0", "1", "-1", "2", "-2", "3"], ["1/2", "-1/2", "3/2", "-3/2", "5/2"])

    def centered(b, e):
        b2, e2 = HalfInt.parse(b).twice, HalfInt.parse(e).twice
        return b2 + e2 == 0 and e2 >= b2

    def ident():
        return rng.choice(["", "", "", "@a", "@a!", "@b!", "@a~"])

    out = []
    for _ in range(700):
        grid = rng.choice(grids)
        terms, noncentered = [], False
        for _ in range(rng.randint(1, 4)):
            pick = grid if rng.random() < 0.93 else rng.choice(grids)
            if rng.random() < 0.5:
                e = rng.choice(pick)
                b = e if rng.random() < 0.3 else str(-HalfInt.parse(e)).replace("--", "")
            else:
                b, e = rng.choice(pick), rng.choice(pick)
            sign = rng.choice(["", "", ":+", ":-"])
            if sign == ":-" and not centered(b, e):
                if noncentered:
                    sign = ""
                noncentered = True
            mult = rng.choice(["", "", "", "0*", "2*", "3*", f"{MAX_MULT}*"])
            mirror = "~" if rng.random() < 0.08 else ""
            terms.append(f"{mult}[{b},{e}]{mirror}{ident()}{sign}")
        text = "+".join(terms)
        if rng.random() < 0.4:
            blocks = [f"{rng.choice(['', '', '0*', '2*'])}S{rng.randint(0, 5)}"
                      f"{ident()}{rng.choice(['', ':+', ':-'])}"
                      for _ in range(rng.randint(0, 3))]
            text += " ; " + "+".join(blocks)
        out.append(text)
    classes = [("good", "integral"), ("good", "half-integral"), ("bad", "integral"),
               ("bad", "half-integral"), ("ugly", "integral")]
    for _ in range(500):
        lines = [{"id": i, "class": cls, "grid": grid}
                 for i, (cls, grid) in zip(("a", "b"), rng.sample(classes, 2))]
        if rng.random() < 0.03:
            lines.append(dict(lines[0]))
        if rng.random() < 0.03:
            lines[1]["class"] = rng.choice(["odd", "ugly"])
        halves = grids[lines[0]["grid"] != "integral"] + rng.sample(grids[1], 1)

        def rec():
            r = {"line": rng.choice(["a", "a", "a", "b", "c"]),
                 "b": rng.choice(halves), "e": rng.choice(halves)}
            side = rng.choice([None, None, None, 0, 1, 1, 2, True])
            if side is not None:
                r["side"] = side
            return r
        doc = {"lines": lines, "m": [rec() for _ in range(rng.randint(0, 4))]}
        if rng.random() < 0.4:
            doc["phi"] = [{"line": rng.choice(["a", "a", "b", "c"]),
                           "a": rng.choice([0, 1, 2, 3, 4, True])}
                          for _ in range(rng.randint(0, 3))]
            for r in doc["phi"]:
                if rng.random() < 0.5:
                    r["eta"] = rng.choice([1, -1, 1, -1, 0])
        elif rng.random() < 0.7:
            doc["eps"], noncentered = [], False
            for _ in range(rng.randint(0, 3)):
                r = {**rng.choice(doc["m"] + [rec()]), "sign": rng.choice([1, -1, -1, 2])}
                if r["sign"] == -1 and not centered(r["b"], r["e"]):
                    if noncentered:
                        r["sign"] = 1
                    noncentered = True
                doc["eps"].append(r)
        out.append(json.dumps(doc))
    return out


def _sampled_texts():
    """The canonical JSON and the text form of seeded valid data, and of
    their symmetric states."""
    out = []
    for d in enumerate_data(3, 3, 2, LINES, mode="sampled", count=60, seed=5):
        s = transfer(d)
        out += [render_output(d), str(d), render_output(s), render_output(s.m)]
    return out


def _parse_record(text):
    try:
        return render_output(parse_input(text))
    except Exception as err:  # noqa: BLE001 - the record names any failure
        return f"{type(err).__name__}: {err}"


def test_parses_are_byte_identical():
    """parse_input of a fixed corpus, DSL and JSON: the command tests'
    inputs, the worked duals, seeded malformed texts and seeded valid data.
    Each record is the canonical JSON of the parsed value or the error's
    type and text; recorded before the parsers built int forms."""
    texts = _cli_texts() + _golden_texts() + _malformed_texts() + _sampled_texts()
    assert _digest(_parse_record(t) for t in texts) == PARSE_SHA256
