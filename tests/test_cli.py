"""DSL and JSON parsing, canonical rendering, and subcommand behavior."""
import io
import json
import os
import shlex
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import azdual.cli
import azdual.langdata
import azdual.segments
from azdual.segments import (
    BAD,
    GOOD,
    GRID_HALF,
    GRID_INT,
    UGLY,
    HalfInt,
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
)
from azdual.cli import (
    MAX_DEGREE,
    MAX_DIGITS,
    MAX_MULT,
    ParseError,
    main,
    parse_input,
    render_doc,
    render_output,
)
from azdual.verify import standard_sweep

G = Line("rho", GOOD, GRID_INT)


def seg(b, e, ln=G, side=None):
    return Segment(ln, half(b), half(e), side=side)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


WALKTHROUGH = "[-3,-1]+[-2,0]+[-2,-2]+[-1,0] ; S3"
WALKTHROUGH_DUAL = LanglandsData(
    Multisegment([seg(-2, 0), seg(-3, 1)]), (PhiComponent(G, 5),)
)


class TestParse:
    def test_plain_multisegment(self):
        x = parse_input("[-2,0]+[0,2]")
        assert isinstance(x, Multisegment) and not isinstance(
            x, SignedSymMultisegment
        )
        assert x == Multisegment([seg(-2, 0), seg(0, 2)])

    def test_sign_marks_make_it_signed(self):
        x = parse_input("2*[0,0]:-+[-1,1]:+")
        assert isinstance(x, SignedSymMultisegment)
        assert x.eps(seg(0, 0)) == -1 and x.eps(seg(-1, 1)) == 1
        assert list(x.m).count(seg(0, 0)) == 2

    def test_datum_with_blocks(self):
        x = parse_input(WALKTHROUGH)
        assert isinstance(x, LanglandsData)
        assert x.phi == (PhiComponent(G, 3),)

    def test_empty_text_is_the_empty_datum(self):
        x = parse_input("")
        assert isinstance(x, LanglandsData) and not x

    def test_class_marks_and_mirror_side(self):
        x = parse_input("[-1,0]@a!+[0,1]@a!")
        ln = x.lines()[0]
        assert ln.cls == BAD and ln.grid == GRID_INT
        y = parse_input("[-2,-1]~")
        d = y.entries[0]
        assert d.line.cls == UGLY and d.side == 1

    def test_half_grid_is_inferred(self):
        x = parse_input("[-1/2,1/2]")
        assert x.lines()[0].grid == GRID_HALF

    def test_json_datum_round_trips(self):
        want = LanglandsData(
            Multisegment([seg(-3, -1), seg(-2, 0), seg(-2, -2), seg(-1, 0)]),
            (PhiComponent(G, 3),),
        )
        got = parse_input(json.dumps(render_doc(want)))
        assert got == want

    def test_syntax_error_carries_its_position(self):
        with pytest.raises(ParseError, match="cannot read") as info:
            parse_input("[0,0]+?!")
        assert info.value.pos == 6
        assert str(info.value).startswith("at position 6")

    @pytest.mark.parametrize("text, pos", [
        pytest.param("   [0,0]+?", 9, id="segment-part"),
        pytest.param("\t [0,0] + [1,1]?", 10, id="segment-part-tab"),
        pytest.param("  [-1,1] ;  S3+?", 15, id="block-part"),
        pytest.param("  [-1,1] ;  S3+S1;", 15, id="block-part-separator"),
    ])
    def test_error_positions_count_leading_blanks(self, text, pos):
        with pytest.raises(ParseError) as info:
            parse_input(text)
        assert info.value.pos == pos
        assert str(info.value).startswith(f"at position {pos}:")

    def test_json_error_positions_count_leading_blanks(self):
        with pytest.raises(ParseError) as info:
            parse_input('  {"m": ]}')
        assert info.value.pos == 8

    def test_blocks_belong_after_the_separator(self):
        with pytest.raises(ParseError, match="blocks belong after ';'"):
            parse_input("S3+[0,0]")

    def test_only_blocks_after_the_separator(self):
        with pytest.raises(ParseError, match="only S<a> blocks"):
            parse_input("[0,0] ; [0,0]")

    def test_mixed_grids_are_refused(self):
        with pytest.raises(ParseError, match="mixed integral and half-integral"):
            parse_input("[0,0]+[3/2,3/2]")

    def test_mirror_needs_an_integral_grid(self):
        with pytest.raises(ParseError, match="half-integral coefficient"):
            parse_input("[-1/2,1/2]~")

    def test_empty_term_is_refused(self):
        with pytest.raises(ParseError, match="empty term"):
            parse_input("[0,0]++[1,1]")

    def test_validation_failures_surface(self):
        with pytest.raises(ParseError, match="symmetry violation"):
            parse_input("[0,0]:++[0,1]")

    def test_json_needs_declared_lines(self):
        doc = {"lines": [], "m": [{"line": "rho", "b": "0", "e": "0"}]}
        with pytest.raises(ParseError, match="undeclared line"):
            parse_input(json.dumps(doc))

    @pytest.mark.parametrize("text, pos", [
        pytest.param("10000000000000000000*[0,0]", 0, id="20-digit"),
        pytest.param("9" * 5000 + "*[0,0]", 0, id="5000-digit"),
        pytest.param(f"[0,0]+{MAX_MULT + 1}*[0,0]:+", 6, id="cap-plus-one"),
        pytest.param(f"[0,0] ; {MAX_MULT + 1}*S1", 8, id="block-cap-plus-one"),
    ])
    def test_multiplicity_above_the_cap_is_refused(self, text, pos):
        """The cap is checked before the term is expanded."""
        with pytest.raises(ParseError, match=f"multiplicity above the cap of {MAX_MULT}") as info:
            parse_input(text)
        assert info.value.pos == pos
        code, out, err = run(["dual", text])
        assert code == 1 and out == ""
        assert err.startswith("error: at position") and err.count("\n") == 1

    def test_multiplicity_at_the_cap_is_read(self):
        assert len(parse_input(f"{MAX_MULT}*[0,0]")) == MAX_MULT
        assert len(parse_input("007*[0,0]")) == 7


LINES_DOC = [{"id": "rho", "class": "good", "grid": "integral"}]


def _datum_doc(**block):
    return {"lines": LINES_DOC, "m": [], "phi": [{"line": "rho", "a": 3, **block}]}


def _segment_doc(**ends):
    return {"lines": LINES_DOC, "m": [{"line": "rho", "b": "-1", "e": "1", **ends}]}


class TestStrictJson:
    """Wrong JSON types end in one ParseError line, never a traceback or a
    silent coercion."""

    @pytest.mark.parametrize("doc, msg", [
        pytest.param({"m": 5}, "'m' must be a list", id="m-not-a-list"),
        pytest.param({"lines": 5}, "'lines' must be a list", id="lines-not-a-list"),
        pytest.param({"lines": LINES_DOC, "phi": "S3"}, "'phi' must be a list",
                     id="phi-not-a-list"),
        pytest.param({"lines": LINES_DOC, "m": [], "eps": {}}, "'eps' must be a list",
                     id="eps-not-a-list"),
        pytest.param(_datum_doc(a=3.7), "bad block record", id="float-a"),
        pytest.param(_datum_doc(a=True), "bad block record", id="bool-a"),
        pytest.param(_segment_doc(b=True), "segment beginning", id="bool-b"),
        pytest.param(_segment_doc(e=True), "segment end", id="bool-e"),
        pytest.param(_datum_doc(eta=5), "needs eta 1 or -1", id="eta-5"),
        pytest.param(_datum_doc(eta=True), "needs eta 1 or -1", id="bool-eta"),
        pytest.param(
            {"lines": [{"id": "u", "class": "ugly", "grid": "integral"}],
             "m": [{"line": "u", "b": "0", "e": "0", "side": True}]},
            "integer side", id="bool-side"),
    ])
    def test_wrong_type_is_a_one_line_parse_error(self, doc, msg):
        text = json.dumps(doc)
        with pytest.raises(ParseError, match=msg):
            parse_input(text)
        code, out, err = run(["validate", text])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_eta_is_plus_or_minus_one_or_absent(self):
        for block, minus in (({}, False), ({"eta": 1}, False), ({"eta": -1}, True)):
            got = parse_input(json.dumps(_datum_doc(**block)))
            assert bool(got.eta_minus) is minus
            assert render_doc(got)["phi"][0]["eta"] == (-1 if minus else 1)


SIGNED_ZERO = {"lines": LINES_DOC, "m": [{"line": "rho", "b": "0", "e": "0"}] * 2}


class TestSignMarks:
    """A value holds one sign: marking it both ways is refused, naming the
    value; leaving the mark off a copy is not."""

    @pytest.mark.parametrize("text, msg", [
        pytest.param("[0,0]:- + [0,0]:+", "at position 10: contradictory signs on [0,0]@rho",
                     id="dsl-segment"),
        pytest.param("[-1,-1] ; S1:+ + S1:-", "at position 17: contradictory signs on S1@rho",
                     id="dsl-block"),
        pytest.param(json.dumps(dict(SIGNED_ZERO, eps=[
            {"line": "rho", "b": "0", "e": "0", "sign": -1},
            {"line": "rho", "b": "0", "e": "0", "sign": 1}])),
            "contradictory signs on [0,0]@rho", id="json-eps"),
        pytest.param(json.dumps({"lines": LINES_DOC, "phi": [
            {"line": "rho", "a": 1, "eta": 1}, {"line": "rho", "a": 1, "eta": -1}]}),
            "contradictory signs on S1@rho", id="json-eta"),
    ])
    def test_both_signs_on_one_value_are_refused(self, text, msg):
        code, out, err = run(["dual", text])
        assert (code, out, err) == (1, "", f"error: {msg}\n")

    def test_an_unmarked_copy_takes_the_mark(self):
        assert parse_input("[0,0]+[0,0]:-") == parse_input("2*[0,0]:-")
        assert parse_input("[0,0]:-+[0,0]:-") == parse_input("2*[0,0]:-")
        assert parse_input(" ; S1+S1:-") == parse_input(" ; 2*S1:-")
        blocks = [{"line": "rho", "a": 1}, {"line": "rho", "a": 1, "eta": -1}]
        assert parse_input(json.dumps({"lines": LINES_DOC, "phi": blocks})) == parse_input(
            " ; 2*S1:-")


LONG = "1" * 5000


class TestInputSize:
    """The total degree and the length of each number are capped when the
    input is parsed, so no dual ever runs on an input over the cap."""

    @pytest.mark.parametrize("text, degree", [
        pytest.param(f" ; S{MAX_DEGREE + 1}", MAX_DEGREE + 1, id="block"),
        pytest.param(f"{MAX_MULT}*[0,9]+[0,0]", MAX_DEGREE + 1, id="segments"),
        pytest.param(f"{MAX_MULT}*[-4,0] ; S1", MAX_DEGREE + 1, id="data"),
        pytest.param(" ; S50001@u~", 100_002, id="mirror-block"),
    ])
    def test_degree_above_the_cap_is_refused(self, text, degree, monkeypatch):
        def never(*args):
            raise AssertionError("the dual ran")

        monkeypatch.setattr("azdual.cli.ad_data", never)
        monkeypatch.setattr("azdual.cli.ad_symm", never)
        with pytest.raises(ParseError, match=f"total degree {degree} above the cap"):
            parse_input(text)
        code, out, err = run(["dual", text])
        assert code == 1 and out == ""
        assert err == f"error: total degree {degree} above the cap of {MAX_DEGREE}\n"

    @pytest.mark.parametrize("text", [
        pytest.param("+".join([f"{MAX_MULT}*[0,0]"] * 1000), id="segments"),
        pytest.param(" ; " + "+".join([f"{MAX_MULT}*S1"] * 1000), id="blocks"),
    ])
    def test_many_capped_terms_are_counted_not_expanded(self, text):
        """A thousand terms at the multiplicity cap are refused by the degree
        cap without their copies ever being listed."""
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            with pytest.raises(ParseError) as info:
                parse_input(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - t0 < 1.0
        assert str(info.value) == f"total degree 10000000 above the cap of {MAX_DEGREE}"
        assert peak < 4_000_000

    @pytest.mark.parametrize("argv, head, peak_mb", [
        pytest.param(["derive", "10000*[1,2]+10000*[-2,-1]+10000*[0,1]+10000*[-1,0]",
                      "--x=2"], '{"k":0,', 20, id="derive-good"),
        pytest.param(["derive", "+".join(
            [f"7999*{t}@r!" for t in ("[1,2]", "[-2,-1]", "[0,1]", "[-1,0]")]
            + [f"7998*{t}@r!" for t in ("[0,0]", "[-1,1]")]), "--x=1"],
            '{"k":7999,', 20, id="derive-bad-drop"),
        pytest.param(["capacity", "10000*[0,1]+10000*[-1,0]+10000*[1,2]+10000*[-2,-1]",
                      "--target", "[0,1]"], "20000\n", 2, id="capacity"),
        pytest.param(["capacity", "--labeled",
                      "10000*[0,1]+10000*[-1,0]+10000*[1,2]+10000*[-2,-1]",
                      "--target", "[0,1]"], "20000\n", 2, id="capacity-labeled"),
        pytest.param(["mw", "10000*[0,1]+10000*[1,2]+10000*[-1,0]+10000*[2,3]"],
                     "[-1,2]+", 4, id="mw"),
        pytest.param(["dual", "10000*[0,1]@r~+10000*[-1,0]~@r~"
                      "+10000*[1,2]@r~+10000*[-2,-1]~@r~"],
                     '{"lines":[{"id":"r","class":"ugly",', 10, id="dual-mirror"),
        pytest.param(["dual", "4000*[-5,-1]+3000*[-3,2]+2000*[-4,0]+1000*[-2,-2]"
                      " ; 999*S1+200*S3"],
                     '{"lines":[{"id":"rho","class":"good",', 4, id="dual-good"),
        pytest.param(["dual", "4000*[-5,-1]@r!+3000*[-3,2]@r!+2000*[-4,0]@r!+1000*[-2,-2]@r!"
                      " ; 998*S1@r!+200*S3@r!"],
                     '{"lines":[{"id":"r","class":"bad",', 4, id="dual-bad"),
        pytest.param(["validate", "10000*[1,2]+10000*[-2,-1]+10000*[0,1]+10000*[-1,0]"],
                     "OK\n", 1, id="validate"),
    ])
    def test_commands_at_the_cap_run_on_counts(self, argv, head, peak_mb):
        """Four values at about the multiplicity cap: the derivative's
        matching, the capacities, the transpose, the dual on each line class
        and the validation run on the counts, not on one item per copy (the
        bad-line ``derive`` has an odd boundary count, so its matching bars
        one pair).  The time is taken without tracemalloc, which slows
        ``derive``'s 40,000 output records tenfold; the peaks of ``derive``,
        ``mw`` and ``dual`` are their output text, which lists every copy."""
        t0 = time.perf_counter()
        code, out, err = run(argv)
        assert time.perf_counter() - t0 < 1.0
        assert (code, err) == (0, "") and out.startswith(head)
        tracemalloc.start()
        try:
            run(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < peak_mb * 1_000_000

    def test_json_degree_above_the_cap_is_refused(self):
        doc = {"lines": LINES_DOC, "m": [],
               "phi": [{"line": "rho", "a": MAX_DEGREE + 1}]}
        with pytest.raises(ParseError, match="above the cap"):
            parse_input(json.dumps(doc))

    def test_degree_at_the_cap_is_read(self):
        assert 2 * parse_input(f"{MAX_MULT // 2}*[-9,0] ; ").n.degree == MAX_DEGREE
        x = parse_input(f" ; S{MAX_DEGREE - 1}+S1")
        assert sum(p.a for p in x.phi) == MAX_DEGREE

    @pytest.mark.parametrize("text, pos", [
        pytest.param(f"[0,{LONG}]", 0, id="segment-end"),
        pytest.param(f"[0,0]+[-{LONG}/2,0]", 6, id="half-beginning"),
        pytest.param(f"; S{LONG}", 2, id="block"),
        pytest.param("; S2000000001", 2, id="ten-digit-block"),
        pytest.param("[0,0000001]", 0, id="leading-zeros"),
    ])
    def test_long_dsl_number_is_refused(self, text, pos):
        with pytest.raises(ParseError, match=f"more than {MAX_DIGITS} digits") as info:
            parse_input(text)
        assert info.value.pos == pos
        code, out, err = run(["dual", text])
        assert code == 1 and out == ""
        assert err.startswith("error: at position") and err.count("\n") == 1

    @pytest.mark.parametrize("doc", [
        pytest.param({"lines": LINES_DOC, "m": [], "phi": [{"line": "rho", "a": "LONG"}]},
                     id="json-int"),
        pytest.param({"lines": LINES_DOC, "m": [{"line": "rho", "b": "0", "e": LONG}]},
                     id="string-end"),
        pytest.param({"lines": LINES_DOC, "m": [{"line": "rho", "b": "LONG", "e": 0}]},
                     id="json-int-beginning"),
    ])
    def test_long_json_number_is_refused(self, doc):
        text = json.dumps(doc).replace('"LONG"', LONG)
        with pytest.raises(ParseError, match=f"more than {MAX_DIGITS} digits"):
            parse_input(text)
        code, out, err = run(["validate", text])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_long_twist_is_refused(self):
        code, out, err = run(["derive", "[0,0]", f"--x={LONG}"])
        assert code == 1 and out == ""
        assert err.startswith("error: number 1111") and err.count("\n") == 1

    def test_six_digit_coordinates_are_read(self):
        assert parse_input("[999999,999999]").entries[0].e == HalfInt(999999)


class TestRender:
    def test_parse_of_render_is_identity(self):
        objs = [
            Multisegment([seg(-2, 1), seg(0, 0)]),
            SignedSymMultisegment(
                Multisegment([seg(0, 0), seg(-1, 1)]), minus=[seg(-1, 1)]
            ),
            WALKTHROUGH_DUAL,
            LanglandsData(),
        ]
        for x in objs:
            text = render_output(x)
            assert parse_input(text) == x
            assert render_output(parse_input(text)) == text

    def test_empty_documents_are_canonical(self):
        assert render_output(LanglandsData()) == '{"lines":[],"m":[],"phi":[]}'
        assert (
            render_output(SignedSymMultisegment(Multisegment()))
            == '{"lines":[],"m":[],"eps":[]}'
        )

    def test_eps_records_are_sorted_and_complete(self):
        s = SignedSymMultisegment(
            Multisegment([seg(-2, 2), seg(0, 0), seg(-1, 1)]), minus=[seg(0, 0)]
        )
        doc = render_doc(s)
        assert [rec["sign"] for rec in doc["eps"]] == [-1, 1, 1]
        assert [rec["e"] for rec in doc["eps"]] == ["0", "1", "2"]

    XG, XB = Line("x", GOOD, GRID_INT), Line("x", BAD, GRID_INT)
    LINES_X = '{"lines":[{"id":"x","class":"good","grid":"integral"}]'
    ZERO = '{"line":"x","b":"0","e":"0"}'

    @pytest.mark.parametrize("first, second", [(XG, XB), (XB, XG)], ids=["good-first", "bad-first"])
    def test_records_sharing_an_id_and_a_key_keep_the_form_order(self, first, second):
        """Two lines declaring one id may hold the same key (an invalid state,
        still rendered): their records keep the order of the state's form."""
        G0 = seg(0, 0, self.XG)
        pair = [seg(0, 0, first), seg(0, 0, second)]
        assert render_output(Multisegment(pair)) == f'{self.LINES_X},"m":[{self.ZERO},{self.ZERO}]}}'
        wide = Multisegment([seg(-1, 1, first), seg(0, 0, second), seg(0, 0, first)])
        assert render_output(wide) == (f'{self.LINES_X},"m":[{self.ZERO},{self.ZERO},'
                                       '{"line":"x","b":"-1","e":"1"}]}')
        lines = [f'{{"id":"x","class":"{ln.cls}","grid":"integral"}}' for ln in (first, second)]
        assert render_output(SignedSymMultisegment(Multisegment(pair), minus=[G0])) == (
            f'{{"lines":[{",".join(lines)}],"m":[{self.ZERO},{self.ZERO}],'
            '"eps":[{"line":"x","b":"0","e":"0","sign":-1}]}')
        blocks = [PhiComponent(first, 1), PhiComponent(second, 1)]
        for eta_minus, eta in (((), 1), ((PhiComponent(self.XG, 1),), -1)):
            recs = {self.XG: f'{{"line":"x","a":1,"eta":{eta}}}', self.XB: '{"line":"x","a":1}'}
            assert render_output(LanglandsData(phi=blocks, eta_minus=eta_minus)) == (
                f'{self.LINES_X},"m":[],"phi":[{recs[first]},{recs[second]}]}}')


class TestCommands:
    def test_dual_of_the_walkthrough(self):
        code, out, _ = run(["dual", WALKTHROUGH])
        assert code == 0
        assert out.strip() == render_output(WALKTHROUGH_DUAL)

    def test_dual_reads_files(self, tmp_path):
        p = tmp_path / "datum.json"
        x = parse_input(WALKTHROUGH)
        p.write_text(json.dumps(render_doc(x)), encoding="utf-8")
        code, out, _ = run(["dual", str(p)])
        assert code == 0
        assert out.strip() == render_output(WALKTHROUGH_DUAL)

    def test_mw_golden(self):
        code, out, _ = run(["mw", "[-2,1]@rho"])
        assert code == 0
        assert out.strip() == "[-2,-2]+[-1,-1]+[0,0]+[1,1]"

    def test_mw_rejects_signed_input(self):
        code, _, err = run(["mw", "[0,0]:-"])
        assert code == 1
        assert "plain multisegment" in err

    def test_capacity_plain(self):
        code, out, _ = run(["capacity", "[-2,1]", "--target", "[0,0]"])
        assert code == 0 and out.strip() == "1"

    def test_capacity_labeled(self):
        code, out, _ = run([
            "capacity",
            "[3,3]+[-3,-3]+3*[-1,1]:++3*[-2,2]:-+2*[-3,3]:+",
            "--target", "[1,3]",
            "--labeled",
        ])
        assert code == 0 and out.strip() == "2"

    def test_capacity_target_must_be_single(self):
        code, _, err = run(["capacity", "[-2,1]", "--target", "[0,0]+[1,1]"])
        assert code == 1 and "single segment" in err

    def test_derive_twist_json_shape(self):
        code, out, _ = run(["derive", "[-2,-2]+[2,2]+[-1,1]", "--x", "-2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["k"] == 1
        assert doc["result"]["m"] == [{"line": "rho", "b": "-1", "e": "1"}]

    def test_derive_accepts_equals_form_for_negative_x(self):
        code, out, _ = run(["derive", "[-3/2,-3/2]+[3/2,3/2]", "--x=-3/2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["k"] == 1 and doc["result"]["m"] == []

    def test_derive_zero_chunk(self):
        code, out, _ = run(["derive", "[-3,0]+[0,3]", "--L-chunk"])
        assert code == 0
        doc = json.loads(out)
        assert doc["k"] == 1
        assert doc["result"]["m"] == [
            {"line": "rho", "b": "2", "e": "3"},
            {"line": "rho", "b": "-3", "e": "-2"},
        ]

    def test_derive_needs_an_operator(self):
        code, _, err = run(["derive", "[0,0]"])
        assert code == 1 and "--x or --L-chunk" in err

    def test_derive_multi_line_needs_line_flag(self):
        text = "[0,0]@a+[0,0]@a+[0,0]@b+[0,0]@b"
        code, _, err = run(["derive", text, "--x", "1"])
        assert code == 1 and "pass --line" in err
        code, out, _ = run(["derive", text, "--x", "1", "--line", "a"])
        assert code == 0 and json.loads(out)["k"] == 0

    def test_validate_accepts_and_reports(self):
        code, out, _ = run(["validate", "[0,1]+[-1,0]"])
        assert code == 0 and out.strip() == "OK"
        code, out, _ = run(["validate", "[0,0]:++[0,1]"])
        assert code == 1
        assert "symmetry violation" in out

    def test_check_small_sweep_passes(self):
        code, out, _ = run([
            "check", "--max-coeff", "1",
            "--suite", "involution", "--suite", "roundtrip",
        ])
        assert code == 0
        rep = json.loads(out)
        assert rep["pass"] is True
        assert sorted(rep["suites"]) == ["involution", "roundtrip"]
        expect = len(list(standard_sweep(1, 3, 3)))
        for entry in rep["suites"].values():
            assert entry["checked"] == expect

    def test_check_seeded_shuffle_is_reproducible(self):
        a = run(["check", "--max-coeff", "1", "--suite", "involution",
                 "--seed", "5"])
        b = run(["check", "--max-coeff", "1", "--suite", "involution",
                 "--seed", "5"])
        assert a == b and a[0] == 0

    def test_dataset_rows_and_summary(self, tmp_path):
        p = tmp_path / "rows.jsonl"
        code, out, _ = run([
            "dataset", "--N", "2", "--km", "2", "--kphi", "2",
            "--count", "15", "--seed", "3", "--out", str(p),
        ])
        assert code == 0
        summary = json.loads(out)
        assert summary["count"] == 15 and summary["seed"] == 3
        assert summary["emax_violations"] == 0
        assert summary["degree_violations"] == 0
        rows = p.read_text().splitlines()
        assert len(rows) == 15
        rec = json.loads(rows[0])
        assert set(rec) == {"input", "dual", "degree", "e_max", "sign_products"}

    def test_dataset_builds_no_segment_view(self, tmp_path, monkeypatch):
        """A dataset row reads its symmetric states in their int form: no
        transfer or dual result builds its ``.m``."""
        seen = []
        view = SignedSymMultisegment.m
        monkeypatch.setattr(SignedSymMultisegment, "m",
                            property(lambda s: seen.append(s) or view.fget(s)))
        code, _, _ = run(["dataset", "--count", "200",
                          "--out", str(tmp_path / "rows.jsonl")])
        assert code == 0 and seen == []
        assert str(parse_input("[0,0]:-")) == "[0,0]@rho:-" and seen

    @pytest.mark.parametrize("name", ["rows.jsonl", "rows.csv"])
    def test_dataset_builds_no_segment_or_block(self, tmp_path, monkeypatch, name):
        """A row runs on int forms from the sampler to the written line: no
        Segment and no PhiComponent is built, and no interned Segment is
        looked up."""
        made = []
        for cls in (Segment, PhiComponent):
            init = cls.__post_init__
            monkeypatch.setattr(cls, "__post_init__",
                                lambda self, init=init: made.append(type(self)) or init(self))
        lookup = azdual.segments._cached_segment
        for mod in (azdual.segments, azdual.langdata):
            monkeypatch.setattr(mod, "_cached_segment",
                                lambda *args: made.append(args) or lookup(*args))
        code, _, _ = run(["dataset", "--count", "200", "--out", str(tmp_path / name)])
        assert code == 0 and made == []
        assert str(parse_input("[-2,1] ; S3")) == "[-2,1]@rho ; S3@rho:+" and made

    @pytest.mark.parametrize("name", ["rows.jsonl", "rows.csv"])
    def test_dataset_reads_each_degree_once(self, tmp_path, monkeypatch, name):
        """A row takes the degree of its state and of its dual once each, in
        one walk over each that also gives the top end and the first start;
        it reads no degree or top end apart."""
        walked, read = [], []
        walk = azdual.cli._row_stats
        monkeypatch.setattr(azdual.cli, "_row_stats", lambda s: walked.append(s) or walk(s))
        degree = SignedSymMultisegment.degree
        monkeypatch.setattr(SignedSymMultisegment, "degree",
                            property(lambda s: read.append(s) or degree.fget(s)))
        monkeypatch.setattr(SignedSymMultisegment, "max_end", lambda s: read.append(s))
        code, _, _ = run(["dataset", "--count", "50", "--out", str(tmp_path / name)])
        assert code == 0 and read == []
        assert len(walked) == 100 and len({id(s) for s in walked}) == 100

    def test_dataset_summary_counts_violations(self, tmp_path, monkeypatch):
        """A wrong dual shows in all three summary counts."""
        wrong = parse_input("[-7,7]:+")
        monkeypatch.setattr(azdual.cli, "ad_symm", lambda s: wrong)
        code, out, _ = run(["dataset", "--count", "20", "--seed", "3",
                            "--out", str(tmp_path / "rows.jsonl")])
        summary = json.loads(out)
        assert code == 0 and summary["count"] == 20
        assert summary["emax_violations"] > 0 and summary["degree_violations"] > 0
        assert summary["first_start_agreement"] < 1

    def test_dataset_csv_header(self, tmp_path):
        p = tmp_path / "rows.csv"
        code, _, _ = run([
            "dataset", "--N", "1", "--km", "1", "--kphi", "1",
            "--count", "4", "--seed", "0", "--out", str(p),
        ])
        assert code == 0
        lines = p.read_text().splitlines()
        assert lines[0] == "input,dual,degree,e_max,sign_products"
        assert len(lines) == 5

    def test_dataset_env_seed(self, tmp_path, monkeypatch):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        monkeypatch.setenv("AZDUAL_SEED", "7")
        run(["dataset", "--N", "1", "--km", "1", "--kphi", "1",
             "--count", "6", "--out", str(a)])
        monkeypatch.delenv("AZDUAL_SEED")
        run(["dataset", "--N", "1", "--km", "1", "--kphi", "1",
             "--count", "6", "--seed", "7", "--out", str(b)])
        assert a.read_text() == b.read_text()


class TestEntryPoint:
    def test_internal_error_is_one_line_with_exit_3(self, monkeypatch):
        def broken(s):
            raise InvariantError("dual left the symmetric class:\n  symmetry violation")

        monkeypatch.setattr("azdual.cli.ad_symm", broken)
        code, out, err = run(["dual", "2*[0,0]:-"])
        assert code == 3 and out == ""
        assert err == ("internal error: dual left the symmetric class: "
                       "symmetry violation\n")

    def test_module_runs_and_usage_is_exit_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "azdual"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        proc = subprocess.run(
            [sys.executable, "-m", "azdual", "mw", "[-2,1]@rho"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "[-2,-2]+[-1,-1]+[0,0]+[1,1]"

    @pytest.mark.parametrize("argv", [
        pytest.param(["dataset", "--N", "-1"], id="N"),
        pytest.param(["dataset", "--km", "-1"], id="km"),
        pytest.param(["dataset", "--kphi", "-1"], id="kphi"),
        pytest.param(["dataset", "--count", "-3"], id="count"),
        pytest.param(["check", "--max-coeff", "-1"], id="max-coeff"),
        pytest.param(["check", "--max-pairs", "-1"], id="max-pairs"),
        pytest.param(["check", "--max-centered", "-1"], id="max-centered"),
        pytest.param(["dataset", "--count", "3.5"], id="not-an-int"),
    ])
    def test_negative_size_is_a_usage_error(self, argv):
        err = io.StringIO()
        with redirect_stdout(io.StringIO()) as out, redirect_stderr(err):
            with pytest.raises(SystemExit) as info:
                main(argv)
        assert info.value.code == 2 and out.getvalue() == ""
        last = err.getvalue().splitlines()[-1]
        assert last.startswith(f"azdual {argv[0]}: error: argument {argv[1]}: ")
        assert "Traceback" not in err.getvalue()

    @pytest.mark.parametrize("case", [
        "env_seed", "directory", "missing_out_dir", "file_not_utf8", "stdin_not_utf8",
    ])
    def test_unreadable_input_or_output_is_one_error_line(self, case, tmp_path, monkeypatch):
        """An unusable AZDUAL_SEED, an input path that is a directory or
        holds bytes that are not UTF-8, and an --out file that cannot be
        created each end in one error line with exit code 1."""
        bad = b"\xff\xfe[0,0]"
        if case == "env_seed":
            monkeypatch.setenv("AZDUAL_SEED", "abc")
            argv, want = ["dataset", "--count", "1"], "error: AZDUAL_SEED is not an integer: 'abc'"
        elif case == "directory":
            argv, want = ["dual", str(tmp_path)], f"error: cannot read {tmp_path}: Is a directory"
        elif case == "missing_out_dir":
            out = tmp_path / "nonexistent" / "x.jsonl"
            argv = ["dataset", "--count", "1", "--out", str(out)]
            want = f"error: cannot write {out}: No such file or directory"
        elif case == "file_not_utf8":
            path = tmp_path / "in.txt"
            path.write_bytes(bad)
            argv, want = ["dual", str(path)], f"error: cannot read {path}: not UTF-8 text"
        else:
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(bad), encoding="utf-8"))
            argv, want = ["dual", "-"], "error: cannot read stdin: not UTF-8 text"
        code, out, err = run(argv)
        assert (code, out, err) == (1, "", want + "\n")

    def test_env_seed_crosses_the_process_boundary(self, tmp_path):
        env = dict(os.environ, AZDUAL_SEED="11")
        p = tmp_path / "rows.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "azdual", "dataset", "--N", "1",
             "--km", "1", "--kphi", "1", "--count", "5", "--out", str(p)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["seed"] == 11

    @pytest.mark.parametrize("text", [
        pytest.param("[0,1]:- + [0,2]:- + [-1,3]:- + [1,2]:-", id="dsl"),
        pytest.param(json.dumps({"lines": LINES_DOC, "m": [], "eps": [
            {"line": "rho", "b": b, "e": e, "sign": -1}
            for b, e in (("0", "1"), ("0", "2"), ("-1", "3"), ("1", "2"))]}), id="json"),
    ])
    def test_error_text_does_not_depend_on_the_hash_seed(self, text):
        """Of several signs on non-centered values, the error names the
        first in canonical order, whatever the order of a set of them."""
        errs = set()
        for seed in ("1", "2", "3", "4"):
            proc = subprocess.run(
                [sys.executable, "-m", "azdual", "validate", text],
                capture_output=True, text=True, env=dict(os.environ, PYTHONHASHSEED=seed),
            )
            assert proc.returncode == 1 and proc.stdout == ""
            errs.add(proc.stderr)
        assert errs == {"error: sign attached to non-centered segment [1,2]@rho\n"}


def _quick_start():
    """The ``$ azdual ...`` commands of README's CLI quick start, each with
    the lines printed under it."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI quick start", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    cases = []
    for chunk in block.strip().split("\n\n"):
        command, *lines = chunk.splitlines()
        assert command.startswith("$ azdual ")
        cases.append((shlex.split(command)[2:], "".join(ln + "\n" for ln in lines)))
    return cases


QUICK_START = _quick_start()


def test_readme_quick_start_has_five_commands():
    assert [argv[0] for argv, _ in QUICK_START] == ["mw", "dual", "derive", "capacity", "validate"]


@pytest.mark.parametrize("argv, shown", QUICK_START, ids=[argv[0] for argv, _ in QUICK_START])
def test_readme_quick_start_output(argv, shown):
    """Each quick-start command prints what README shows under it; a
    ``validate`` report other than OK exits 1, every other command 0."""
    code, out, err = run(argv)
    assert out == shown and err == ""
    assert code == (1 if argv[0] == "validate" and shown != "OK\n" else 0)
