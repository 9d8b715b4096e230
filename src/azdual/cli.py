"""Command-line front end.

Two input syntaxes, one canonical output:

* JSON documents: ``{"lines": [...], "m": [...], "phi": [...]}`` for
  parameter data, ``{"lines", "m", "eps"}`` for signed symmetric
  multisegments, ``{"lines", "m"}`` for plain multisegments.  Half-integers
  travel as strings such as ``"3"`` or ``"-5/2"``.
* A compact DSL: ``[b,e]@line`` terms joined by ``+``, with ``N*`` for
  multiplicity (``N`` at most ``MAX_MULT``), ``:+``/``:-`` for a sign on a
  centered segment, ``!`` / ``~`` after the line id for the non-good classes,
  ``~`` after the bracket for the mirrored side, and ``;`` separating the
  segment part from ``S<a>`` blocks.

Rendering is canonical: byte-identical for equal objects, and parse of
render is the identity.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import random
import re
import sys
from operator import itemgetter

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
    _check_block,
    _segment_key,
)
from .langdata import (
    LanglandsData,
    Multisegment,
    SignedSymMultisegment,
    _datum,
    _fill,
    _plain,
    _refuse,
    _segment,
    _signed,
    _sort_key,
    _with_signs,
    sign_product,
    transfer,
    untransfer,
    validate,
)
from .mw_gl import kz_capacity, kz_capacity_labeled, mw_transpose
from .ad_core import ad_data, ad_symm
from .derivatives import derivative, derivative_L
from .verify import (
    SUITES,
    enumerate_data,
    run_properties,
    standard_sweep,
)


class ParseError(DomainError):
    """Input text rejected; carries the offending position."""

    def __init__(self, msg: str, pos: int | None = None):
        self.pos = pos
        if pos is not None:
            msg = f"at position {pos}: {msg}"
        super().__init__(msg)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_CLASS_MARK = {"": GOOD, "!": BAD, "~": UGLY}
_SIGN_MARK = {"+": 1, "-": -1}

MAX_MULT = 10_000
"""The largest ``N`` of an ``N*`` term; a larger one is refused before the
term is expanded."""

MAX_DEGREE = 100_000
"""The largest total degree of a parsed input: the degree of the symmetric
multisegment the dual runs on (for parameter data, twice the degree of its
segments plus its block sizes, a block on a mirror line counted twice).  A
larger input is refused once parsed, before anything runs on it."""

MAX_DIGITS = len(str(MAX_DEGREE))
"""The most digits a number of the input may have; a longer one is refused
before ``int()`` reads it."""

_ITEM_RE = re.compile(
    r"""^
    (?:(?P<mult>\d+)\*)?
    (?:
        \[(?P<b>-?\d+(?:/2)?),(?P<e>-?\d+(?:/2)?)\](?P<mirror>~)?
      | S(?P<a>\d+)
    )
    (?:@(?P<ident>[A-Za-z_][A-Za-z0-9_.-]*)(?P<cls>[!~])?)?
    (?::(?P<sign>[+-]))?
    $""",
    re.X,
)


def _split_terms(text: str, offset: int):
    """Terms of a '+'-joined list with their positions in the source.

    A '+' directly after a sign colon belongs to its term.
    """
    breaks = []
    prev = ""
    for i, ch in enumerate(text):
        if ch == "+" and prev != ":":
            breaks.append(i)
        if not ch.isspace():
            prev = ch
    out = []
    start = 0
    for cut in breaks + [len(text)]:
        term = text[start:cut]
        stripped = term.strip()
        lead = len(term) - len(term.lstrip())
        if stripped:
            out.append((stripped, offset + start + lead))
        elif (start, cut) != (0, len(text)):
            raise ParseError("empty term", offset + start)
        start = cut + 1
    return out


def _scan_items(text: str, offset: int):
    items = []
    for term, pos in _split_terms(text, offset):
        m = _ITEM_RE.match(term)
        if not m:
            raise ParseError(f"cannot read {term!r}", pos)
        items.append((m, pos))
    return items


def _digits(text: str, pos: int | None = None) -> str:
    """``text`` itself, or a ParseError when its integer part is longer than
    MAX_DIGITS digits."""
    if sum(ch.isdigit() for ch in text.partition("/")[0]) > MAX_DIGITS:
        raise ParseError(f"number {text[:12]}... has more than {MAX_DIGITS} digits", pos)
    return text


def _dsl_lines(all_items):
    """Infer each mentioned line's class and grid from its items.  Returns
    the lines by id and each item's first number, read once: 2b of a
    segment, a - 1 of a block S<a>."""
    cls_by_id: dict = {}
    grid_by_id: dict = {}
    firsts = []
    for m, pos in all_items:
        ident = m.group("ident") or "rho"
        cls = _CLASS_MARK[m.group("cls") or ""]
        if m.group("mirror"):
            cls = UGLY
        prev = cls_by_id.get(ident)
        if prev is not None and prev != cls and GOOD not in (prev, cls):
            raise ParseError(f"line {ident} marked both {prev} and {cls}", pos)
        if prev is None or prev == GOOD:
            cls_by_id[ident] = cls
        if m.group("b") is not None:
            t = HalfInt.parse(_digits(m.group("b"), pos)).twice
        else:
            t = int(_digits(m.group("a"), pos)) - 1
        firsts.append(t)
        grid = GRID_INT if t % 2 == 0 else GRID_HALF
        if cls_by_id[ident] == UGLY and grid != GRID_INT:
            raise ParseError(f"half-integral coefficient on the {ident} line", pos)
        if grid_by_id.setdefault(ident, grid) != grid:
            raise ParseError(f"mixed integral and half-integral coefficients on {ident}", pos)
    lines = {ident: Line(ident, cls, grid_by_id[ident]) for ident, cls in cls_by_id.items()}
    return lines, firsts


def _dsl_key(m, pos, lines, b2):
    """The line and int key of a segment term that begins at b2 / 2."""
    ln = lines[m.group("ident") or "rho"]
    e2 = HalfInt.parse(_digits(m.group("e"), pos)).twice
    side = (1 if m.group("mirror") else 0) if ln.cls == UGLY else None
    try:
        return ln, _segment_key(ln, b2, e2, side)
    except DomainError as err:
        raise ParseError(str(err), pos) from None


def _mult(m, pos) -> int:
    digits = (m.group("mult") or "1").lstrip("0") or "0"
    if len(digits) > len(str(MAX_MULT)) or int(digits) > MAX_MULT:
        raise ParseError(f"multiplicity above the cap of {MAX_MULT}", pos)
    return int(digits)


def _term(form: dict, signs: dict, ln: Line, x, k: int, sign=None, pos=None):
    """Count k copies of the value x on ln (a segment key or a block size)
    into a form ``{line: {x: k}}`` and record the term's sign mark (1, -1 or
    None) in ``signs``; a value marked with both signs is refused."""
    if k:
        cnt = form.setdefault(ln, {})
        cnt[x] = cnt.get(x, 0) + k
    if sign is not None and signs.setdefault((ln, x), sign) != sign:
        name = _segment(ln, x) if type(x) is tuple else f"S{x}@{ln.id}"
        raise ParseError(f"contradictory signs on {name}", pos)


def _parsed(form: dict, signs: dict, blocks=None):
    """The parameter data of the segments and ``blocks`` when blocks are
    given, else the signed multisegment of the segments, with ``signs``."""
    minus = [lx for lx, sign in signs.items() if sign == -1]
    if blocks is not None:
        return _datum(_plain(form), _with_signs(blocks, minus))
    _refuse({}, minus)
    return _fill(object.__new__(SignedSymMultisegment), _with_signs(form, minus))


def parse_dsl(text: str):
    """Read DSL text; error positions index ``text`` itself, leading blanks
    included."""
    if not text.strip():
        return _datum(_plain({}), {})
    m_text, sep, phi_text = text.partition(";")
    m_items = _scan_items(m_text, 0) if m_text.strip() else []
    phi_items = (
        _scan_items(phi_text, len(m_text) + 1) if sep and phi_text.strip() else []
    )
    for m, pos in m_items:
        if m.group("a") is not None:
            raise ParseError("blocks belong after ';'", pos)
    for m, pos in phi_items:
        if m.group("a") is None:
            raise ParseError("only S<a> blocks may follow ';'", pos)
    lines, firsts = _dsl_lines(m_items + phi_items)
    form, signs, blocks, etas = {}, {}, {}, {}
    for (m, pos), b2 in zip(m_items, firsts):
        _term(form, signs, *_dsl_key(m, pos, lines, b2), _mult(m, pos),
              _SIGN_MARK.get(m.group("sign")), pos)
    for (m, pos), t in zip(phi_items, firsts[len(m_items):]):
        ln, a = lines[m.group("ident") or "rho"], t + 1
        try:
            _check_block(ln, a)
        except DomainError as err:
            raise ParseError(str(err), pos) from None
        _term(blocks, etas, ln, a, _mult(m, pos), _SIGN_MARK.get(m.group("sign")), pos)
    try:
        _refuse(form)
        if sep:
            return _parsed(form, etas, blocks)
        return _parsed(form, signs) if signs else _plain(form)
    except DomainError as err:
        raise ParseError(str(err)) from None


def _json_half(v, what) -> int:
    """Twice the half-integer of a record's field."""
    if isinstance(v, str):
        try:
            return HalfInt.parse(_digits(v)).twice
        except DomainError as err:
            raise ParseError(f"{what}: {err}") from None
    if type(v) is int:
        return 2 * v
    raise ParseError(f"{what}: expected a half-integer string, got {v!r}")


def _json_list(obj, key):
    v = obj.get(key, [])
    if not isinstance(v, list):
        raise ParseError(f"{key!r} must be a list, got {v!r}")
    return v


def _json_sign(rec, key):
    v = rec.get(key)
    if type(v) is not int or v not in (1, -1):
        raise ParseError(f"record {rec!r} needs {key} 1 or -1")
    return v


def _json_lines(obj):
    lines = {}
    for rec in _json_list(obj, "lines"):
        try:
            ln = Line(rec["id"], rec["class"], rec["grid"])
        except (KeyError, TypeError) as err:
            raise ParseError(f"bad line record {rec!r} ({err})") from None
        if ln.id in lines:
            raise ParseError(f"line {ln.id} declared twice")
        lines[ln.id] = ln
    return lines


def _json_key(rec, lines):
    """The line and int key of a segment record."""
    try:
        ln = lines[rec["line"]]
    except (KeyError, TypeError):
        raise ParseError(f"segment {rec!r} names an undeclared line") from None
    b2 = _json_half(rec.get("b"), "segment beginning")
    e2 = _json_half(rec.get("e"), "segment end")
    side = rec.get("side")
    if side is not None and type(side) is not int:
        raise ParseError(f"segment {rec!r} needs an integer side")
    return ln, _segment_key(ln, b2, e2, side)


def parse_json(obj):
    if not isinstance(obj, dict):
        raise ParseError("top level must be a JSON object")
    lines = _json_lines(obj)
    form, signs, blocks = {}, {}, {}
    for rec in _json_list(obj, "m"):
        _term(form, signs, *_json_key(rec, lines), 1)
    _refuse(form)
    if "phi" in obj:
        for rec in _json_list(obj, "phi"):
            try:
                ln, a = lines[rec["line"]], rec["a"]
                if type(a) is not int:
                    raise TypeError
            except (KeyError, TypeError):
                raise ParseError(f"bad block record {rec!r}") from None
            _check_block(ln, a)
            _term(blocks, signs, ln, a, 1, _json_sign(rec, "eta") if "eta" in rec else None)
        return _parsed(form, signs, blocks)
    if "eps" not in obj:
        return _plain(form)
    for rec in _json_list(obj, "eps"):
        _term({}, signs, *_json_key(rec, lines), 0, _json_sign(rec, "sign"))
    return _parsed(form, signs)


def _parse_text(text: str):
    """Parse JSON or DSL text into an object, not yet validated."""
    if text.lstrip().startswith("{"):
        try:
            obj = json.loads(text, parse_int=lambda t: int(_digits(t)))
        except json.JSONDecodeError as err:
            raise ParseError(err.msg, err.pos) from None
        out = parse_json(obj)
    else:
        out = parse_dsl(text)
    if isinstance(out, LanglandsData):
        degree = 2 * out.n.degree + sum(a * k * (2 if ln.cls == UGLY else 1)
                                        for ln, (cnt, _) in out._blocks.items()
                                        for a, k in cnt.items())
    else:
        degree = out.degree
    if degree > MAX_DEGREE:
        raise ParseError(f"total degree {degree} above the cap of {MAX_DEGREE}")
    return out


def parse_input(text: str):
    """Parse JSON or DSL text into a validated object."""
    out = _parse_text(text)
    report = validate(out)
    if report:
        raise ParseError("; ".join(report))
    return out


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


# The writer's texts of line ids and of segments by int key, bounded.
_json_text = functools.lru_cache(maxsize=4096)(json.dumps)


@functools.lru_cache(maxsize=4096)
def _record(ident, v) -> str:
    """The record of the segment of int key v on the line of id ident,
    without its closing brace."""
    side = f',"side":{v[2]}' if len(v) == 3 else ""
    return (f'{{"line":{_json_text(ident)},"b":"{HalfInt.from_twice(v[0])}",'
            f'"e":"{HalfInt.from_twice(v[1])}"{side}')


def _joined(records) -> str:
    """``k`` copies of ``text`` per ``(sort key, text, k)``, by sort key; the
    sort is stable, so records of equal keys keep the given order."""
    records.sort(key=itemgetter(0))
    return ",".join([text for _, text, k in records for _ in range(k)])


def render_output(x) -> str:
    """The canonical JSON text of any of the three kinds, written from its
    int form."""
    if isinstance(x, LanglandsData):
        form, kind = x.n._ints.items(), "phi"
        more = [((ln.id, a), f'{{"line":{_json_text(ln.id)},"a":{a}'
                 + (f',"eta":{-1 if a in minus else 1}}}' if ln.cls == GOOD else "}"), k)
                for ln, (cnt, minus) in x._blocks.items() for a, k in cnt.items()]
    elif isinstance(x, SignedSymMultisegment):
        form, kind = [(ln, cnt) for ln, (cnt, _) in x._ints.items()], "eps"
        more = [((ln.id, v[1]), f'{_record(ln.id, v)},"sign":{-1 if v in minus else 1}}}', 1)
                for ln, (cnt, minus) in x._ints.items() if ln.cls == GOOD
                for v in cnt if v[0] + v[1] == 0]
    elif isinstance(x, Multisegment):
        form, kind = x._ints.items(), None
    else:
        raise DomainError(f"cannot render {type(x).__name__}")
    segs = _joined([(_sort_key(ln, v), _record(ln.id, v) + "}", k)
                    for ln, cnt in form for v, k in cnt.items()])
    lines = ",".join(f'{{"id":{_json_text(ln.id)},"class":"{ln.cls}","grid":"{ln.grid}"}}'
                     for ln in x.lines())
    text = f'{{"lines":[{lines}],"m":[{segs}]'
    return f'{text},"{kind}":[{_joined(more)}]}}' if kind else text + "}"


def render_doc(x) -> dict:
    """The canonical JSON document of :func:`render_output`, as a dict."""
    return json.loads(render_output(x))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _read_input(arg: str) -> str:
    try:
        if arg == "-":
            return sys.stdin.read()
        if os.path.exists(arg):
            with open(arg, encoding="utf-8") as fh:
                return fh.read()
    except (OSError, UnicodeDecodeError) as err:
        why = err.strerror if isinstance(err, OSError) else "not UTF-8 text"
        raise DomainError(f"cannot read {'stdin' if arg == '-' else arg}: {why}") from None
    return arg


def _as_signed(x):
    if isinstance(x, SignedSymMultisegment):
        return x
    if isinstance(x, Multisegment):
        return _signed((ln, cnt, set()) for ln, cnt in x._ints.items())
    raise DomainError("expected a (signed) multisegment, got parameter data")


def _the_line(x, ident):
    lines = x.lines()
    if ident is not None:
        for ln in lines:
            if ln.id == ident:
                return ln
        raise DomainError(f"no line {ident} in the input")
    if len(lines) != 1:
        raise DomainError("input has several lines; pass --line")
    return lines[0]


def _cmd_dual(args) -> int:
    x = parse_input(_read_input(args.input))
    if isinstance(x, LanglandsData):
        print(render_output(ad_data(x)))
    else:
        print(render_output(ad_symm(_as_signed(x))))
    return 0


def _bare_str(m: Multisegment) -> str:
    """Ascending segment list, line markers dropped when uninformative."""
    if not m.entries:
        return "0"
    orderly = sorted(m, key=lambda d: (d.b.twice, d.e.twice))
    if len(m.lines()) == 1 and all(d.side is None for d in m):
        return "+".join(f"[{d.b},{d.e}]" for d in orderly)
    return "+".join(str(d) for d in orderly)


def _cmd_mw(args) -> int:
    x = parse_input(_read_input(args.input))
    if not isinstance(x, Multisegment):
        raise DomainError("mw expects a plain multisegment")
    print(_bare_str(mw_transpose(x)))
    return 0


def _cmd_capacity(args) -> int:
    x = parse_input(_read_input(args.input))
    target = parse_input(args.target)
    if not isinstance(target, Multisegment) or len(target.entries) != 1:
        raise DomainError("--target must be a single segment")
    tgt = target.entries[0]
    if args.labeled:
        print(kz_capacity_labeled(_as_signed(x), tgt))
    else:
        if not isinstance(x, Multisegment):
            raise DomainError("plain capacity expects a plain multisegment")
        print(kz_capacity(x, tgt))
    return 0


def _cmd_derive(args) -> int:
    x = _as_signed(parse_input(_read_input(args.input)))
    ln = _the_line(x, args.line)
    if args.L_chunk:
        res = derivative_L(x, ln)
    else:
        if args.x is None:
            raise DomainError("derive needs --x or --L-chunk")
        res = derivative(x, ln, HalfInt.parse(_digits(args.x)))
    print(json.dumps({"k": res.k, "result": render_doc(res.result)},
                     separators=(",", ":")))
    return 0


def _cmd_validate(args) -> int:
    report = validate(_parse_text(_read_input(args.input)))
    if report:
        for cond in report:
            print(cond)
        return 1
    print("OK")
    return 0


def _default_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    text = os.environ.get("AZDUAL_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise DomainError(f"AZDUAL_SEED is not an integer: {text!r}") from None


def _cmd_check(args) -> int:
    stream = list(
        standard_sweep(args.max_coeff, args.max_pairs, args.max_centered)
    )
    if args.seed is not None:
        random.Random(args.seed).shuffle(stream)
    report = run_properties(stream, suites=args.suite or None)
    print(json.dumps(report, separators=(",", ":")))
    return 0 if report["pass"] else 1


def _dataset_line() -> Line:
    return Line("rho", GOOD, GRID_INT)


def _row_stats(x: SignedSymMultisegment):
    """The top 2e, the lowest 2b and the degree of a symmetric state, in one
    walk over its counters; both ends are None when it is empty."""
    top = low = None
    degree = 0
    for cnt, _ in x._ints.values():
        for v, k in cnt.items():
            b2, e2 = v[0], v[1]
            if top is None:
                top, low = e2, b2
            else:
                if e2 > top:
                    top = e2
                if b2 < low:
                    low = b2
            degree += ((e2 - b2) // 2 + 1) * k
    return top, low, degree


def _cmd_dataset(args) -> int:
    ln = _dataset_line()
    seed = _default_seed(args)
    try:
        rows_out = open(args.out, "w", encoding="utf-8", newline="") if args.out else sys.stdout
    except OSError as err:
        raise DomainError(f"cannot write {args.out}: {err.strerror}") from None
    as_csv = bool(args.out) and args.out.endswith(".csv")
    writer = None
    if as_csv:
        writer = csv.writer(rows_out)
        writer.writerow(["input", "dual", "degree", "e_max", "sign_products"])
    emax_bad = degree_bad = 0
    start_hits = start_total = 0
    try:
        for d in enumerate_data(
            args.N, args.km, args.kphi, [ln], mode="sampled",
            count=args.count, seed=seed,
        ):
            s = transfer(d)
            t = ad_symm(s)
            dd = untransfer(t)  # ad_data(d), reusing s
            top_s, low_s, degree_s = _row_stats(s)
            top_t, low_t, degree = _row_stats(t)
            emax_bad += top_s != top_t
            degree_bad += degree_s != degree
            if low_s is not None:  # the first start is predicted from s
                start_total += 1
                start_hits += low_s == low_t
            em_t = None if top_t is None else HalfInt.from_twice(top_t)
            products = "{%s}" % ",".join(f"{_json_text(lnn.id)}:{sign_product(t, lnn)}"
                                         for lnn in t.lines() if lnn.cls == GOOD)
            doc, dual = render_output(d), render_output(dd)
            if as_csv:
                writer.writerow([doc, dual, degree, "" if em_t is None else str(em_t), products])
            else:
                e_max = "null" if em_t is None else f'"{em_t}"'
                rows_out.write(f'{{"input":{doc},"dual":{dual},"degree":{degree},'
                               f'"e_max":{e_max},"sign_products":{products}}}\n')
    finally:
        if args.out:
            rows_out.close()
    summary = {
        "count": args.count,
        "seed": seed,
        "emax_violations": emax_bad,
        "degree_violations": degree_bad,
        "first_start_agreement": (
            round(start_hits / start_total, 6) if start_total else None
        ),
    }
    out = sys.stdout if args.out else sys.stderr
    out.write(json.dumps(summary, separators=(",", ":")) + "\n")
    return 0


def _size(text: str) -> int:
    """An argparse type: a non-negative int."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a size: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="azdual",
        description="Duality, derivatives, and checks for segment data.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dual", help="dual of parameter data or a symmetric multisegment")
    p.add_argument("input", help="JSON/DSL text, a file path, or - for stdin")
    p.set_defaults(fn=_cmd_dual)

    p = sub.add_parser("mw", help="transpose of a plain multisegment")
    p.add_argument("input")
    p.set_defaults(fn=_cmd_mw)

    p = sub.add_parser("capacity", help="containment capacity toward a target segment")
    p.add_argument("input")
    p.add_argument("--target", required=True, help="single segment, DSL or JSON")
    p.add_argument("--labeled", action="store_true",
                   help="use the labeled refinement on a signed symmetric input")
    p.set_defaults(fn=_cmd_capacity)

    p = sub.add_parser("derive", help="derivative operators")
    p.add_argument("input")
    p.add_argument("--line", default=None)
    p.add_argument("--x", default=None, help="grid point, e.g. 2 or -3/2 (use --x=-3/2)")
    p.add_argument("--L-chunk", action="store_true", dest="L_chunk",
                   help="apply the zero-chunk operator instead of --x")
    p.set_defaults(fn=_cmd_derive)

    p = sub.add_parser("check", help="run property suites over the standard sweep")
    p.add_argument("--max-coeff", type=_size, default=2)
    p.add_argument("--max-pairs", type=_size, default=3)
    p.add_argument("--max-centered", type=_size, default=3)
    p.add_argument("--suite", action="append", choices=sorted(SUITES),
                   help="repeatable; default is every suite")
    p.add_argument("--seed", type=int, default=None,
                   help="shuffle the sweep order (default: natural order)")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("dataset", help="sampled corpus of data and their duals")
    p.add_argument("--N", type=_size, default=5)
    p.add_argument("--km", type=_size, default=5)
    p.add_argument("--kphi", type=_size, default=3)
    p.add_argument("--count", type=_size, default=1000)
    p.add_argument("--seed", type=int, default=None,
                   help="default: AZDUAL_SEED or 0")
    p.add_argument("--out", default=None,
                   help="write rows here (.csv for CSV, else JSON lines)")
    p.set_defaults(fn=_cmd_dataset)

    p = sub.add_parser("validate", help="report membership violations")
    p.add_argument("input")
    p.set_defaults(fn=_cmd_validate)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except DomainError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except InvariantError as err:
        print("internal error: " + " ".join(str(err).split()), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
