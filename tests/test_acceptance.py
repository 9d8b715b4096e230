"""End-to-end acceptance gate.

One test per shipped guarantee, each holding to its stated tolerance
(exact equality everywhere) and runtime budget.  Run with -v to get a
single pass/fail line per criterion.
"""
import hashlib
import itertools
import json
import random
import subprocess
import sys
import time

from azdual.segments import (
    BAD,
    GOOD,
    GRID_HALF,
    GRID_INT,
    UGLY,
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
)
from azdual.ad_core import ad_data, ad_symm
from azdual.mw_gl import containment_count, kz_capacity, mw_transpose
from azdual.verify import (
    closed_form_dual,
    closed_form_instances,
    enumerate_symm,
    run_properties,
    standard_sweep,
)

G = Line("rho", GOOD, GRID_INT)
B = Line("rho", BAD, GRID_INT)
U = Line("rho", UGLY, GRID_INT)

SWEEP_SIZE = 6608
C8_ROWS_SHA256 = "492053f31c04e3ddd28407e8370e3a122f01cff76030eafbdecf90cdc964fca3"
C8_SUMMARY_SHA256 = "15f85ef16bd3b0ca30b8eb465836e91062c842c289c2f7b5f57d77ebc025a122"


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


def sweep_suite(name):
    rep = run_properties(standard_sweep(), suites=[name])
    entry = rep["suites"][name]
    assert entry["counterexample"] is None
    assert entry["checked"] == SWEEP_SIZE
    assert rep["pass"] is True
    return entry


def test_c1_golden_duals_exact():
    t0 = time.monotonic()
    cases = [
        (
            data([(-3, -1), (-2, 0), (-2, -2), (-1, 0)], blocks=(3,)),
            data([(-2, 0), (-3, 1)], blocks=(5,)),
        ),
        (
            data([(-3, -1), (-2, -1), (-2, 0)], ln=U),
            data(
                [(-3, -2), (-2, -1), (-2, -2), (-1, 0), (-1, -1)], ln=U
            ),
        ),
        (
            data([(-2, 1)], ln=U),
            data(
                [(-2, -2), (-1, -1), (-1, -1)],
                blocks=(1,),
                ln=U,
                sides=[0, 0, 1],
            ),
        ),
        (data([(-1, 0)], ln=B), data([(-1, -1)], blocks=(1, 1), ln=B)),
        (data([(-1, 0), (-1, 0)], ln=B), data([(-1, 0), (-1, 0)], ln=B)),
        (data([(-1, 0)]), data([(-1, 0)])),
        (
            data([(-2, -2)], blocks=(1, 1, 3), minus=(1,)),
            data([(-2, 0)], blocks=(1,)),
        ),
        (
            data(
                [(-3, -3)],
                blocks=(3, 3, 3, 5, 5, 5, 7, 7),
                minus=(5,),
            ),
            data(
                [(-3, -1), (-3, -2), (-3, -3), (-2, -2), (-2, -2)]
                + [(-1, -1)] * 5,
                blocks=(1, 1, 1, 1, 1, 1, 3, 5),
                minus=(1, 5),
            ),
        ),
    ]
    for d, want in cases:
        assert ad_data(d) == want
    s = SignedSymMultisegment(
        Multisegment([seg(-2, -2), seg(0, 0), seg(-1, 1), seg(2, 2)]),
        minus={seg(0, 0)},
    )
    want = SignedSymMultisegment(
        Multisegment([seg(-2, 2), seg(0, 0)]), minus={seg(0, 0)}
    )
    assert ad_symm(s) == want
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"C1 PASS: nine golden duals exact in {elapsed:.3f}s")


def test_c2_duality_is_an_involution():
    t0 = time.monotonic()
    entry = sweep_suite("involution")
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(
        f"C2 PASS: dual of dual is the identity on {entry['checked']} "
        f"sweep states in {elapsed:.1f}s"
    )


def test_c3_shape_preservation():
    entry = sweep_suite("preservation")
    print(
        "C3 PASS: degree, top end, sign product, longest-first order and "
        f"output membership preserved on {entry['checked']} sweep states"
    )


def test_c4_derivative_commutation():
    t0 = time.monotonic()
    entry = sweep_suite("commutation")
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    print(
        f"C4 PASS: dual of the x-derivative equals the (-x)-derivative of "
        f"the dual on {entry['checked']} sweep states in {elapsed:.1f}s"
    )


def test_c5_closed_form_oracles():
    checked = 0
    for s in closed_form_instances(6):
        cf = closed_form_dual(s)
        assert cf is not None
        assert cf == ad_symm(s)
        checked += 1
    assert checked == 9970
    print(f"C5 PASS: closed forms match the algorithm on {checked} instances")


def test_c6_transpose_involution_and_capacity_identity():
    t0 = time.monotonic()
    base = [
        seg(b, e) for b in range(-3, 4) for e in range(b, 4)
    ]
    total = 0
    for k in range(7):
        for combo in itertools.combinations_with_replacement(base, k):
            m = Multisegment(combo)
            assert mw_transpose(mw_transpose(m)) == m
            total += 1
    assert total == 1_344_904

    rng = random.Random(0)
    capacity_checks = 0
    for _ in range(1000):
        entries = [
            Segment(G, half(b), half(rng.randint(b, 5)))
            for b in (
                rng.randint(-5, 5) for _ in range(rng.randint(1, 8))
            )
        ]
        m = Multisegment(entries)
        t = mw_transpose(m)
        targets = set(m.entries) | set(t.entries)
        for _ in range(2):
            b = rng.randint(-5, 5)
            targets.add(Segment(G, half(b), half(rng.randint(b, 5))))
        for tgt in targets:
            assert kz_capacity(m, tgt) == containment_count(t, tgt)
            capacity_checks += 1
    assert capacity_checks >= 1000
    elapsed = time.monotonic() - t0
    print(
        f"C6 PASS: transpose is an involution on {total} multisegments and "
        f"the capacity identity holds on {capacity_checks} target checks "
        f"over 1000 random instances in {elapsed:.1f}s"
    )


def test_c7_mirror_line_reduces_to_the_transpose():
    def stream():
        base = [seg(b, e, ln=U) for b in range(-3, 4) for e in range(b, 4)]
        for k in range(5):
            for combo in itertools.combinations_with_replacement(base, k):
                yield SignedSymMultisegment([*combo, *map(seg_dual, combo)])

    rep = run_properties(stream(), suites=["ugly_reduction"])
    entry = rep["suites"]["ugly_reduction"]
    assert rep["pass"] is True
    assert entry["checked"] == 35_960
    print(
        f"C7 PASS: one-sided duals equal the symmetrized transpose on "
        f"{entry['checked']} mirror-line states"
    )


def test_c7_mirror_line_duals_meet_the_kz_capacity():
    """Side 0 of the dual of a mirror line is the GL transpose of side 0,
    checked against the Knight-Zelevinsky path capacity, a max-flow that
    shares no code with the chain extraction: at every target [b, e] in
    the window of side 0, the dual's side 0 has as many segments
    containing it as side 0 has vertex-disjoint paths across it."""
    states = targets = 0
    for s in enumerate_symm(U, 3, 3, 0):
        states += 1
        side0 = Multisegment([d for d in s.m if d.side == 0])
        if not side0:
            continue
        dual0 = Multisegment([d for d in ad_symm(s).m if d.side == 0])
        lo2 = min(d.b.twice for d in side0)
        hi2 = max(d.e.twice for d in side0)
        for b2 in range(lo2, hi2 + 1, 2):
            for e2 in range(b2, hi2 + 1, 2):
                t = seg(b2 // 2, e2 // 2, ln=U)
                assert containment_count(dual0, t) == kz_capacity(side0, t), (s, t)
                targets += 1
    assert states == 4495
    assert targets == 85_815
    print(f"C7 PASS: the capacity identity holds on {targets} targets over "
          f"{states} mirror-line states")


def test_c8_dataset_run_completes_cleanly(tmp_path):
    out = tmp_path / "corpus.jsonl"
    t0 = time.monotonic()
    proc = subprocess.run(
        [
            sys.executable, "-m", "azdual", "dataset",
            "--N", "5", "--km", "5", "--kphi", "3",
            "--count", "100000", "--seed", "0", "--out", str(out),
        ],
        capture_output=True,
        text=True,
    )
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout)
    assert elapsed < 300.0
    assert summary["count"] == 100_000
    assert summary["emax_violations"] == 0
    # Recorded on the Segment-based step loop: every row and the summary
    # must stay byte-identical.
    assert hashlib.sha256(out.read_bytes()).hexdigest() == C8_ROWS_SHA256
    assert hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest() == C8_SUMMARY_SHA256
    rate = summary["first_start_agreement"]
    print(
        f"C8 PASS: 100000-row corpus in {elapsed:.0f}s, zero top-end "
        f"violations; observed first-start agreement rate {rate} "
        "(informational)"
    )


def test_c9_fault_injection_is_caught():
    entry = sweep_suite("fault_injection")
    print(
        "C9 PASS: every effective single-sign or single-coefficient "
        f"corruption detected on {entry['checked']} sweep states"
    )
