#!/usr/bin/env python3
"""Benchmark for azdual: named workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload sweep --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py                   # every workload, one process each

Run from the repository root; the program is imported from ./src.  The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
of a traced run with --trace 1.  perfbench/README.md describes the
workloads, the metrics and the held-out seed.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import Tracer, summarize  # noqa: E402
from workloads import CLASSES, LADDER_RUNGS, SUITE_NAMES, WORKLOADS  # noqa: E402

DEFAULT_SEED = 0      # reference.json holds the warm-up digests of this seed
HELD_OUT_SEED = 7919  # keep out of development; confirm claimed gains on it
SETUP_REPEATS = 9     # set-ups per run at least, and more (up to 5x) until
SETUP_SECONDS = 2.0   # they take this long; setup_s is their median

END_TO_END = (
    # name, unit, better
    ("throughput_ops_s", "ops/s", "higher"),
    ("latency_ms_p50", "ms", "lower"),
    ("latency_ms_p90", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_ops_frac", "ratio", "higher"),
)

SELF_SPANS = (
    "cli.dataset", "cli.render", "verify.enumerate",
    *(f"verify.suite.{name}" for name in SUITE_NAMES),
    "verify.first_start_prediction",
    "langdata.transfer", "langdata.untransfer", "langdata.validate",
    "langdata.require_valid", "ad_core.ad_symm", "ad_core.ad_step",
    "mw_gl.mw_transpose", "mw_gl.transpose_pairs", "mw_gl.kz_capacity",
    "mw_gl.containment_count", "derivatives.derivative",
    "derivatives.best_matching",
)
CALL_SPANS = (
    "langdata.transfer", "langdata.untransfer", "langdata.validate",
    "langdata.require_valid", "ad_core.ad_symm", "ad_core.ad_step",
    "derivatives.derivative", "derivatives.best_matching",
)


def per_layer_metrics():
    """(name, unit, better) of every metric a traced run prints."""
    out = [(f"{s}.self_s", "s", "lower") for s in SELF_SPANS]
    out += [(f"{s}.calls_per_op", "calls/op", "lower") for s in CALL_SPANS]
    out += [("mw_gl.object_overhead_ratio", "ratio", "lower"),
            ("segments.seg_cache_entries", "count", "lower"),
            ("trace.overhead_frac", "ratio", "lower")]
    return out


def env_info(root: Path):
    rev = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            rev = proc.stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            rev = "unknown"
    return {"rev": rev, "python": platform.python_version(),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))}


def fresh_import():
    """Import azdual (and its CLI) from scratch, as a new process would."""
    for key in [k for k in sys.modules if k == "azdual" or k.startswith("azdual.")]:
        del sys.modules[key]
    az = importlib.import_module("azdual")
    importlib.import_module("azdual.cli")
    return az


class Tally:
    """Ops attempted and failed; an op fails when it raised, was never
    run, or failed its output check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = 0

    def note(self, msg):
        self.notes += 1
        if self.notes <= 5:
            print(f"perfbench: {msg}", file=sys.stderr)

    def check(self, wl, ops, strong=False):
        bad = 0
        for lat, out, ctx in ops:
            try:
                ok = not math.isnan(lat) and wl.check(out, ctx) and (
                    not strong or wl.oracle(out, ctx))
                why = "output check failed"
            except Exception as err:  # a malformed output is a failed op
                ok, why = False, f"check raised {err!r}"
            if not ok:
                bad += 1
                self.note(f"{why} on {ctx!r:.200}")
        self.attempted += len(ops)
        self.failed += bad
        return bad

    def crash(self, where):
        self.attempted += 1
        self.failed += 1
        print(f"perfbench: {where} raised:\n{traceback.format_exc()}", file=sys.stderr)


class Timed:
    """What the timed rounds leave behind, kept small so that peak RSS does
    not grow with the length of a run: the fastest time seen for each op of
    the input pool (and its ladder tag), and counts.  Other tenants of a
    shared machine only ever slow a CPU-bound process, so an op's fastest
    time over the run is timeit's best-of rule applied per op."""

    def __init__(self, pool_rounds):
        self.pool_rounds = pool_rounds
        self.best = {}  # (pool round, op index) -> fastest seconds seen
        self.tags = {}  # same keys, ladder only
        self.rounds = 0
        self.ops = 0
        self.seconds = 0.0

    def add(self, r, dt, ops, tag):
        self.rounds += 1
        self.ops += len(ops)
        self.seconds += dt
        for i, (lat, _, ctx) in enumerate(ops):
            if math.isnan(lat):
                continue
            key = (r % self.pool_rounds, i)
            if lat < self.best.get(key, math.inf):
                self.best[key] = lat
            t = tag(ctx)
            if t is not None:
                self.tags[key] = t


def run_rounds(wl, tally, first, stop, pause=None):
    """Run rounds from ``first`` until ``stop(rounds done, timed seconds)``;
    check each round's outputs after its timing.  ``pause(True)`` and
    ``pause(False)`` bracket everything but the rounds themselves."""
    res = Timed(wl.pool_rounds)
    while not stop(res.rounds, res.seconds):
        r = first + res.rounds
        t0 = perf_counter()
        try:
            ops = wl.run_round(r)
        except Exception:
            tally.crash(f"{wl.name} round {r}")
            break
        dt = perf_counter() - t0
        if pause:
            pause(True)
        tally.check(wl, ops)
        res.add(r, dt, ops, wl.tag)
        if pause:
            pause(False)
    return res


def warm_up(wl, tally, seed):
    """Round 0: untimed, checked with the oracle too, and on the default
    seed compared with the recorded digest."""
    ops = wl.run_round(0)
    bad = tally.check(wl, ops, strong=True)
    if seed != DEFAULT_SEED:
        return
    try:
        text = "".join(wl.render(out, ctx) for _, out, ctx in ops)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    except Exception as err:
        digest = f"render raised {err!r}"
    want = json.loads((HERE / "reference.json").read_text())["digests"].get(wl.name)
    if digest != want:
        tally.failed += len(ops) - bad
        print(f"perfbench: {wl.name} seed {seed} digest {digest} != reference {want}",
              file=sys.stderr)


def quantiles(lats):
    """Median and nearest-rank 90th percentile, with the samples beyond it."""
    srt = sorted(x for x in lats if not math.isnan(x))
    if not srt:
        return 0.0, 0.0, 0, 0
    rank = math.ceil(0.9 * len(srt))
    return statistics.median(srt), srt[rank - 1], len(srt), len(srt) - rank


def ladder_table(tags):
    """{(class, rung): (median ms, mean degree)} and the degree exponent of
    each class between the top two rungs."""
    cells = {}
    for lat, (cls, k, deg) in tags:
        cells.setdefault((cls, k), []).append((lat, deg))
    table = {key: (statistics.median(v[0] for v in vals) * 1e3,
                   statistics.mean(v[1] for v in vals))
             for key, vals in cells.items()}
    top = len(LADDER_RUNGS) - 1
    expo = {}
    for cls in CLASSES:
        if (cls, top) in table and (cls, top - 1) in table:
            (t1, d1), (t2, d2) = table[cls, top - 1], table[cls, top]
            expo[cls] = math.log(t2 / t1) / math.log(d2 / d1)
    return table, expo


def print_ladder(table, expo):
    print("ladder: ms per dual (median) by line class; degree = mean over the rung's inputs")
    print("| rung | (N,km,kphi) | degree good/bad/ugly | good ms | bad ms | ugly ms |")
    print("|------|-------------|----------------------|---------|--------|---------|")
    for k, rung in enumerate(LADDER_RUNGS):
        if not all((c, k) in table for c in CLASSES):
            continue
        degs = "/".join(f"{table[c, k][1]:.0f}" for c in CLASSES)
        ms = " | ".join(f"{table[c, k][0]:.2f}" for c in CLASSES)
        print(f"| r{k + 1} | {rung} | {degs} | {ms} |")
    if expo:
        print("| exponent r3->r4 | | | " + " | ".join(
            f"{expo.get(c, float('nan')):.2f}" for c in CLASSES) + " |")


def end_to_end(wl, tally, seconds, setup_s):
    res = run_rounds(wl, tally, 1, lambda done, el: el >= seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lats = list(res.best.values())
    p50, p90, n, beyond = quantiles(lats)
    print(f"rounds {res.rounds} over {res.seconds:.3f} s, {res.ops} ops, "
          f"{res.ops / max(n, 1):.1f} timings per op of the pool; "
          f"latency samples (fastest per op) {n}, beyond p90 {beyond}")
    if beyond < 10:
        print("perfbench: fewer than 10 samples beyond p90; lengthen --seconds",
              file=sys.stderr)
    if res.tags:
        print_ladder(*ladder_table([(res.best[k], t) for k, t in res.tags.items()]))
    total = sum(lats)
    return {
        "throughput_ops_s": n / total if total else 0.0,
        "latency_ms_p50": p50 * 1e3,
        "latency_ms_p90": p90 * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "ok_ops_frac": 1 - tally.failed / max(tally.attempted, 1),
    }


def traced(wl, tally, seconds, build, az, workdir):
    """The same rounds untraced, then traced (set-up included); per-layer
    metrics come from the traced pass."""
    rounds = max(1, round(seconds / 2 * wl.rounds_per_s))
    stop = lambda done, el: done >= rounds  # noqa: E731
    plain = run_rounds(wl, tally, 1, stop)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        wl_t = build()
        wl_t.mark = tracer.next_op

        def pause(on):
            tracer.enabled = not on
        traced_res = run_rounds(wl_t, tally, 1, stop, pause)
    finally:
        tracer.enabled = False
        tracer.restore()
    tracer.write(workdir.parent / f"spans-{wl.name}.tsv")
    summ = summarize(tracer.spans)
    zero = (0.0, 0.0, 0)
    n_ops = max(traced_res.ops, 1)
    m = {f"{s}.self_s": summ.get(s, zero)[0] for s in SELF_SPANS}
    m.update({f"{s}.calls_per_op": summ.get(s, zero)[2] / n_ops for s in CALL_SPANS})
    pairs = summ.get("mw_gl.transpose_pairs", zero)[1]
    m["mw_gl.object_overhead_ratio"] = (
        summ.get("mw_gl.mw_transpose", zero)[1] / pairs if pairs else 0.0)
    m["segments.seg_cache_entries"] = len(az.segments._SEG_CACHE)
    # the fastest time of each op that ran in both passes
    both = plain.best.keys() & traced_res.best.keys()
    t_plain = sum(plain.best[k] for k in both)
    t_traced = sum(traced_res.best[k] for k in both)
    m["trace.overhead_frac"] = t_traced / t_plain - 1 if t_plain else 0.0
    print(f"traced {rounds} rounds, {traced_res.ops} ops, {len(tracer.spans)} spans; "
          f"fastest times of the {len(both)} ops timed in both passes: "
          f"untraced {t_plain:.3f} s, traced {t_traced:.3f} s")
    return m


def measure(name, seed, seconds, trace, root: Path):
    workdir = root / ".perfbench" / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cls = WORKLOADS[name]
        setups = []
        while len(setups) < SETUP_REPEATS or (
                sum(setups) < SETUP_SECONDS and len(setups) < 5 * SETUP_REPEATS):
            wl = az = None
            gc.collect()
            t0 = perf_counter()
            az = fresh_import()
            wl = cls(az, seed, workdir)
            setups.append(perf_counter() - t0)
        setup_s = statistics.median(setups)
        tally = Tally()
        try:
            warm_up(wl, tally, seed)
        except Exception:
            tally.crash(f"{name} warm-up")
        if trace:
            metrics = traced(wl, tally, seconds, lambda: cls(az, seed, workdir), az, workdir)
            units = {n: u for n, u, _ in per_layer_metrics()}
        else:
            metrics = end_to_end(wl, tally, seconds, setup_s)
            units = {n: u for n, u, _ in END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("layers: one process, one caller, closed loop; no layer queues or waits, "
          "so no wait times are reported")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def run_all(args):
    """Every workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        if proc.returncode or not lines:
            print(f"perfbench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        for key, m in res["metrics"].items():
            print(f"{name:10s} {key:40s} {m['value']:14.6g} {m['unit']}")
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{name}.{k}": m for k, m in res["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"input seed; outputs are compared with reference.json on "
                         f"{DEFAULT_SEED}; keep {HELD_OUT_SEED} for confirming a claimed gain")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = HERE.parent
    if not (root / "src" / "azdual" / "__init__.py").is_file():
        print("perfbench: run from the repository root; src/azdual is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    print("env " + json.dumps({**env_info(root), "workload": args.workload,
                               "seed": args.seed, "seconds": args.seconds,
                               "trace": args.trace}))
    if args.workload == "all":
        return run_all(args)
    print(json.dumps(measure(args.workload, args.seed, args.seconds, args.trace, root)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
