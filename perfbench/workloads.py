"""The five workloads.

Each workload builds its inputs from the seed in ``__init__`` (the set-up
that ``setup_s`` times) and runs its ops in rounds.  Round ``r`` runs the
inputs of pool round ``r % pool_rounds``, so every op of the pool recurs
once per pass over the pool.  ``run_round`` is the timed part and returns
``(latency_s, output, ctx)`` per op; ``check`` is the per-op output check
run after the round, outside the timing.
Round 0 is the untimed warm-up: its outputs also get ``oracle``, the
strongest check the repository offers for them, and on the default seed
the digest of their ``render`` text is compared with reference.json.

Every call into azdual goes through attributes of the ``az`` package
(``az.ad_data``, ``az.cli.main``...), looked up at call time, so that the
tracer's wrappers are the ones called.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
from pathlib import Path
from time import perf_counter

def _sep_json(obj):
    return json.dumps(obj, separators=(",", ":"))


def _noop():
    pass


class Workload:
    name = ""
    rounds_per_s = 1.0  # rough rate at the seed commit; sizes traced runs only
    # Rounds of distinct inputs; later rounds repeat them.  Each pool takes
    # about 1 s per pass at the seed commit, so a 30 s run times every op
    # about 25 times.
    pool_rounds = 32

    def __init__(self, az, seed, workdir: Path):
        self.az = az
        self.seed = seed
        self.workdir = workdir
        self.mark = _noop  # called before each op; the tracer numbers ops

    def run_round(self, r):
        raise NotImplementedError

    def check(self, output, ctx) -> bool:
        raise NotImplementedError

    def oracle(self, output, ctx) -> bool:
        return True

    def render(self, output, ctx) -> str:
        raise NotImplementedError

    def tag(self, ctx):
        return None

    def _timed(self, fn, *args):
        self.mark()
        t0 = perf_counter()
        out = fn(*args)
        return perf_counter() - t0, out


class Corpus(Workload):
    """``azdual dataset`` at the C8 settings, in-process, JSONL to a file.
    One round is one dataset call of ROWS rows; one op is one row, timed
    as the interval between two pulls from the dataset's input generator."""

    name = "corpus"
    rounds_per_s = 4.5
    pool_rounds = 6
    ROWS = 100

    def run_round(self, r):
        cli = self.az.cli
        out = self.workdir / "corpus.jsonl"
        argv = ["dataset", "--N", "5", "--km", "5", "--kphi", "3",
                "--count", str(self.ROWS),
                "--seed", str(self.seed * 100_000 + r % self.pool_rounds),
                "--out", str(out)]
        inner = cli.enumerate_data
        stamps = []
        mark = self.mark

        def timed_pulls(*args, **kwargs):
            gen = inner(*args, **kwargs)
            while True:
                mark()
                stamps.append(perf_counter())
                try:
                    item = next(gen)
                except StopIteration:
                    return
                yield item

        buf = io.StringIO()
        cli.enumerate_data = timed_pulls
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        finally:
            cli.enumerate_data = inner
        rows = out.read_text(encoding="utf-8").splitlines()
        info = {"code": code, "summary": buf.getvalue(), "rows": len(rows)}
        lats = [b - a for a, b in zip(stamps, stamps[1:])]
        lats += [math.nan] * (self.ROWS - len(lats))  # rows never pulled
        rows += [None] * (self.ROWS - len(rows))
        return [(lat, row, (info, i)) for i, (lat, row) in enumerate(zip(lats, rows))]

    def _parse(self, row):
        rec = json.loads(row)
        return rec, self.az.cli.parse_json(rec["input"]), self.az.cli.parse_json(rec["dual"])

    def check(self, row, ctx):
        info, _ = ctx
        summary = json.loads(info["summary"])
        if (info["code"] != 0 or info["rows"] != self.ROWS or summary["count"] != self.ROWS
                or summary["emax_violations"] or summary["degree_violations"]):
            return False
        rec, d, dd = self._parse(row)
        s, t = self.az.transfer(d), self.az.transfer(dd)
        e_max = t.max_end()
        return (s.degree == t.degree == rec["degree"] and s.max_end() == e_max
                and rec["e_max"] == (None if e_max is None else str(e_max)))

    def oracle(self, row, ctx):
        _, d, dd = self._parse(row)
        return self.az.ad_data(dd) == d

    def render(self, row, ctx):
        info, i = ctx
        return row + "\n" + (info["summary"] if i == self.ROWS - 1 else "")


LADDER_RUNGS = ((5, 5, 3), (10, 10, 6), (20, 20, 10), (30, 40, 20))
# Duals per class per round on each rung.  Within a rung the classes sort
# roughly bad < good < ugly, so quantiles are steadiest at the middle of a
# rung.  These weights put the median in the middle of rung 2 (w1 = w3 + w4)
# and the 90th percentile in the middle of rung 4 (w4 = 20% of the ops).
LADDER_WEIGHTS = (2, 1, 1, 1)
CLASSES = ("good", "bad", "ugly")
# Degree (of the symmetric form) that each rung's inputs must have, per
# class: the sampler's median, within DEGREE_TOLERANCE.  Inputs of equal
# degree make the ladder's figures depend on the code rather than on which
# inputs a seed drew.
LADDER_DEGREES = {"good": (56, 220, 830, 2420), "bad": (56, 220, 830, 2420),
                  "ugly": (76, 286, 1024, 3060)}
DEGREE_TOLERANCE = 0.05


def _degree(d, cls):
    """``transfer(d).degree`` without building it: each segment counts with
    its dual, each block once (twice on ugly lines, with its partner)."""
    return 2 * d.n.degree + (2 if cls == "ugly" else 1) * sum(p.a for p in d.phi)


class Ladder(Workload):
    """``ad_data`` on sampled data of each line class on the integral grid,
    four rungs of growing degree.  One op is one dual."""

    name = "ladder"
    rounds_per_s = 1.8
    pool_rounds = 8

    def __init__(self, az, seed, workdir):
        super().__init__(az, seed, workdir)
        pools = {}
        for ci, cls in enumerate(CLASSES):
            ln = az.Line("rho", cls, az.GRID_INT)
            for k, ((n, km, kphi), w) in enumerate(zip(LADDER_RUNGS, LADDER_WEIGHTS)):
                want = LADDER_DEGREES[cls][k]
                draws = az.enumerate_data(n, km, kphi, [ln], mode="sampled",
                                          count=10**6, seed=seed * 100 + ci * 10 + k)
                pools[cls, k] = [
                    d for _, d in zip(range(w * self.pool_rounds), (
                        d for d in draws
                        if abs(_degree(d, cls) - want) <= DEGREE_TOLERANCE * want))]
        self.rounds = []
        for r in range(self.pool_rounds):
            ops = []
            for k, w in enumerate(LADDER_WEIGHTS):
                for j in range(w):
                    ops += [(cls, k, pools[cls, k][r * w + j]) for cls in CLASSES]
            self.rounds.append(ops)

    def run_round(self, r):
        out = []
        for ctx in self.rounds[r % self.pool_rounds]:
            lat, dd = self._timed(self.az.ad_data, ctx[2])
            out.append((lat, dd, ctx))
        return out

    def check(self, dd, ctx):
        az = self.az
        s, t = az.transfer(ctx[2]), az.transfer(dd)
        return not az.validate(dd) and s.degree == t.degree and s.max_end() == t.max_end()

    def oracle(self, dd, ctx):
        return self.az.ad_data(dd) == ctx[2]

    def render(self, dd, ctx):
        return self.az.cli.render_output(dd) + "\n"

    def tag(self, ctx):
        cls, k, d = ctx
        return cls, k, self.az.transfer(d).degree


SUITE_NAMES = ("involution", "preservation", "commutation", "roundtrip",
               "closed_form", "ugly_reduction", "fault_injection")


class Sweep(Workload):
    """``run_properties`` with every suite over a stratified sample of the
    6608-state standard sweep: one state, chosen by the seed, from each of
    pool_rounds * STATES equal runs of consecutive states, in a seeded
    order.  The sweep grows in size along each line, so the sample's cost
    varies little from seed to seed.  One op is one state through all
    suites."""

    name = "sweep"
    rounds_per_s = 5.0
    pool_rounds = 8
    STATES = 32

    def __init__(self, az, seed, workdir):
        super().__init__(az, seed, workdir)
        sweep = list(az.standard_sweep())
        rng = random.Random(seed)
        n, k = len(sweep), self.pool_rounds * self.STATES
        self.pool = [sweep[rng.randrange(n * i // k, n * (i + 1) // k)] for i in range(k)]
        rng.shuffle(self.pool)

    def run_round(self, r):
        out = []
        first = r % self.pool_rounds * self.STATES
        for s in self.pool[first:first + self.STATES]:
            lat, rep = self._timed(self.az.run_properties, [s])
            out.append((lat, rep, s))
        return out

    def check(self, rep, s):
        suites = rep["suites"]
        return (rep["pass"] is True and tuple(suites) == SUITE_NAMES
                and all(v["checked"] == 1 for v in suites.values()))

    def render(self, rep, s):
        return f"{s} {_sep_json(rep)}\n"


class Transpose(Workload):
    """C6: ``mw_transpose(mw_transpose(m)) == m`` on a uniform sample of the
    enumeration (coefficients in [-3, 3], at most 6 segments), and C6's
    capacity identity ``kz_capacity(m, t) == containment_count(mw(m), t)``.
    One round is INVOLUTIONS involution checks and one capacity instance;
    one op is one check.  The capacity ops are the cheap ones, so the 90th
    percentile stays among the involution checks."""

    name = "transpose"
    rounds_per_s = 32.0
    pool_rounds = 32
    INVOLUTIONS = 200

    def __init__(self, az, seed, workdir):
        super().__init__(az, seed, workdir)
        ln = az.Line("rho", az.GOOD, az.GRID_INT)

        def mk(b, e):
            return az.Segment(ln, az.half(b), az.half(e))

        base = [mk(b, e) for b in range(-3, 4) for e in range(b, 4)]
        n = len(base)
        sizes = range(7)
        weights = [math.comb(n + k - 1, k) for k in sizes]
        rng = random.Random(seed)
        self.rounds = []
        for _ in range(self.pool_rounds):
            invs = []
            for _ in range(self.INVOLUTIONS):
                k = rng.choices(sizes, weights)[0]
                pos = sorted(rng.sample(range(n + k - 1), k))
                invs.append(az.Multisegment([base[p - i] for i, p in enumerate(pos)]))
            m = az.Multisegment([
                mk(b, rng.randint(b, 5))
                for b in (rng.randint(-5, 5) for _ in range(rng.randint(1, 8)))])
            extra = []
            for _ in range(2):
                b = rng.randint(-5, 5)
                extra.append(mk(b, rng.randint(b, 5)))
            self.rounds.append((invs, m, extra))

    def run_round(self, r):
        az = self.az
        invs, m, extra = self.rounds[r % self.pool_rounds]
        out = []
        for x in invs:
            self.mark()
            t0 = perf_counter()
            t = az.mw_transpose(x)
            ok = az.mw_transpose(t) == x
            out.append((perf_counter() - t0, (t, ok), "mw"))
        targets = None
        i = 0
        while targets is None or i < len(targets):
            self.mark()
            t0 = perf_counter()
            if targets is None:  # the first capacity op also pays for mw(m)
                t = az.mw_transpose(m)
                targets = sorted(set(m.entries) | set(t.entries) | set(extra),
                                 key=lambda d: (d.b.twice, d.e.twice))
            tgt = targets[i]
            res = (az.kz_capacity(m, tgt), az.containment_count(t, tgt))
            out.append((perf_counter() - t0, res, tgt))
            i += 1
        return out

    def check(self, output, ctx):
        if ctx == "mw":
            return output[1] is True
        return output[0] == output[1]

    def render(self, output, ctx):
        if ctx == "mw":
            return self.az.cli.render_output(output[0]) + "\n"
        return f"{ctx} {output[0]}\n"


class Derive(Workload):
    """``reduced_report`` on sampled symmetric inputs on good and bad lines,
    both grids, km in {3, 6, 10}.  One op is one report."""

    name = "derive"
    rounds_per_s = 20.0
    pool_rounds = 20
    PER_COMBO = 2

    def __init__(self, az, seed, workdir):
        super().__init__(az, seed, workdir)
        combos = []
        for cls in (az.GOOD, az.BAD):
            for grid in (az.GRID_INT, az.GRID_HALF):
                for km in (3, 6, 10):
                    ln = az.Line("rho", cls, grid)
                    data = az.enumerate_data(
                        km, km, km // 2 + 1, [ln], mode="sampled",
                        count=self.PER_COMBO * self.pool_rounds, seed=seed * 100 + len(combos))
                    combos.append([az.transfer(d) for d in data])
        self.rounds = [
            [c[r * self.PER_COMBO + j] for j in range(self.PER_COMBO) for c in combos]
            for r in range(self.pool_rounds)]

    def run_round(self, r):
        out = []
        for s in self.rounds[r % self.pool_rounds]:
            lat, rep = self._timed(self.az.reduced_report, s)
            out.append((lat, rep, s))
        return out

    def check(self, rep, s):
        """The report covers exactly the twists in each line's end range and
        its verdicts follow from its orders."""
        az = self.az
        lines = [ln for ln in s.lines() if ln.cls in (az.GOOD, az.BAD)]
        if set(rep) != {ln.id for ln in lines} | {"reduced"}:
            return False
        overall = True
        for ln in lines:
            e = rep[ln.id]
            emax2 = max(d.e.twice for d in s.m if d.line == ln)
            twists = [str(az.HalfInt.from_twice(x2))
                      for x2 in range(-emax2, emax2 + 1, 2) if x2]
            orders = e["orders"]
            if list(orders) != twists or any(k < 0 for k in orders.values()):
                return False
            x_red = not any(orders.values())
            if ln.grid == az.GRID_INT:
                reduced = x_red and e["zero_chunk_order"] == 0
            else:
                reduced = x_red and e["zero_chunk_order"] is None
            if e["x_reduced"] != x_red or e["reduced"] != reduced:
                return False
            overall = overall and reduced
        return rep["reduced"] == overall

    def oracle(self, rep, s):
        """Derivative commutation (C4): the order at x on s equals the order
        at -x on its dual."""
        az = self.az
        dual = az.reduced_report(az.ad_symm(s))
        return all(
            dual[lid]["orders"][str(-az.HalfInt.parse(x))] == k
            for lid, e in rep.items() if lid != "reduced"
            for x, k in e["orders"].items())

    def render(self, rep, s):
        return _sep_json(rep) + "\n"


WORKLOADS = {w.name: w for w in (Corpus, Ladder, Sweep, Transpose, Derive)}
