"""Tests of the benchmark itself: self-time arithmetic, the tracer's
patching, the metric list against BENCHMARK.json, and a short smoke run of
every workload."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402

ROOT = HERE.parent


def test_self_time_of_nested_spans():
    # a [0,10] holds b [1,4] and c [5,9]; c holds d [6,7]; e is a top-level
    # span from set-up (op -1)
    sp = [
        ["a", 0.0, 10.0, -1, 0],
        ["b", 1.0, 4.0, 0, 0],
        ["c", 5.0, 9.0, 0, 0],
        ["d", 6.0, 7.0, 2, 0],
        ["e", 11.0, 12.5, -1, -1],
    ]
    assert spans.self_times(sp) == [3.0, 3.0, 3.0, 1.0, 1.5]
    summ = spans.summarize(sp)
    assert summ["a"] == (3.0, 10.0, 1)
    assert summ["e"] == (1.5, 1.5, 0)


def test_tracer_wraps_every_lookup_site_and_restores():
    sys.path.insert(0, str(ROOT / "src"))
    import azdual
    import azdual.ad_core
    import azdual.cli
    import azdual.langdata
    import azdual.verify

    before = (azdual.langdata.validate, azdual.ad_core.validate,
              dict(azdual.verify.SUITES))
    tr = spans.Tracer()
    tr.install()
    try:
        assert azdual.ad_core.validate is azdual.langdata.validate is not before[0]
        tr.enabled = True
        tr.next_op()
        d = next(azdual.enumerate_data(2, 2, 1, [azdual.line("rho")],
                                       mode="sampled", count=1, seed=0))
        azdual.ad_data(d)
        tr.enabled = False
    finally:
        tr.restore()
    assert (azdual.langdata.validate, azdual.ad_core.validate,
            dict(azdual.verify.SUITES)) == before
    names = [s[spans.NAME] for s in tr.spans]
    assert names[0] == "verify.enumerate"
    top = names.index("ad_core.ad_data")
    children = {s[spans.NAME] for s in tr.spans if s[spans.PARENT] == top}
    assert {"langdata.transfer", "ad_core.ad_symm", "langdata.untransfer"} <= children
    assert all(s[spans.END] >= s[spans.START] for s in tr.spans)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in run.per_layer_metrics()]


def _run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_default_seed(workload):
    """A short untraced run: outputs match the recorded digests."""
    proc = _run(["--workload", workload, "--seed", "0", "--seconds", "0.2",
                 "--trace", "0"])
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0, proc.stderr
    assert list(res["metrics"]) == [m[0] for m in run.END_TO_END]
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_traced(workload):
    proc = _run(["--workload", workload, "--seed", "1", "--seconds", "0.2",
                 "--trace", "1"])
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert res["correct"] and res["failed"] == 0, proc.stderr
    assert list(res["metrics"]) == [m[0] for m in run.per_layer_metrics()]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(["--workload", "corpus", "--seed", "0", "--seconds", "1"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
