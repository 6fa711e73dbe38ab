"""Tests of the benchmark itself (not of skv).

Run from the repository root: python3 -m pytest -q perfbench/selftest.py
The file name keeps these child-spawning tests out of the default pytest
collection of the repository's own suite.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())


def traced_pair(reference, name="small-check", seed=1):
    """One untraced and one traced sample of a workload."""
    w = run.Workload(name, seed, reference)
    plain, traced = run.Series(w, False), run.Series(w, True)
    run.measure([plain, traced], 0.0, [])
    return plain, traced


def outputs(series):
    return [[call["stdout"] for call in r["calls"]] for r in series.samples]


def test_two_traced_runs_repeat_counts_and_outputs():
    runs = [traced_pair(REFERENCE) for _ in range(2)]
    for plain, traced in runs:
        assert not plain.failures and not traced.failures
        # traced reports are byte-identical to untraced ones
        assert outputs(traced) == outputs(plain)
    (p1, t1), (p2, t2) = runs
    assert outputs(t1) == outputs(t2)
    layers = [run.per_layer(p, t) for p, t in runs]
    calls = [{k: v["value"] for k, v in got.items() if k.endswith(".calls")}
             for got in layers]
    assert calls[0] == calls[1]
    assert calls[0]["rednorm.apply_representation.calls"] > 0
    assert calls[0]["verify.check_brumer.calls"] == len(run.SMALL)
    assert set(layers[0]) == {m["name"] for m in run.SPEC["per_layer"]}


def test_every_binding_of_a_function_is_wrapped():
    code = """
import skv.cli, skv.engine, skv.linalg, skv.rednorm
from skv.cyclotomic import Cyclo
import tracer
t = tracer.Tracer()
tracer.install(t)
assert skv.linalg.mat_det is skv.rednorm.mat_det is skv.engine.mat_det
assert Cyclo.__dict__["__radd__"] is Cyclo.__dict__["__add__"]
0 + Cyclo.one()
assert t.stats["cyclotomic.Cyclo.__add__"][0] == 1
skv.rednorm.mat_det([[Cyclo.one()]])
assert t.stats["linalg.mat_det"][0] == 1
"""
    path = [str(run.ROOT / "src"), str(HERE)]
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                   env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)))


def test_self_time_never_exceeds_span():
    plain, traced = traced_pair(REFERENCE)
    for calls, total, own in traced.samples[0]["trace"]["stats"].values():
        assert 0 <= own <= total + 1e-9


def test_corrupted_reference_digest_counts_as_failed():
    bad = copy.deepcopy(REFERENCE)
    digest = bad["check"]["s3c2"]["sha256"]
    bad["check"]["s3c2"]["sha256"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    result = run.run_benchmark(["small-check"], 1, 0.0, False, bad)
    assert result["attempted"] == 1
    assert result["failed"] == 1
    assert result["correct"] is False


def test_fitting_oracle_rejects_a_wrong_trivial_component():
    rows = [[{"0": "2", "3": "1"}, {}], [{"1": "-1"}, {"2": "2"}]]
    good = json.dumps({"generators": [[{"order": 1, "coeffs": {"0": "6"}}]]})
    assert run.check_fitting(rows, good) == []
    wrong = json.dumps({"generators": [[{"order": 1, "coeffs": {"0": "5"}}]]})
    assert run.check_fitting(rows, wrong)


def test_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-check",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
