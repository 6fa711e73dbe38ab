"""Cold-process benchmark of the skv command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload small-check --seed 1 --seconds 38 --trace 0

``--workload all`` interleaves the workloads in one run, giving each the
same share of the time.  One sample is one operation in a fresh child
interpreter (perfbench/child.py) that imports ``skv.cli`` and calls
``skv.cli.main``; one child runs at a time (a closed loop with one client).
Every CLI user pays for skv's process-global and per-table caches on every
run, so no sample reuses a warm process.

With ``--trace 0`` the result carries the end-to-end metrics listed in
BENCHMARK.json; with ``--trace 1`` the run alternates untraced and traced
samples and carries the per-layer metrics, the tracing overhead among them.
Every output is checked against perfbench/reference.json.  The last stdout
line is the JSON result; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

FIXTURES = "src/skv/fixtures"
SMALL = ("q", "q_i", "q_sqrt_m5", "q_zeta3", "s3c2")
FITTING_GROUPS = ("s3c2", "q_zeta23")
#: A run must end within this many seconds, whatever --seconds asks for.
RUN_LIMIT_S = 170.0
#: Share of an untraced run's time, per operation series, spent in children
#: that only set up; gives qzeta23-check ~10 extra setup_s samples a run.
SETUP_SHARE = 0.05


# -- workloads ------------------------------------------------------------


def check_call(name: str) -> list[str]:
    return ["check", "all", "--fixture", f"{FIXTURES}/{name}.json"]


def random_presentation(rng: random.Random, order: int, a: int, b: int):
    """An a x b integral matrix over ZG with sparse entries: each entry has
    zero, one or two terms with coefficients in {-2, -1, 1, 2}."""
    rows = []
    for _ in range(a):
        row = []
        for _ in range(b):
            terms = rng.choice((0, 1, 1, 2))
            elems = rng.sample(range(order), terms)
            row.append({str(g): str(rng.choice((-2, -1, 1, 2))) for g in elems})
        rows.append(row)
    return rows


def fitting_matrices(seed: int) -> list[tuple[str, list]]:
    """(group fixture, matrix) pairs: for each group, one matrix per shape
    a x b with b in 1..3 and a in {b, b + 1}."""
    rng = random.Random(seed)
    out = []
    for name in FITTING_GROUPS:
        fix = json.loads((ROOT / FIXTURES / f"{name}.json").read_text())
        order = len(fix["group"]["table"])
        for b in (1, 2, 3):
            for a in (b, b + 1):
                out.append((name, random_presentation(rng, order, a, b)))
    return out


class Workload:
    """One operation's main() calls and how to check each call's output.

    ``reference`` is perfbench/reference.json: exit code and output digest
    of every shipped fixture's report, and of the fitting calls at the
    reference seed.  At other seeds a fitting call is checked against the
    determinant oracle and against the run's first sample.
    """

    def __init__(self, name: str, seed: int, reference: dict):
        self.seed = seed
        self.reference = reference
        self.first: list[str] | None = None  # digests of the first sample
        if name == "qzeta23-check":
            names = ("q_zeta23",)
        elif name == "small-check":
            names = SMALL
        elif name == "fitting-random":
            names = ()
        else:
            raise ValueError(f"unknown workload {name}")
        self.calls = [check_call(n) for n in names]
        self.keys = [("check", n) for n in names]
        self.matrices: list[list | None] = [None] * len(names)
        if name == "fitting-random":
            work = HERE / ".work" / f"fitting-{seed}"
            work.mkdir(parents=True, exist_ok=True)
            for i, (group, rows) in enumerate(fitting_matrices(seed)):
                path = work / f"m{i}.json"
                path.write_text(json.dumps({"rows": rows}, sort_keys=True))
                self.calls.append(["fitting", "--fixture",
                                   f"{FIXTURES}/{group}.json", "--matrix",
                                   str(path.relative_to(ROOT))])
                self.keys.append(("fitting", i))
                self.matrices.append(rows)

    def expected(self, i: int) -> dict:
        kind, key = self.keys[i]
        if kind == "check":
            return self.reference["check"][key]
        ref = self.reference["fitting"]
        if self.seed == ref["seed"]:
            return ref["calls"][key]
        return {"rc": 0, "sha256": None}

    def check(self, result: dict | None) -> list[str]:
        """Problems with one sample's outputs; empty when all are right."""
        if result is None:
            return ["child produced no result"]
        problems = []
        digests = []
        for i, call in enumerate(result["calls"]):
            want = self.expected(i)
            where = " ".join(call["argv"])
            if "error" in call:
                problems.append(f"{where}: raised {call['error']}")
                digests.append(None)
                continue
            digest = hashlib.sha256(call["stdout"].encode()).hexdigest()
            digests.append(digest)
            if call["rc"] != want["rc"]:
                problems.append(f"{where}: exit {call['rc']}, "
                                f"reference {want['rc']}")
            if want["sha256"] is not None and digest != want["sha256"]:
                problems.append(f"{where}: output digest differs from the "
                                "reference")
            if self.first is not None and digest != self.first[i]:
                problems.append(f"{where}: output differs from this run's "
                                "first sample")
            if self.matrices[i] is not None and call["rc"] == 0:
                problems.extend(f"{where}: {p}" for p in
                                check_fitting(self.matrices[i], call["stdout"]))
        if self.first is None and not problems:
            self.first = digests
        return problems


def int_det(m: list[list[int]]) -> int:
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return total


def check_fitting(rows, stdout: str) -> list[str]:
    """Seed-independent oracle: the trivial-character component of each
    Fitting generator is the determinant of the b x b row selection of the
    augmented (coefficient-sum) matrix, in combination order."""
    aug = [[sum(int(c) for c in entry.values()) for entry in row]
           for row in rows]
    b = len(aug[0])
    selections = list(itertools.combinations(range(len(aug)), b))
    try:
        gens = json.loads(stdout)["generators"]
    except (json.JSONDecodeError, KeyError) as exc:
        return [f"unreadable fitting output ({exc!r})"]
    if len(gens) != len(selections):
        return [f"{len(gens)} generators, expected {len(selections)}"]
    problems = []
    for k, (sel, gen) in enumerate(zip(selections, gens)):
        d = int_det([aug[r] for r in sel])
        want = {"0": str(d)} if d else {}
        if gen[0]["coeffs"] != want:
            problems.append(f"generator {k}: trivial component "
                            f"{gen[0]['coeffs']} is not det {d}")
    return problems


# -- samples --------------------------------------------------------------


def fraction_probe() -> float:
    """Seconds for a fixed pure-Python Fraction sum (host-speed context)."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 300):
        acc += Fraction(1, k * k)
    return time.perf_counter() - t0


def run_child(calls: list, trace: bool, timeout: float) -> dict:
    """Run one operation in a fresh child; return its sample record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    job = json.dumps({"calls": calls, "trace": trace})
    spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), job],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"result": None, "span": time.monotonic() - spawn,
                "error": "timed out"}
    except BaseException:  # interrupted: leave no child running
        proc.kill()
        proc.wait()
        raise
    span = time.monotonic() - spawn
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"result": None, "span": span,
                "error": f"child exit {proc.returncode}: {err.strip()[-500:]}"}
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - spawn
    return {"result": result, "span": span}


class SetupOnly:
    """Children that import skv.cli and exit at once: extra setup_s
    samples, so that runs with few long operations still set up often."""

    calls: list = []

    def check(self, result: dict) -> list[str]:
        return []


class Series:
    """Samples of one workload in one run, traced or not.  ``share`` is the
    series' weight in the run's time."""

    def __init__(self, workload, trace: bool, share: float = 1.0):
        self.workload = workload
        self.trace = trace
        self.share = share
        self.samples: list[dict] = []
        self.failures: list[str] = []
        self.spans: list[float] = []

    @property
    def attempted(self) -> int:
        return len(self.samples) + len(self.failures)

    def next_span(self) -> float:
        return statistics.median(self.spans) if self.spans else 0.0

    def sample(self, deadline: float, probes: list[float]):
        probes.append(fraction_probe())
        rec = run_child(self.workload.calls, self.trace,
                        deadline - time.monotonic())
        self.spans.append(rec["span"])
        problems = ([rec["error"]] if "error" in rec else
                    self.workload.check(rec["result"]))
        if problems:
            self.failures.append("; ".join(problems))
        else:
            self.samples.append(rec["result"])


def measure(series: list[Series], seconds: float, probes: list[float]):
    """Closed loop, one child at a time.  Each series is sampled once, then
    the next sample goes to the series with the least time spent per unit
    of share, so interleaved series split the run by their shares.  No
    sample starts after ``seconds``; the last one may end after it."""
    start = time.monotonic()
    hard = start + RUN_LIMIT_S
    for s in series:
        s.sample(hard, probes)
    while time.monotonic() < start + seconds:
        s = min(series, key=lambda x: sum(x.spans) / x.share)
        if time.monotonic() + 2 * s.next_span() > hard:
            return
        s.sample(hard, probes)


# -- metrics --------------------------------------------------------------


def percentile_note(values: list[float], unit: str) -> str:
    """The highest of p75/p90/p95/p99 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
            return f"p{p} {q:.6g} {unit}"
    return "no percentile has ten samples beyond it"


def end_to_end_samples(plain: Series, setup: Series) -> dict:
    """Every sample of each end-to-end metric, by metric name."""
    return {
        "wall_s": [r["wall_s"] for r in plain.samples],
        "setup_s": [r["setup_s"] for r in plain.samples + setup.samples],
        "peak_rss_mb": [r["maxrss_kb"] / 1024 for r in plain.samples],
    }


def end_to_end(plain: Series, setup: Series) -> dict:
    got = end_to_end_samples(plain, setup)
    return {m["name"]: {"value": statistics.median(got[m["name"]]),
                        "unit": m["unit"]}
            for m in SPEC["end_to_end"]}


def module_self(stats: dict, module: str) -> float:
    return sum(v[2] for k, v in stats.items() if k.split(".")[0] == module)


def layer_value(name: str, traced: list[dict], overhead: float) -> float:
    if name == "trace.overhead":
        return overhead
    stats_per = [r["trace"]["stats"] for r in traced]
    base, _, kind = name.rpartition(".")
    if kind == "hit_ratio":
        ratios = []
        for r in traced:
            calls = r["trace"]["stats"][base][0]
            ratios.append(r["trace"]["rep_hits"] / calls if calls else 0.0)
        return statistics.median(ratios)
    if kind == "self_s" and "." not in base:
        return statistics.median(module_self(st, base) for st in stats_per)
    field = {"calls": 0, "total_s": 1, "self_s": 2}[kind]
    values = [st[base][field] for st in stats_per]  # KeyError: not traced
    # counts repeat exactly between samples; median_low keeps them integers
    return statistics.median_low(values) if kind == "calls" else \
        statistics.median(values)


def per_layer(plain: Series, traced: Series) -> dict:
    overhead = (statistics.median(r["wall_s"] for r in traced.samples)
                / statistics.median(r["wall_s"] for r in plain.samples))
    return {m["name"]: {"value": layer_value(m["name"], traced.samples,
                                             overhead),
                        "unit": m["unit"]}
            for m in SPEC["per_layer"]}


def report(name: str, plain: Series, traced: Series | None, setup: Series):
    """Print one workload's human-readable summary to stdout."""
    attempted = sum(s.attempted for s in (plain, traced) if s)
    failed = sum(len(s.failures) for s in (plain, traced) if s)
    print(f"workload {name}: {attempted} operations, {failed} failed "
          f"(failed_frac {failed / attempted:.4f}); one cold child per "
          "operation, one client, closed loop")
    if plain.samples:
        for m, values in end_to_end_samples(plain, setup).items():
            unit = next(x["unit"] for x in SPEC["end_to_end"] if x["name"] == m)
            print(f"  {m:<12} median {statistics.median(values):.6g} {unit}, "
                  f"{percentile_note(values, unit)} (n={len(values)})")
    if traced is not None and traced.samples:
        print(f"  traced wall_s median "
              f"{statistics.median(r['wall_s'] for r in traced.samples):.6g}"
              f" s (n={len(traced.samples)})")
    for f in (plain.failures + (traced.failures if traced else []))[:5]:
        print(f"  FAILED: {f}")


def run_benchmark(names: list[str], seed: int, seconds: float, trace: bool,
                  reference: dict, prefix: bool = False) -> dict:
    """Measure the named workloads interleaved in one run, print the human
    summary and return the result object.  With ``prefix`` every metric
    name starts with its workload's name."""
    pairs = []
    for name in names:
        w = Workload(name, seed, reference)
        pairs.append((name, Series(w, False), Series(w, True) if trace else None))
    ops = [s for _, p, t in pairs for s in (p, t) if s is not None]
    setup = Series(SetupOnly(), False, SETUP_SHARE * len(ops))
    probes: list[float] = []
    measure(ops if trace else ops + [setup], seconds, probes)

    metrics = {}
    for name, plain, traced in pairs:
        report(name, plain, traced, setup)
        if not plain.samples or (traced is not None and not traced.samples):
            continue
        got = per_layer(plain, traced) if traced else end_to_end(plain, setup)
        metrics.update({(f"{name}." if prefix else "") + k: v
                        for k, v in got.items()})
    for f in setup.failures[:5]:
        print(f"  FAILED (set-up only child): {f}")
    q = statistics.quantiles(probes, n=4) if len(probes) > 1 else probes * 3
    print(f"context: Fraction probe median {statistics.median(probes) * 1e3:.4f}"
          f" ms, quartiles {q[0] * 1e3:.4f}..{q[2] * 1e3:.4f} ms "
          f"(n={len(probes)}; host speed, not a metric)")
    attempted = sum(s.attempted for s in ops)
    failed = sum(len(s.failures) for s in ops)
    return {"correct": failed == 0 and not setup.failures,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "skv" / "cli.py").is_file():
        sys.stderr.write(f"error: no skv sources under {ROOT / 'src'}\n")
        return 2
    # Children load skv from bytecode, as from an installed package, even
    # where the environment stops imports from writing it.
    compileall.compile_dir(ROOT / "src" / "skv", quiet=1)
    reference = json.loads((HERE / "reference.json").read_text())
    every = args.workload == "all"
    result = run_benchmark(names if every else [args.workload], args.seed,
                           args.seconds, bool(args.trace), reference,
                           prefix=every)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
