"""Print the exit code and stdout sha256 of skv reports, one line each.

Covers `check all` on every shipped fixture and `fitting` on the random
presentations perfbench generates for each seed in a range; `--extra`
adds `check all` on further fixture files, and `--ladder` on the ladder
fields Q(zeta_p) that `tools/make_fixtures.py` writes to a temporary
directory.  `--fitting-ladder` adds `fitting` on the group of such a
field, C_(p-1), with perfbench's six presentation shapes (a x b for b in
1..3 and a in {b, b + 1}) drawn by its generator for each seed.
`--fitting-wide` adds `fitting` on perfbench's two groups, s3c2 and
q_zeta23, with the twelve wider shapes a x b for b in 1..4 and a in
{b, b + 1, b + 2} (`WIDE_SHAPES`), drawn by the same generator for each
seed; there, unlike at a in {b, b + 1}, many minors share their first
pivot rows.  `--cli`
adds the command line itself: `skv --help`, each command's `--help` and a
fixed list of bad invocations (`CLI_INVOCATIONS`), each with its exit code
and the sha256 of its stdout and of its stderr, at a fixed help width of 80
columns.  `--commands` adds, on every shipped fixture, `theta` at r = 0,
-1, -2 and -3 and `sku`, each in json and in text, `fixtures validate`,
`check all --format text` and `check stickelberger --T 3|5 --r -1`
(`COMMAND_INVOCATIONS`), each with its exit code
and the sha256 of its stdout and of its stderr.  Run it at two commits and
diff the outputs to show that a change keeps every report byte-identical.
From the repository root:

    python3 tools/report_digests.py --seeds 0-39 --ladder 31,47,71,107,257,521 --cli > digests.txt
    python3 tools/report_digests.py --seeds 0 --commands > digests.txt
    python3 tools/report_digests.py --seeds 0 --extra big.json > digests.txt
    python3 tools/report_digests.py --seeds 0-3 --fitting-ladder 31,47 > digests.txt
    python3 tools/report_digests.py --seeds 0-39 --fitting-wide > digests.txt

The presentations come from `fitting_matrices` and `random_presentation`
in perfbench/run.py, which is imported read-only; the matrix files go to a
temporary directory.

`--against REV` does the whole byte-identity proof in one command: it
extracts REV with `git archive` into a temporary directory, runs each
digest list of `PROOF_RUNS` there and in the working tree, prints every
line that differs, and exits 1 if any does.  The working tree's copy of
this tool runs on both trees, so a list added here is compared at REV
too:

    python3 tools/report_digests.py --against HEAD
"""

import argparse
import contextlib
import difflib
import hashlib
import importlib.util
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tools"))

from make_fixtures import write_ladder_fixture  # noqa: E402
from skv.cli import main as skv_main  # noqa: E402

FIXTURES = os.path.join(ROOT, "src", "skv", "fixtures")

#: Help screens and bad invocations for --cli.  None of them gets as far as
#: reading a file, so the file names need not exist.
CLI_INVOCATIONS = [
    ["--help"],
    *([*command, "--help"] for command in (
        ["theta"], ["check"], ["sku"], ["fitting"], ["fixtures"],
        ["fixtures", "validate"])),
    # an unknown command, and none at all
    ["nonsense", "--fixture", "q.json"],
    [],
    # an unknown flag
    ["theta", "--fixture", "q.json", "--bogus"],
    ["check", "all", "--fixture", "q.json", "--bogus"],
    ["sku", "--fixture", "q.json", "--bogus", "1"],
    ["fitting", "--fixture", "q.json", "--matrix", "m.json", "--bogus"],
    ["fixtures", "validate", "--fixture", "q.json", "--bogus"],
    # a missing --fixture
    ["theta"],
    ["check", "all"],
    ["sku", "--bound", "1"],
    ["fitting", "--matrix", "m.json"],
    ["fixtures", "validate"],
    # options before the command
    ["--fixture", "q.json", "check", "all"],
    ["--format", "text", "theta", "--fixture", "q.json"],
    # a missing or unknown subcommand, suite or choice
    ["check", "--fixture", "q.json"],
    ["check", "nonsense", "--fixture", "q.json"],
    ["fixtures", "--fixture", "q.json"],
    ["theta", "--fixture", "q.json", "--format", "yaml"],
    ["sku", "--fixture", "q.json", "--bound", "two"],
]


#: Per-fixture invocations for --commands, without the --fixture argument.
COMMAND_INVOCATIONS = [
    *([*command, "--format", fmt]
      for command in [*(["theta", f"--r={r}"] for r in (0, -1, -2, -3)), ["sku"]]
      for fmt in ("json", "text")),
    ["fixtures", "validate"],
    ["check", "all", "--format", "text"],
    # the r < 0 admissibility: 3 divides w_2(Q) = 24 and 5 does not
    *(["check", "stickelberger", "--T", t, "--r", "-1"] for t in ("3", "5")),
]


#: The digest lists that show a change keeps every report byte-identical.
PROOF_RUNS = [
    ["--seeds", "0-39", "--ladder", "31,47,71,107,257,521", "--cli"],
    ["--seeds", "0-39", "--fitting-ladder", "31,47", "--commands"],
    ["--seeds", "0-39", "--fitting-wide"],
]

#: Presentation shapes (a, b) of --fitting-wide.
WIDE_SHAPES = [(a, b) for b in (1, 2, 3, 4) for a in (b, b + 1, b + 2)]


def against(rev: str) -> int:
    """Run ``PROOF_RUNS`` on ``rev`` and on the working tree, each list on
    both trees at once and by this file on both; print the differing
    lines, and return 1 if there are any, else 0."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev],
                             capture_output=True, check=True).stdout
    differ = False
    with tempfile.TemporaryDirectory() as base:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(base)
        shutil.copy(os.path.abspath(__file__), os.path.join(base, "tools", "report_digests.py"))
        for argv in PROOF_RUNS:
            runs = [subprocess.Popen(
                [sys.executable, os.path.join(tree, "tools", "report_digests.py"), *argv],
                cwd=tree, stdout=subprocess.PIPE, text=True) for tree in (base, ROOT)]
            old, new = (run.communicate()[0].splitlines() for run in runs)
            if any(run.returncode for run in runs):
                print(f"[{' '.join(argv)}] exit codes {[run.returncode for run in runs]}")
                differ = True
            diff = list(difflib.unified_diff(old, new, rev, "working tree", n=0, lineterm=""))
            print(f"[{' '.join(argv)}] {len(old)} lines at {rev}, {len(new)} in the "
                  f"working tree, {'differing' if diff else 'identical'}")
            for line in diff:
                print(line)
            differ = differ or bool(diff)
    return 1 if differ else 0


def perfbench_run():
    """perfbench/run.py as a module, for its presentation generators."""
    sys.dont_write_bytecode = True  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(ROOT, "perfbench", "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def ladder_presentations(perfbench, p: int, seed: int):
    """perfbench's six presentation shapes on C_(p-1), drawn as
    ``fitting_matrices`` draws them for one group."""
    rng = random.Random(seed)
    return [perfbench.random_presentation(rng, p - 1, a, b)
            for b in (1, 2, 3) for a in (b, b + 1)]


def wide_presentations(perfbench, seed: int):
    """(group fixture, matrix) pairs: on each of perfbench's fitting
    groups, one matrix of each of ``WIDE_SHAPES``, drawn as
    ``fitting_matrices`` draws its six shapes."""
    rng = random.Random(seed)
    out = []
    for name in perfbench.FITTING_GROUPS:
        with open(os.path.join(FIXTURES, f"{name}.json")) as fh:
            order = len(json.load(fh)["group"]["table"])
        out.extend((name, perfbench.random_presentation(rng, order, a, b))
                   for a, b in WIDE_SHAPES)
    return out


def digest_fitting(work: str, fixture: str, rows) -> str:
    path = os.path.join(work, "m.json")
    with open(path, "w") as fh:
        json.dump({"rows": rows}, fh, sort_keys=True)
    return digest(["fitting", "--fixture", fixture, "--matrix", path])


def digest(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = skv_main(argv)
    return f"{rc} {hashlib.sha256(out.getvalue().encode()).hexdigest()}"


def cli_digest(argv) -> str:
    """Exit code and the sha256 of stdout and of stderr of one call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = skv_main(argv)
    return " ".join([str(rc), *(hashlib.sha256(s.getvalue().encode()).hexdigest()
                                for s in (out, err))])


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def prime_list(text: str) -> list[int]:
    return [int(p) for p in text.split(",") if p]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-39"),
                        help="perfbench seeds for the fitting calls, as A-B or A")
    parser.add_argument("--extra", nargs="+", default=[], metavar="FIXTURE",
                        help="further fixture files to digest `check all` on")
    parser.add_argument("--ladder", type=prime_list, default=[], metavar="P,...",
                        help="odd primes p whose ladder field Q(zeta_p) to "
                             "digest `check all` on")
    parser.add_argument("--fitting-ladder", type=prime_list, default=[], metavar="P,...",
                        help="odd primes p on whose ladder group C_(p-1) to "
                             "digest `fitting` for each seed")
    parser.add_argument("--fitting-wide", action="store_true",
                        help="also digest `fitting` on s3c2 and q_zeta23 with the "
                             "shapes of WIDE_SHAPES for each seed")
    parser.add_argument("--commands", action="store_true",
                        help="also digest theta, sku, fixtures validate and "
                             "text check on every shipped fixture")
    parser.add_argument("--cli", action="store_true",
                        help="also digest skv's help screens and the bad "
                             "invocations in CLI_INVOCATIONS")
    parser.add_argument("--against", metavar="REV",
                        help="compare the digests of PROOF_RUNS at the git revision "
                             "REV with those of the working tree; the other options "
                             "are then not read")
    args = parser.parse_args(argv)
    if args.against:
        return against(args.against)
    if args.cli:
        # argparse wraps help to the terminal width, which it reads here
        os.environ["COLUMNS"] = "80"
        for cli_argv in CLI_INVOCATIONS:
            print(f"cli [{' '.join(cli_argv)}] {cli_digest(cli_argv)}")
    fixtures = sorted(name for name in os.listdir(FIXTURES) if name.endswith(".json"))
    for name in fixtures:
        path = os.path.join(FIXTURES, name)
        print(f"check {name[:-5]} {digest(['check', 'all', '--fixture', path])}")
    if args.commands:
        for name in fixtures:
            path = os.path.join(FIXTURES, name)
            for command in COMMAND_INVOCATIONS:
                print(f"command {name[:-5]} [{' '.join(command)}] "
                      f"{cli_digest([*command, '--fixture', path])}", flush=True)
    for path in args.extra:
        print(f"check {path} {digest(['check', 'all', '--fixture', path])}", flush=True)
    perfbench = perfbench_run()
    with tempfile.TemporaryDirectory() as work:
        for p in args.ladder:
            path = write_ladder_fixture(p, work)
            print(f"ladder {p} {digest(['check', 'all', '--fixture', path])}", flush=True)
        for seed in args.seeds:
            for i, (group, rows) in enumerate(perfbench.fitting_matrices(seed)):
                fixture = os.path.join(FIXTURES, f"{group}.json")
                print(f"fitting {seed} {i} {group} {digest_fitting(work, fixture, rows)}",
                      flush=True)
        if args.fitting_wide:
            for seed in args.seeds:
                for i, (group, rows) in enumerate(wide_presentations(perfbench, seed)):
                    fixture = os.path.join(FIXTURES, f"{group}.json")
                    print(f"fitting-wide {seed} {i} {group} "
                          f"{digest_fitting(work, fixture, rows)}", flush=True)
        for p in args.fitting_ladder:
            fixture = write_ladder_fixture(p, work)
            for seed in args.seeds:
                for i, rows in enumerate(ladder_presentations(perfbench, p, seed)):
                    print(f"fitting-ladder {p} {seed} {i} "
                          f"{digest_fitting(work, fixture, rows)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
