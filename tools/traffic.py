"""Statement trace of src/skv over a fixed list of command-line calls.

Runs `skv.cli.main` in-process under `sys.settrace` and prints, per module
of src/skv, the line ranges of statements that no call ran.  The calls are
the command line as `tools/report_digests.py` digests it and a little
more:

- every help screen and bad invocation of its `CLI_INVOCATIONS`;
- its `COMMAND_INVOCATIONS` and `check all` on every shipped fixture;
- `check all` on the ladder fields Q(zeta_31) and Q(zeta_47);
- `fitting` on perfbench's presentations for seeds 0-2, and on the
  presentations of the C30 ladder group for the same seeds;
- each `check` suite on every shipped fixture, alone and with `--T`,
  `--T --p`, `--T --r`, `--r` and `--p`.

A line inside a branch that no call takes shows up as never run.  A choice
made within one line (a conditional expression, an argument default) does
not, so `--watch module.qualname[:variable]` also prints the distinct
values that a function returned, or that one of its local variables held
when it returned, over every call.  From the repository root:

    python3 tools/traffic.py
    python3 tools/traffic.py --watch grouprings.product_coefficients \\
        grouprings.max_order_membership:product

A watched name that is no function of src/skv (nested ones are named by
their `__qualname__`, as `module.f.<locals>.g`) exits 2 before any call.

Ladder fixtures and presentation files go to a temporary directory, and
perfbench/run.py is imported read-only for its presentation generators.
"""

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
from collections import Counter

ROOT = os.path.realpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
SRC = os.path.join(ROOT, "src", "skv")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tools"))

LADDER = (31, 47)
SEEDS = (0, 1, 2)
#: Flag sets for each `check` suite; a flag that a suite never reads exits 3.
CHECK_VARIANTS = ([], ["--T", "{t}"], ["--T", "{t}", "--p", "{p}"],
                  ["--T", "{t}", "--r", "-1"], ["--r", "-2"], ["--p", "{p}"])


def code_objects(path: str):
    """Every code object compiled from a source file, each with whether
    it is the module's own."""
    with open(path) as fh:
        stack = [(compile(fh.read(), path, "exec"), True)]
    while stack:
        co, top = stack.pop()
        yield co, top
        stack.extend((c, False) for c in co.co_consts if hasattr(c, "co_lines"))


def executable_lines(path: str) -> set[int]:
    """The lines of a source file that hold bytecode, without line 0 and
    the first line of each function and class body, which its enclosing
    code runs."""
    return {line for co, top in code_objects(path) for _, _, line in co.co_lines()
            if line and (top or line != co.co_firstlineno)}


def unknown_watches(watches) -> list[str]:
    """The watched labels whose module.qualname names no function or
    class body of src/skv."""
    unknown = []
    for label in watches:
        module, _, qualname = label.partition(":")[0].partition(".")
        path = os.path.join(SRC, f"{module}.py")
        if not (os.path.isfile(path)
                and any(co.co_qualname == qualname for co, _ in code_objects(path))):
            unknown.append(label)
    return unknown


def missed_ranges(lines, ran) -> list[str]:
    """The lines not in ``ran`` as 'a-b' runs, each as long as no line of
    ``lines`` between a and b ran; 'a' for a run of one."""
    out, open_run = [], False
    for line in sorted(lines):
        if line in ran:
            open_run = False
        elif open_run:
            out[-1][1] = line
        else:
            out.append([line, line])
            open_run = True
    return [f"{a}" if a == b else f"{a}-{b}" for a, b in out]


class Tracer:
    """Records (file, line) of every line event in src/skv, and the watched
    values at each return of a watched function."""

    def __init__(self, watches):
        self.hits: set[tuple[str, int]] = set()
        # (file, qualname) -> [(label, variable or None)]
        self.watches: dict[tuple[str, str], list] = {}
        self.seen: dict[str, Counter] = {}
        for label in watches:
            target, _, var = label.partition(":")
            module, _, qualname = target.partition(".")
            key = (os.path.join(SRC, f"{module}.py"), qualname)
            self.watches.setdefault(key, []).append((label, var or None))
            self.seen[label] = Counter()

    def global_trace(self, frame, event, arg):
        return self.local_trace if frame.f_code.co_filename.startswith(SRC) else None

    def local_trace(self, frame, event, arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        elif event == "return":
            code = frame.f_code
            for label, var in self.watches.get((code.co_filename, code.co_qualname), ()):
                value = arg if var is None else frame.f_locals.get(var, "<unset>")
                self.seen[label][repr(value)[:60]] += 1
        return self.local_trace


def fixture_calls(path: str) -> list[list[str]]:
    """`check all`, the `COMMAND_INVOCATIONS` and each `check` suite with
    each of `CHECK_VARIANTS` on one fixture file: --T takes an unramified
    finite place, --p the least ramified residue characteristic (or 2)."""
    from report_digests import COMMAND_INVOCATIONS
    from skv.verify import SUITES

    calls = [["check", "all", "--fixture", path]]
    calls.extend([*command, "--fixture", path] for command in COMMAND_INVOCATIONS)
    with open(path) as fh:
        places = json.load(fh)["places"]
    finite = [pl for pl in places if not pl.get("infinite")]
    t = next(pl["label"] for pl in finite if not pl.get("ramified"))
    p = str(min([pl["residueChar"] for pl in finite if pl.get("ramified")] or [2]))
    for suite in SUITES:
        for flags in CHECK_VARIANTS:
            calls.append(["check", suite, "--fixture", path,
                          *(f.format(t=t, p=p) for f in flags)])
    return calls


def invocations(work: str) -> list[list[str]]:
    """The fixed list of argument vectors; writes the files they read."""
    from make_fixtures import write_ladder_fixture
    from report_digests import (CLI_INVOCATIONS, FIXTURES, ladder_presentations,
                                perfbench_run)

    calls = [list(argv) for argv in CLI_INVOCATIONS]
    names = sorted(n[:-5] for n in os.listdir(FIXTURES) if n.endswith(".json"))
    for name in names:
        calls.extend(fixture_calls(os.path.join(FIXTURES, f"{name}.json")))
    for p in LADDER:
        calls.append(["check", "all", "--fixture", write_ladder_fixture(p, work)])

    def fitting(fixture, rows):
        matrix = os.path.join(work, f"m{len(calls)}.json")
        with open(matrix, "w") as fh:
            json.dump({"rows": rows}, fh)
        calls.append(["fitting", "--fixture", fixture, "--matrix", matrix])

    perfbench = perfbench_run()
    ladder = write_ladder_fixture(LADDER[0], work)
    for seed in SEEDS:
        for group, rows in perfbench.fitting_matrices(seed):
            fitting(os.path.join(FIXTURES, f"{group}.json"), rows)
        for rows in ladder_presentations(perfbench, LADDER[0], seed):
            fitting(ladder, rows)
    return calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--watch", nargs="+", default=[], metavar="MODULE.QUALNAME[:VAR]",
                        help="print the distinct return values of a function, "
                             "or of one of its local variables at return")
    args = parser.parse_args(argv)
    unknown = unknown_watches(args.watch)
    if unknown:
        parser.error(f"--watch: no such function in src/skv: {', '.join(unknown)}")
    tracer = Tracer(args.watch)
    codes = Counter()
    with tempfile.TemporaryDirectory() as work:
        sys.settrace(tracer.global_trace)
        try:
            # importing under the trace counts the module-level statements
            from skv.cli import main as skv_main
            calls = invocations(work)
            for call in calls:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    codes[skv_main(call)] += 1
        finally:
            sys.settrace(None)
    print(f"# {len(calls)} calls, exit codes "
          + ", ".join(f"{rc}: {n}" for rc, n in sorted(codes.items())))
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        ran = {line for file, line in tracer.hits if file == path}
        missed = missed_ranges(executable_lines(path), ran)
        print(f"{name[:-3]}: {', '.join(missed) or '-'}")
    for label, values in tracer.seen.items():
        shown = ", ".join(f"{v} ({n})" for v, n in sorted(values.items()))
        print(f"watch {label}: {shown or 'never returned'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
