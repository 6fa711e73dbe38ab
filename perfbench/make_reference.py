"""Record perfbench/reference.json from the current skv sources.

Usage (from the repository root): python3 perfbench/make_reference.py

Runs every workload's operation once, untraced, at seed 0 and stores each
call's exit code and the sha256 of its stdout: the JSON ``check all``
report of every shipped fixture and the ``fitting`` output of every seed-0
presentation.  Refuses to record a fitting output that fails the
determinant oracle.  Rerun only when a change to skv alters its reports on
purpose, and say so in that change.
"""

import hashlib
import json
import sys

import run

REFERENCE_SEED = 0


def main() -> int:
    reference = {"check": {}, "fitting": {"seed": REFERENCE_SEED, "calls": []}}
    for name in ("small-check", "qzeta23-check", "fitting-random"):
        w = run.Workload(name, REFERENCE_SEED, reference)
        rec = run.run_child(w.calls, False, run.RUN_LIMIT_S)
        if rec["result"] is None:
            sys.stderr.write(f"error: {name}: {rec['error']}\n")
            return 1
        for (kind, key), rows, call in zip(w.keys, w.matrices,
                                           rec["result"]["calls"]):
            if "error" in call:
                sys.stderr.write(f"error: {call['argv']}: {call['error']}\n")
                return 1
            if rows is not None:
                problems = run.check_fitting(rows, call["stdout"])
                if problems:
                    sys.stderr.write(f"error: {call['argv']}: {problems}\n")
                    return 1
            entry = {"rc": call["rc"],
                     "sha256": hashlib.sha256(call["stdout"].encode()).hexdigest()}
            if kind == "check":
                reference["check"][key] = entry
            else:
                reference["fitting"]["calls"].append(entry)
    (run.HERE / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
