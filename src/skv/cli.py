"""Command-line interface: assemble theta elements, run verdict suites,
emit generator sets, and validate fixtures.

Exit codes: 0 all verified, 1 any falsified, 2 inconclusive-only failures,
3 usage or fixture error, 4 internal error (an unexpected exception).
Reports use the "skvreport/1" schema and are byte-identical across runs
with the same seed (timings are only included on request since they are
not deterministic).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from .arithdata import ExtensionFixture, PlaceSets
from .cyclotomic import fraction_from_str
from .engine import sku_prime_generators, theta
from .errors import FixtureError, SkvError
from .grouprings import GroupRingElement
from .rednorm import fitting_of_presentation
from .verify import (SUITES, CheckOptions, exceptional_prime_screening,
                     reject_unread_flags)


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _split(arg: str) -> list[str]:
    return [part.strip() for part in arg.split(",") if part.strip()]


def _report(fix_path: str, fix: ExtensionFixture, seed: int, verdicts,
            timings) -> dict:
    return {
        "schema": "skvreport/1",
        "fixture": fix.name,
        "fixtureDigest": _digest(fix_path),
        "seed": seed,
        "verdicts": [v.to_json() for v in verdicts],
        "screening": exceptional_prime_screening(fix),
        "timings": timings,
    }


def _render_text(report: dict) -> str:
    lines = [f"fixture {report['fixture']} ({report['fixtureDigest'][:12]}) "
             f"seed={report['seed']}"]
    for v in report["verdicts"]:
        lines.append(f"  {v['checkId']}: {v['status']}")
        for note in v["notes"]:
            lines.append(f"    note: {note}")
        for w in v["witnesses"]:
            lines.append(f"    witness: {json.dumps(w, sort_keys=True)}")
    for entry in report["screening"]["screened"]:
        tag = "exceptional" if entry["exceptional"] else "ordinary"
        lines.append(f"  prime {entry['p']}: {tag}")
        for flag in entry["flags"]:
            lines.append(f"    {flag}")
    if report["timings"]:
        for k, t in sorted(report["timings"].items()):
            lines.append(f"  timing {k}: {t:.3f}s")
    return "\n".join(lines) + "\n"


_ESCAPE = json.encoder.encode_basestring_ascii
_CONSTANTS = {True: "true", False: "false", None: "null"}


def _json_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x in (float("inf"), float("-inf")):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


def _json_key(key) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _json_float(key)
    if key is True or key is False or key is None:
        return _CONSTANTS[key]
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _json_text(value, newline: str = "\n") -> str:
    """``json.dumps(value, indent=1, sort_keys=True)``, byte for byte: the
    form of every JSON report, with ``newline`` the line break and indent
    of the value's nesting level.  ``json`` writes indented output with
    its pure-Python encoder, which this writer outruns; it raises
    TypeError where that encoder does."""
    if isinstance(value, str):
        return _ESCAPE(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + " "
        return "{" + inner + ("," + inner).join(
            [_ESCAPE(_json_key(k)) + ": " + _json_text(v, inner)
             for k, v in sorted(value.items())]) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + " "
        return "[" + inner + ("," + inner).join(
            [_json_text(v, inner) for v in value]) + newline + "]"
    if value is True or value is False or value is None:
        return _CONSTANTS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _json_float(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(payload: dict, fmt: str, out: str | None, text: str | None = None):
    if fmt == "text" and text is not None:
        rendered = text
    else:
        rendered = _json_text(payload) + "\n"
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(rendered)
        except OSError as exc:
            raise SkvError(f"cannot write {out}: {exc.strerror}") from None
    else:
        sys.stdout.write(rendered)


def _exit_code(verdicts) -> int:
    statuses = {v.status for v in verdicts}
    if "falsified" in statuses:
        return 1
    if "inconclusive" in statuses:
        return 2
    return 0


def cmd_theta(args, fix: ExtensionFixture) -> int:
    sets = PlaceSets(args.S or fix.minimal_s(), args.T or [], args.r)
    th = theta(fix, sets)
    payload = th.to_json()
    text = None
    if args.format == "text":
        lines = [f"theta S={','.join(th.S)} T={','.join(th.T)} r={th.r}"]
        lines.extend(f"  {lab}: {c}" for lab, c in sorted(payload["coefficients"].items()))
        text = "\n".join(lines) + "\n"
    _emit(payload, args.format, args.out, text)
    return 0


def cmd_check(args, fix: ExtensionFixture) -> int:
    given = {flag: getattr(args, flag) for flag in CheckOptions._fields
             if getattr(args, flag) is not None}
    reject_unread_flags(args.suite, given)
    options = CheckOptions(**given)
    verdicts = []
    timings: dict[str, float] = {}
    for name in SUITES if args.suite == "all" else [args.suite]:
        t0 = time.perf_counter()
        verdicts.append(SUITES[name].run(fix, options))
        timings[name] = time.perf_counter() - t0
    report = _report(args.fixture, fix, args.seed, verdicts,
                     timings if args.timings else None)
    _emit(report, args.format, args.out,
          _render_text(report) if args.format == "text" else None)
    return _exit_code(verdicts)


def cmd_sku(args, fix: ExtensionFixture) -> int:
    S = args.S or fix.minimal_s()
    gens = sku_prime_generators(fix, S, args.bound)
    payload = {
        "schema": "skvgens/1",
        "S": sorted(S),
        "truncated": gens.truncated,
        "notes": gens.notes,
        "generators": [
            {"tag": tag, "components": [c.to_json() for c in g.components]}
            for tag, g in gens.generators
        ],
    }
    text = None
    if args.format == "text":
        lines = [f"sku generators over S={','.join(sorted(S))} "
                 f"({len(gens.generators)} elements, truncated)"]
        lines.extend(f"  {tag}" for tag, _ in gens.generators)
        lines.extend(f"  note: {n}" for n in gens.notes)
        text = "\n".join(lines) + "\n"
    _emit(payload, args.format, args.out, text)
    return 0


def _load_presentation(path: str, group) -> list[list[GroupRingElement]]:
    """Rows of group-ring elements from a presentation file: a 'rows' list of
    equally long lists of {element index: rational string} objects."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise FixtureError(f"cannot read presentation file {path}: "
                           f"{exc.strerror}") from None
    except ValueError as exc:
        raise FixtureError(f"presentation file {path} is not JSON: {exc}") from None
    if not isinstance(data, dict) or "rows" not in data:
        raise FixtureError("presentation file needs a 'rows' field")
    rows = data["rows"]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise FixtureError("presentation 'rows' must be a list of lists")
    width = len(rows[0]) if rows else 0
    h = []
    for i, row in enumerate(rows):
        if len(row) != width:
            raise FixtureError(f"presentation row {i} has {len(row)} entries, "
                               f"row 0 has {width}")
        elems = []
        for entry in row:
            if not isinstance(entry, dict):
                raise FixtureError(f"presentation row {i}: entries must be "
                                   "objects mapping element indices to rationals")
            coeffs = {}
            for key, val in entry.items():
                if not (key.isascii() and key.isdigit()) or int(key) >= group.order:
                    raise FixtureError(f"presentation row {i}: element key {key!r} "
                                       f"is not an index in [0, {group.order})")
                if int(key) in coeffs:
                    raise FixtureError(f"presentation row {i}: element {int(key)} "
                                       "given twice")
                try:
                    coeffs[int(key)] = fraction_from_str(str(val))
                except ValueError:
                    raise FixtureError(f"presentation row {i}: coefficient {val!r} "
                                       "is not a rational") from None
            elems.append(GroupRingElement(group, coeffs))
        h.append(elems)
    return h


def cmd_fitting(args, fix: ExtensionFixture) -> int:
    h = _load_presentation(args.matrix, fix.group)
    fitt = fitting_of_presentation(h, fix.table)
    payload = {
        "schema": "skvfitt/1",
        "quadratic": fitt.quadratic,
        "zero": fitt.zero,
        "equivalence": fitt.equivalence_tag,
        "generators": [[c.to_json() for c in g.components]
                       for g in fitt.generators],
    }
    _emit(payload, args.format, args.out)
    return 0


def cmd_fixtures_validate(args, fix: ExtensionFixture) -> int:
    payload = {
        "schema": "skvfix/1",
        "name": fix.name,
        "ok": True,
        "places": [p.label for p in fix.places],
        "classGroups": len(fix.class_groups),
        "thetaSources": len(fix.subextension_thetas),
    }
    _emit(payload, args.format, args.out,
          f"fixture {fix.name}: valid\n")
    return 0


def _common(p):
    p.add_argument("--fixture", required=True,
                   help="path to a skvfix/1 JSON fixture")
    p.add_argument("--out", default=None, help="write output to a file")
    p.add_argument("--format", choices=("json", "text"), default="json")


def _bound(p):
    p.add_argument("--bound", type=int, default=2,
                   help="truncation budget for searched sets")


def _labels(p, flag):
    p.add_argument(flag, type=_split, default=None,
                   help="comma-separated place labels")


def _add_theta(sub):
    p = sub.add_parser("theta", help="assemble and print theta_S^T(r)")
    _common(p)
    p.add_argument("--r", type=int, default=0)
    _labels(p, "--S")
    _labels(p, "--T")


def _add_check(sub):
    p = sub.add_parser("check", help="run a verdict suite")
    _common(p)
    _bound(p)
    p.add_argument("--seed", type=int, default=0,
                   help="copied into the report's seed field; "
                        "no suite is random")
    p.add_argument("--timings", action="store_true",
                   help="include (non-deterministic) timings in reports")
    p.add_argument("suite", choices=[*SUITES, "all"])
    p.add_argument("--r", type=int, default=None)
    _labels(p, "--S")
    _labels(p, "--T")
    p.add_argument("--p", type=int, default=None,
                   help="p-local membership variant")
    # None tells a given --bound from the default of 2, which a suite
    # that never reads --bound must not be given
    p.set_defaults(bound=None)


def _add_sku(sub):
    p = sub.add_parser("sku", help="emit the truncated generator set")
    _common(p)
    _bound(p)
    _labels(p, "--S")


def _add_fitting(sub):
    p = sub.add_parser("fitting",
                       help="Fitting generators of a presentation matrix")
    _common(p)
    p.add_argument("--matrix", required=True,
                   help="JSON file with a 'rows' presentation matrix")


def _add_fixtures(sub):
    p = sub.add_parser("fixtures", help="fixture tools")
    fx_sub = p.add_subparsers(dest="fixtures_command", required=True)
    _common(fx_sub.add_parser("validate", help="validate a fixture file"))


#: Each command, in help order, with the function that adds its subparser
#: and the handler that runs it on the parsed arguments and the fixture.
COMMANDS = {"theta": (_add_theta, cmd_theta), "check": (_add_check, cmd_check),
            "sku": (_add_sku, cmd_sku), "fitting": (_add_fitting, cmd_fitting),
            "fixtures": (_add_fixtures, cmd_fixtures_validate)}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser with every command's subparser, or with only
    the subparser of ``command``.  Both print the same usage line, so a
    parse of arguments that start with ``command`` gives the same output
    and exit code either way."""
    parser = argparse.ArgumentParser(
        prog="skv",
        description="Exact Stickelberger elements and integrality verdicts.")
    # the choices as the full parser lists them in its usage line
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (add, _) in COMMANDS.items():
        if command in (None, name):
            add(sub)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a parse that starts with a command only ever reads its subparser
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 3 if exc.code not in (0, None) else 0
    if (getattr(args, "bound", None) or 0) < 0:
        sys.stderr.write(f"error: --bound must be non-negative, got {args.bound}\n")
        return 3
    try:
        fix = ExtensionFixture.load(args.fixture)
    except FileNotFoundError:
        sys.stderr.write(f"error: fixture file not found: {args.fixture}\n")
        return 3
    except OSError as exc:
        sys.stderr.write(f"error: cannot read fixture {args.fixture}: {exc.strerror}\n")
        return 3
    except (SkvError, json.JSONDecodeError, KeyError, TypeError,
            ValueError) as exc:
        sys.stderr.write(f"error: malformed fixture {args.fixture}: {exc}\n")
        return 3
    except Exception as exc:
        sys.stderr.write(f"error: internal: {exc!r}\n")
        return 4
    try:
        return COMMANDS[args.command][1](args, fix)
    except FixtureError as exc:
        sys.stderr.write(f"error: fixture: {exc}\n")
        return 3
    except SkvError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except Exception as exc:
        sys.stderr.write(f"error: internal: {exc!r}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
