"""Command-line interface: assemble theta elements, run verdict suites,
emit generator sets, and validate fixtures.

Exit codes: 0 all verified, 1 any falsified, 2 inconclusive-only failures,
3 usage or fixture error, 4 internal error (an unexpected exception).
Reports use the "skvreport/1" schema and are byte-identical across runs
with the same seed (timings are only included on request since they are
not deterministic).

``COMMANDS`` declares each command's arguments once, and two readers use
it.  ``_read_args`` reads a plain command line straight from the table:
the command, then each of its options at most once, as ``--flag value``
or ``--flag=value``, and its positional.  Anything else (a help flag, an
unknown or abbreviated option, ``--``, a value that starts with a dash
other than a negative integer, a value that argparse would reject) goes
to the argparse parser that ``build_parser`` builds from the same table,
so help screens and usage errors are argparse's own.  argparse is
imported only then: a plain command line does not pay for it.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from types import SimpleNamespace
from typing import Callable, NamedTuple

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


class Option(NamedTuple):
    """One argument of a command, as ``build_parser`` hands it to argparse
    and as ``_read_args`` reads it.  ``convert`` is ``str``, ``int``,
    ``_split`` or ``bool``, which marks a store-true flag; a ``flag``
    without a leading dash is a positional."""
    flag: str
    dest: str
    convert: Callable = str
    default: object = None
    choices: tuple | None = None
    required: bool = False
    help: str | None = None


class Command(NamedTuple):
    """A command's help line, its arguments in help order, the handler that
    runs it on the parsed arguments and the fixture, and the name and help
    line of its one subcommand, if it has one."""
    help: str
    options: tuple[Option, ...]
    run: Callable
    subcommand: tuple[str, str] | None = None


_COMMON = (
    Option("--fixture", "fixture", required=True,
           help="path to a skvfix/1 JSON fixture"),
    Option("--out", "out", help="write output to a file"),
    Option("--format", "format", default="json", choices=("json", "text")),
)
_BOUND = Option("--bound", "bound", int, 2,
                help="truncation budget for searched sets")
_S = Option("--S", "S", _split, help="comma-separated place labels")
_T = _S._replace(flag="--T", dest="T")

#: Each command, in help order.
COMMANDS = {
    "theta": Command("assemble and print theta_S^T(r)", (
        *_COMMON, Option("--r", "r", int, 0), _S, _T), cmd_theta),
    "check": Command("run a verdict suite", (
        *_COMMON,
        # None tells a given --bound from the default of 2, which a suite
        # that never reads --bound must not be given
        _BOUND._replace(default=None),
        Option("--seed", "seed", int, 0,
               help="copied into the report's seed field; no suite is random"),
        Option("--timings", "timings", bool, False,
               help="include (non-deterministic) timings in reports"),
        Option("suite", "suite", choices=(*SUITES, "all")),
        Option("--r", "r", int), _S, _T,
        Option("--p", "p", int, help="p-local membership variant")), cmd_check),
    "sku": Command("emit the truncated generator set",
                   (*_COMMON, _BOUND, _S), cmd_sku),
    "fitting": Command("Fitting generators of a presentation matrix", (
        *_COMMON, Option("--matrix", "matrix", required=True,
                         help="JSON file with a 'rows' presentation matrix")),
        cmd_fitting),
    "fixtures": Command("fixture tools", _COMMON, cmd_fixtures_validate,
                        ("validate", "validate a fixture file")),
}


def build_parser(command: str | None = None):
    """The argparse parser with every command's subparser, or with only
    the subparser of ``command``.  Both print the same usage line, so a
    parse of arguments that start with ``command`` gives the same output
    and exit code either way."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="skv",
        description="Exact Stickelberger elements and integrality verdicts.")
    # the choices as the full parser lists them in its usage line
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, spec in COMMANDS.items():
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=spec.help)
        if spec.subcommand:
            p = p.add_subparsers(dest=f"{name}_command", required=True).add_parser(
                spec.subcommand[0], help=spec.subcommand[1])
        for o in spec.options:
            if o.convert is bool:
                p.add_argument(o.flag, action="store_true", help=o.help)
            elif o.flag.startswith("-"):
                p.add_argument(o.flag, type=o.convert, default=o.default,
                               choices=o.choices, required=o.required, help=o.help)
            else:
                p.add_argument(o.flag, choices=o.choices, help=o.help)
    return parser


#: What ``_read_value`` returns for a value it leaves to argparse.
_DECLINE = object()


def _read_value(option: Option, text: str):
    """``option``'s value from ``text`` as argparse converts it, or
    ``_DECLINE`` where argparse might read ``text`` otherwise."""
    if option.convert is int:
        digits = text[1:] if text.startswith("-") else text
        if not (digits.isascii() and digits.isdigit()):
            return _DECLINE
    elif text.startswith("-"):
        return _DECLINE
    value = option.convert(text)
    if option.choices is not None and value not in option.choices:
        return _DECLINE
    return value


def _read_args(argv: list[str]) -> SimpleNamespace | None:
    """The arguments that ``build_parser().parse_args(argv)`` returns, read
    straight from ``COMMANDS``, for a plain command line: the command (and
    subcommand) first, then each option once, as ``--flag value`` or
    ``--flag=value``, and its positional.  None for anything else (a help
    flag, an unknown or abbreviated option, ``--``, a value that starts
    with a dash other than a negative integer, a value argparse would
    reject), which ``main`` leaves to argparse."""
    if not argv or argv[0] not in COMMANDS:
        return None
    spec = COMMANDS[argv[0]]
    read = {"command": argv[0]}
    rest = argv[1:]
    if spec.subcommand:
        if not rest or rest[0] != spec.subcommand[0]:
            return None
        read[f"{argv[0]}_command"] = rest.pop(0)
    flags = {o.flag: o for o in spec.options if o.flag.startswith("-")}
    positionals = [o for o in spec.options if not o.flag.startswith("-")]
    values = iter(rest)
    for arg in values:
        if not arg.startswith("-"):
            if not positionals:
                return None
            option, text = positionals.pop(0), arg
        else:
            flag, eq, text = arg.partition("=")
            option = flags.get(flag)
            if option is None or option.dest in read:
                return None
            if option.convert is bool:
                if eq:
                    return None
                read[option.dest] = True
                continue
            if not eq:
                text = next(values, None)
                if text is None:
                    return None
        value = _read_value(option, text)
        if value is _DECLINE:
            return None
        read[option.dest] = value
    for o in spec.options:
        if o.dest not in read:
            if o.required or not o.flag.startswith("-"):
                return None
            read[o.dest] = o.default
    return SimpleNamespace(**read)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_args(argv)
    if args is None:
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
        return COMMANDS[args.command].run(args, fix)
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
