"""Fixture loading under single mutations of the shipped fixtures.

Bad input must end `fixtures validate` and `check all` with exit code 3
and one line on stderr, or with a report (0, 1 or 2); never with exit 4,
an exception out of `main` or a hang.
"""

import contextlib
import io
import json
import os
import signal
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import skv
from skv.cli import main

from conftest import FIXTURE_NAMES, load_fixture_json

COMMANDS = (["fixtures", "validate"], ["check", "all"])
CAP_S = 20


class Overrun(BaseException):
    """Raised by the time cap; main() catches Exception, not this."""


def _run_capped(argv, cap_s=CAP_S):
    """Exit code, stdout and stderr of main(argv) in-process, stopped with
    Overrun after cap_s seconds."""
    def overrun(signum, frame):
        raise Overrun(f"{argv} ran over {cap_s} s")

    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, overrun)
    signal.setitimer(signal.ITIMER_REAL, cap_s)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


def _assert_ends_cleanly(path):
    for command in COMMANDS:
        code, out, err = _run_capped([*command, "--fixture", str(path)])
        assert code in (0, 1, 2, 3), (command, code, err)
        if code == 3:
            assert not out and err.count("\n") == 1 and err.endswith("\n"), (command, err)


def _paths(value, path=()):
    """Every (path, value) below the root of a JSON value."""
    children = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield path + (key,), child
        yield from _paths(child, path + (key,))


def _shape(path):
    """A path with its list indices replaced, so that each field counts once."""
    return tuple("*" if isinstance(k, int) else k for k in path)


RETYPED = ("x", 1.5, True, [], {}, -1)


@st.composite
def mutations(draw):
    """(fixture name, kind, path, mutated fixture object)."""
    name = draw(st.sampled_from(FIXTURE_NAMES))
    obj = load_fixture_json(name)
    by_shape = {}
    for path, _ in _paths(obj):
        by_shape.setdefault(_shape(path), []).append(path)
    path = draw(st.sampled_from(by_shape[draw(st.sampled_from(sorted(by_shape, key=repr)))]))
    *head, last = path
    parent = obj
    for key in head:
        parent = parent[key]
    value = parent[last]
    kind = draw(st.sampled_from(("drop", "retype", "shorten", "bump", "negate", "null")))
    if kind == "drop":
        del parent[last]
    elif kind == "retype":
        parent[last] = draw(st.sampled_from([v for v in RETYPED if type(v) is not type(value)]))
    elif kind == "shorten" and isinstance(value, (list, str)) and value:
        parent[last] = value[:-1]
    elif kind in ("bump", "negate") and type(value) is int:
        parent[last] = value + 1 if kind == "bump" else -value
    else:
        kind = "null"
        parent[last] = None
    return name, kind, path, obj


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutations())
def test_single_mutations_of_shipped_fixtures_end_cleanly(tmp_path, case):
    name, kind, path, obj = case
    fixture = tmp_path / f"{name}.json"
    fixture.write_text(json.dumps(obj))
    _assert_ends_cleanly(fixture)


@pytest.mark.parametrize("conductor", [0, -1])
def test_conductor_below_one_exits_3_without_hanging(tmp_path, conductor):
    # with no residues mod N * f, mu_tate_order's search for the Tate twist
    # multiplied w forever in check negative-r, and so in check all
    obj = load_fixture_json("q")
    obj["cyclotomic"]["conductor"] = conductor
    fixture = tmp_path / "q.json"
    fixture.write_text(json.dumps(obj))
    src = os.path.dirname(os.path.dirname(os.path.abspath(skv.__file__)))
    for command in COMMANDS:
        proc = subprocess.run(
            [sys.executable, "-m", "skv.cli", *command, "--fixture", str(fixture)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=CAP_S)
        assert proc.returncode == 3 and not proc.stdout, (command, proc.stderr)
        assert "conductor must be a positive integer" in proc.stderr
        assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("key", ["01", " 1", "-0", "1.0", "22"])
def test_class_group_action_key_other_than_an_element_index_exits_3(tmp_path, key):
    # int() read each of these, so "01" or " 1" beside "1" silently
    # replaced the action of element 1 (the later key won), and "-0" that
    # of the identity; only str(g) for g in [0, |G|) names an element
    obj = load_fixture_json("q_zeta23")
    action = obj["classGroups"][0]["action"]
    action[key] = action["1"] if key != "-0" else action["0"]
    fixture = tmp_path / "q_zeta23.json"
    fixture.write_text(json.dumps(obj))
    for command in COMMANDS:
        code, out, err = _run_capped([*command, "--fixture", str(fixture)])
        assert code == 3 and not out, (command, code, err)
        assert repr(key) in err and err.count("\n") == 1, (command, err)


@pytest.mark.parametrize("field, key, replaces", [
    *(("muL", key, None) for key in ("01", " 1", "-0", "x", "22")),
    ("cyclotomic", " 2", "2"), ("cyclotomic", "+3", None),
    ("cyclotomic", "02", None), ("cyclotomic", "٢", None)])
def test_mu_action_and_cyclotomic_map_key_other_than_its_decimal_exits_3(
        tmp_path, field, key, replaces):
    # the muL action was read only at the keys str(g), so "01", "x" or "22"
    # beside them was ignored, and the cyclotomic map read every key with
    # int(), so " 2" for "2", or "+3", "02" or an Arabic-Indic 2 beside the
    # key it reads as, passed; only str(g), or str(a) for a unit a, is a key
    obj = load_fixture_json("q_zeta23")
    table = obj["muL"]["action"] if field == "muL" else obj["cyclotomic"]["map"]
    table[key] = table["1"]
    if replaces is not None:
        del table[replaces]
    fixture = tmp_path / "q_zeta23.json"
    fixture.write_text(json.dumps(obj))
    for command in COMMANDS:
        code, out, err = _run_capped([*command, "--fixture", str(fixture)])
        assert code == 3 and not out, (command, code, err)
        assert repr(key) in err and err.count("\n") == 1, (command, err)
