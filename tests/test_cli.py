"""CLI behavior: subcommands, exit codes, determinism, error reporting."""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import skv
from skv import cli
from skv.cli import COMMANDS, _json_text, _read_args, build_parser, main
from skv.verify import SUITES

from conftest import FIXTURE_NAMES, fixture_path, load_fixture_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_theta_text_output(capsys):
    code, out, _ = run_cli(capsys, "theta",
                           "--fixture", fixture_path("q_zeta3"),
                           "--T", "7", "--format", "text")
    assert code == 0
    assert "theta S=3,inf T=7 r=0" in out
    assert "e: -1" in out and "s: 1" in out


def test_theta_json_output(capsys):
    code, out, _ = run_cli(capsys, "theta",
                           "--fixture", fixture_path("q_zeta3"))
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "skvtheta/1"
    assert payload["coefficients"] == {"e": "1/6", "s": "-1/6"}
    assert "contragredient" in payload["sharpConvention"]


def test_check_all_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "check", "all",
                           "--fixture", fixture_path("q_zeta23"))
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "skvreport/1"
    assert {v["status"] for v in report["verdicts"]} == {"verified"}
    assert report["timings"] is None
    # inconclusive-only run exits 2
    code2, out2, _ = run_cli(capsys, "check", "all",
                             "--fixture", fixture_path("s3c2"))
    assert code2 == 2
    statuses = {v["status"] for v in json.loads(out2)["verdicts"]}
    assert "inconclusive" in statuses and "falsified" not in statuses


def test_check_single_suites(capsys):
    for suite in ("stickelberger", "sku", "brumer", "brumer-stark",
                  "negative-r"):
        code, out, _ = run_cli(capsys, "check", suite,
                               "--fixture", fixture_path("q_i"))
        assert code == 0, (suite, out)
        report = json.loads(out)
        assert len(report["verdicts"]) == 1


def test_check_explicit_sets_and_p(capsys):
    code, out, _ = run_cli(capsys, "check", "stickelberger",
                           "--fixture", fixture_path("q_i"),
                           "--S", "inf,2", "--T", "5", "--p", "2")
    assert code == 0
    v = json.loads(out)["verdicts"][0]
    assert v["status"] == "verified"
    assert any("p=2" in p for p in v["provenance"])


def test_stickelberger_below_zero_tests_torsion_against_w_1_minus_r(capsys):
    # w_2 = 24 over Q, Q(i) and Q(sqrt -5), so a T at 3 does not meet the
    # torsion criterion at r = -1: inconclusive, where 5 stays verified
    for name in ("q", "q_i", "q_sqrt_m5"):
        code, out, err = run_cli(capsys, "check", "stickelberger", "--fixture",
                                 fixture_path(name), "--T", "3", "--r", "-1")
        v = json.loads(out)["verdicts"][0]
        assert code == 2 and not err and v["status"] == "inconclusive", (name, out)
        assert v["notes"] == ["(p,r)-admissibility failed", "torsion criterion failed: "
                              "no place in T with residue characteristic prime to w=24"]
    for name in ("q", "q_i"):
        code, out, _ = run_cli(capsys, "check", "stickelberger", "--fixture",
                               fixture_path(name), "--T", "5", "--r", "-1")
        assert code == 0 and json.loads(out)["verdicts"][0]["status"] == "verified"
    # without cyclotomic data there is no w_2 to test against
    code, out, err = run_cli(capsys, "check", "stickelberger", "--fixture",
                             fixture_path("s3c2"), "--T", "q5", "--r", "-1")
    v = json.loads(out)["verdicts"][0]
    assert code == 2 and not err and v["status"] == "inconclusive"
    assert v["notes"][1] == "w_(1-r) for r < 0 needs the fixture's cyclotomic data"


def test_check_text_rendering(capsys):
    code, out, _ = run_cli(capsys, "check", "all",
                           "--fixture", fixture_path("q"),
                           "--format", "text")
    assert code == 0
    assert "theorem-stickelberger-int: verified" in out
    assert "prime 2: exceptional" in out


def test_timings_flag(capsys):
    code, out, _ = run_cli(capsys, "check", "brumer",
                           "--fixture", fixture_path("q_i"), "--timings")
    assert code == 0
    assert list(json.loads(out)["timings"]) == ["brumer"]
    code, out, _ = run_cli(capsys, "check", "all",
                           "--fixture", fixture_path("q"), "--timings")
    assert code == 0
    assert sorted(json.loads(out)["timings"]) == sorted(SUITES)


def _dumps(value) -> str:
    return json.dumps(value, indent=1, sort_keys=True)


def test_json_writer_matches_json_dumps(capsys):
    # a --timings report, with its floats, and hand-made values
    samples = [json.loads(run_cli(capsys, "check", "all", "--fixture", fixture_path("q_i"),
                                  "--timings")[1])]
    samples += [
        {}, [], (), "", 0, -7, 10 ** 30, -(10 ** 30), True, False, None,
        0.1, -2.5e-07, 1e300, float("nan"), float("inf"), float("-inf"),
        {"b": [], "a": {}, "c": [[{}], [[]]], "d": ({"x": (1, None)},)},
        {"quote \" back \\ slash": "tab\t newline\n nul\x00 bell\x07",
         "ä": "é ✓ 🜁 \u2028", "": ["", " "]},
        {"z": {"y": {"x": [True, False, None, -1, 0.0, -0.0]}}},
        {2: "int keys", -3: ""}, {1.5: "float keys", -0.5: ""}, {True: "bool keys", False: ""},
        {None: "null key"},
        [[[[[]]]], {"k": [{"k": [{}]}]}],
    ]
    for value in samples:
        assert _json_text(value) == _dumps(value), value


@settings(max_examples=200, deadline=None)
@given(st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30))
def test_json_writer_matches_json_dumps_on_any_json_value(value):
    assert _json_text(value) == _dumps(value)


@pytest.mark.parametrize("value", [
    {1, 2}, b"bytes", object(), [1, {"a": 1j}], {"a": {"b": Fraction(1, 2)}},
    {(1, 2): "tuple key"}, {1: "mixed", "a": "keys"}])
def test_json_writer_raises_type_error_as_json_dumps_does(value):
    with pytest.raises(TypeError):
        _dumps(value)
    with pytest.raises(TypeError):
        _json_text(value)


def test_single_suites_match_check_all(capsys):
    # each suite gives the same verdict alone as inside check all, in
    # registry order; --r reaches negative-r unchanged either way
    runs = [(name, []) for name in FIXTURE_NAMES]
    runs += [("q_i", ["--r", "-2"]), ("q_i", ["--r", "0"])]
    for name, r in runs:
        fixture = ["--fixture", fixture_path(name)]
        _, out, _ = run_cli(capsys, "check", "all", *fixture, *r)
        together = json.loads(out)["verdicts"]
        alone = []
        for suite in SUITES:
            flags = r if suite == "negative-r" else []
            _, out, _ = run_cli(capsys, "check", suite, *fixture, *flags)
            alone.extend(json.loads(out)["verdicts"])
        assert alone == together, (name, r)


def test_report_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for target in (out1, out2):
        code, _, _ = run_cli(capsys, "check", "all",
                             "--fixture", fixture_path("q_zeta3"),
                             "--out", str(target))
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sku_subcommand(capsys):
    code, out, _ = run_cli(capsys, "sku",
                           "--fixture", fixture_path("q_zeta3"))
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "skvgens/1"
    assert payload["truncated"] and payload["generators"]


def test_fitting_subcommand(tmp_path, capsys):
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps(
        {"rows": [[{"0": "2", "1": "1"}]]}))
    code, out, _ = run_cli(capsys, "fitting",
                           "--fixture", fixture_path("q_zeta3"),
                           "--matrix", str(matrix))
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "skvfitt/1"
    assert payload["quadratic"] and not payload["zero"]
    assert len(payload["generators"]) == 1


def test_fixtures_validate(capsys):
    code, out, _ = run_cli(capsys, "fixtures", "validate",
                           "--fixture", fixture_path("s3c2"),
                           "--format", "text")
    assert code == 0
    assert "fixture s3c2: valid" in out


def test_missing_fixture_exits_3(capsys):
    code, _, err = run_cli(capsys, "check", "all",
                           "--fixture", "/nonexistent/f.json")
    assert code == 3 and "not found" in err


def test_malformed_fixture_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, _, err = run_cli(capsys, "check", "all", "--fixture", str(bad))
    assert code == 3 and "malformed" in err
    bad2 = tmp_path / "bad2.json"
    with open(fixture_path("q")) as fh:
        obj = json.load(fh)
    obj["schema"] = "other/1"
    bad2.write_text(json.dumps(obj))
    code2, _, err2 = run_cli(capsys, "check", "all", "--fixture", str(bad2))
    assert code2 == 3 and "schema" in err2

    # inputs that used to escape as tracebacks with exit 1
    def non_group(o):
        o["group"] = {"table": [[0, 1], [1, 1]]}

    def float_entry(o):
        o["group"]["table"][1][1] = 0.4

    def string_entry(o):
        o["group"]["table"][1][1] = "0"

    def short_labels(o):
        o["group"]["labels"] = o["group"]["labels"][:-1]

    def renamed_value_key(o):
        vals = o["subextensionThetas"][0]["values"]
        vals["x"] = vals.pop("0")

    # a ramified prime of the conductor left out (check all exited 1 with
    # stickelberger and sku falsified) and a Frobenius off the cyclotomic
    # map (check all exited 3 from the theta assembly self-check)
    def no_place_2(o):
        o["places"] = [p for p in o["places"] if p["label"] != "2"]

    def frobenius_29_is_2(o):
        place = next(p for p in o["places"] if p["label"] == "29")
        place["frobenius"] = place["decompositionGens"][0] = 2

    # [[1, 0], [1, 3]] is no endomorphism of Z/2 x Z/4, which the all-pairs
    # homomorphism check accepted
    def loose_action(o):
        o["classGroups"] = [{"setT": ["5"], "factors": [2, 4],
                             "action": {"0": [[1, 0], [0, 1]], "1": [[1, 0], [1, 3]]}}]

    def torsion_free_override(o):
        o["torsionFreeOverride"] = True

    # a field of the wrong type was read as something else (check all
    # exited 0 or 2), and muL data off the cyclotomic map gave falsified
    def set_field(get, key, value):
        def mutate(o):
            get(o)[key] = value
        mutate.__name__ = f"set_{key}_{type(value).__name__}"
        return mutate

    def place(label):
        return lambda o: next(p for p in o["places"] if p["label"] == label)

    def class_group(o):
        return o["classGroups"][0]

    def cyclotomic_map(o):
        return o["cyclotomic"]["map"]

    def mu(o):
        return o["muL"]

    def mu_action(o):
        return o["muL"]["action"]

    def mu_order_2_trivial(o):
        o["muL"] = {"order": 2, "action": {"0": 1, "1": 1}}

    # check all looped forever on a key that is not a unit, when it came first
    def non_unit_key(o):
        o["cyclotomic"]["map"] = {"0": 0, "1": 0, "2": 1}

    type_and_mu_cases = [
        ("q_sqrt_m5", set_field(class_group, "factors", ["2"]), "factors must be list[int]"),
        ("q_sqrt_m5", set_field(class_group, "factors", [2.7]), "factors must be list[int]"),
        ("q_sqrt_m5", set_field(class_group, "setT", [3]), "setT must be list[str]"),
        ("q_i", set_field(cyclotomic_map, "3", "1"), "map must be dict[str, int]"),
        ("q_i", set_field(cyclotomic_map, "3", 1.5), "map must be dict[str, int]"),
        ("q_i", set_field(place("inf"), "infinite", 1), "place infinite must be bool"),
        ("s3c2", set_field(place("q5"), "residueChar", 5.5), "residueChar must be int"),
        ("s3c2", set_field(place("q5"), "frobenius", 3.0), "frobenius must be int"),
        ("s3c2", set_field(place("inf"), "complexAtL", "no"), "complexAtL must be bool"),
        ("s3c2", set_field(place("q5"), "label", 7), "place label must be str"),
        ("s3c2", set_field(lambda o: o, "name", 5), "fixture name must be str"),
        ("s3c2", set_field(mu_action, "5", "5"), "muL action must be dict[str, int]"),
        ("s3c2", set_field(mu_action, "5", 5.5), "muL action must be dict[str, int]"),
        ("q", set_field(mu, "order", True), "muL order must be int"),
        ("q", set_field(mu, "order", 1.5), "muL order must be int"),
        ("q", set_field(mu, "order", 3), "muL order 3 does not match the cyclotomic map"),
        ("q_i", mu_order_2_trivial, "muL order 2 does not match the cyclotomic map"),
        ("q_i", set_field(mu_action, "1", 1), "muL action of element 1 does not match"),
        ("q_zeta3", non_unit_key, "cyclotomic map keys must be the units mod 3")]
    cases = type_and_mu_cases + [("q_i", non_group, "inverse"), ("q_i", float_entry, "integers"),
             ("q_i", string_entry, "integers"), ("q_i", short_labels, "labels"),
             ("s3c2", renamed_value_key, "values key"),
             ("q_i", no_place_2, "the prime 2 ramifies but is not a place"),
             ("q_zeta23", frobenius_29_is_2, "place 29: Frobenius does not match"),
             ("q_i", loose_action, "element 1 is not an endomorphism of the module"),
             ("q_zeta3", torsion_free_override, "unknown fields ['torsionFreeOverride']")]
    for name, mutate, what in cases:
        with open(fixture_path(name)) as fh:
            obj = json.load(fh)
        mutate(obj)
        path = tmp_path / f"{name}_{mutate.__name__}.json"
        path.write_text(json.dumps(obj))
        for argv in (["check", "all"], ["fixtures", "validate"]):
            code, _, err = run_cli(capsys, *argv, "--fixture", str(path))
            assert code == 3, (mutate.__name__, argv)
            assert what in err and err.count("\n") == 1, err


def test_bad_residue_norm_over_q_exits_3(tmp_path, capsys):
    obj = load_fixture_json("q_zeta3")
    next(p for p in obj["places"] if p["label"] == "7")["residueNorm"] = 49
    path = tmp_path / "q_zeta3_norm49.json"
    path.write_text(json.dumps(obj))
    for argv in (["check", "all"], ["fixtures", "validate"]):
        code, out, err = run_cli(capsys, *argv, "--fixture", str(path))
        assert code == 3 and not out, argv
        assert "residue norm 49" in err and err.count("\n") == 1, err


def test_zero_residue_norm_exits_3_without_hanging(tmp_path):
    # 0 is divisible by q, so the power-of-q test once looped forever
    obj = load_fixture_json("q")
    next(p for p in obj["places"] if p["label"] == "3")["residueNorm"] = 0
    path = tmp_path / "q_norm0.json"
    path.write_text(json.dumps(obj))
    src = os.path.dirname(os.path.dirname(os.path.abspath(skv.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "skv.cli", "fixtures", "validate", "--fixture", str(path)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=30)
    assert proc.returncode == 3 and not proc.stdout
    assert "residue norm not a power of 3" in proc.stderr, proc.stderr
    assert proc.stderr.count("\n") == 1


def test_null_cyclotomic_map_or_class_group_action_exits_3(tmp_path, capsys):
    def null_map(o):
        o["cyclotomic"]["map"] = None

    def null_action(o):
        o["classGroups"][0]["action"] = None

    for name, mutate, what in [("q_zeta23", null_map, "cyclotomic map"),
                               ("q_sqrt_m5", null_action, "classGroup action")]:
        obj = load_fixture_json(name)
        mutate(obj)
        path = tmp_path / f"{name}_{mutate.__name__}.json"
        path.write_text(json.dumps(obj))
        for argv in (["check", "all"], ["fixtures", "validate"]):
            code, out, err = run_cli(capsys, *argv, "--fixture", str(path))
            assert code == 3 and not out, (mutate.__name__, argv, err)
            assert what in err and err.count("\n") == 1, err


def test_labels_conjugation_and_class_number_flag_are_checked_on_load(tmp_path, capsys):
    # duplicate labels once merged two theta coefficients into one, and the
    # other cases passed validation and exited 4 in a later command
    def duplicate_labels(o):
        o["group"]["labels"] = ["a", "a"]

    def integer_label(o):
        o["group"]["labels"][1] = 1

    def conjugation_out_of_range(o):
        o["complexConjugation"] = 99

    def conjugation_bool(o):
        o["complexConjugation"] = True

    def conjugation_identity(o):
        o["complexConjugation"] = 0

    def string_flag(o):
        o["clZetaPFlag"] = "x"

    def string_in_flag_list(o):
        o["clZetaPFlag"] = [2, "3"]

    cases = [(duplicate_labels, "labels must be distinct strings"),
             (integer_label, "labels must be distinct strings"),
             (conjugation_out_of_range, "element index in 0..1"),
             (conjugation_bool, "element index in 0..1"),
             (conjugation_identity, "central involution"),
             (string_flag, "clZetaPFlag must be an integer"),
             (string_in_flag_list, "clZetaPFlag must be an integer")]
    for mutate, what in cases:
        obj = load_fixture_json("q_zeta3")
        mutate(obj)
        path = tmp_path / f"{mutate.__name__}.json"
        path.write_text(json.dumps(obj))
        for argv in (["check", "all"], ["fixtures", "validate"], ["theta"]):
            code, out, err = run_cli(capsys, *argv, "--fixture", str(path))
            assert code == 3 and not out, (mutate.__name__, argv, err)
            assert what in err and err.count("\n") == 1, err


def test_usage_error_exits_3(capsys):
    assert main(["check", "nonsense",
                 "--fixture", fixture_path("q")]) == 3
    capsys.readouterr()
    # a negative budget would quietly make the searched suites inconclusive
    code, out, err = run_cli(capsys, "check", "all", "--bound", "-1",
                             "--fixture", fixture_path("q"))
    assert code == 3 and not out
    assert "--bound" in err and err.count("\n") == 1
    code, out, err = run_cli(capsys, "check", "all",
                             "--fixture", fixture_path("q"),
                             "--out", "/nonexistent/dir/report.json")
    assert code == 3 and not out
    assert "cannot write" in err and err.count("\n") == 1
    # flags a command does not read are not accepted
    fitting = ["--matrix", fixture_path("q")]
    for command, flag in ((["theta"], ["--bound", "2"]),
                          (["theta"], ["--seed", "1"]),
                          (["theta"], ["--timings"]),
                          (["fitting"] + fitting, ["--bound", "2"]),
                          (["fitting"] + fitting, ["--seed", "1"]),
                          (["fitting"] + fitting, ["--timings"]),
                          (["fixtures", "validate"], ["--bound", "2"]),
                          (["fixtures", "validate"], ["--seed", "1"]),
                          (["fixtures", "validate"], ["--timings"]),
                          (["sku"], ["--seed", "1"]),
                          (["sku"], ["--timings"])):
        code, out, _ = run_cli(capsys, *command, "--fixture",
                               fixture_path("q"), *flag)
        assert code == 3 and not out, (command, flag)
    # nor flags a suite does not read
    for command, flag in ((["check", "stickelberger"], ["--r", "-1"]),
                          (["check", "stickelberger"], ["--p", "5"]),
                          (["check", "stickelberger"], ["--S", "inf"]),
                          (["check", "stickelberger", "--T", "5"],
                           ["--bound", "1"]),
                          (["check", "sku"], ["--r", "-1"]),
                          (["check", "brumer"], ["--T", "5"]),
                          (["check", "brumer-stark"], ["--bound", "2"]),
                          (["check", "negative-r"], ["--p", "5"]),
                          (["check", "all"], ["--S", "inf"]),
                          (["check", "all"], ["--T", "5"]),
                          (["check", "all"], ["--p", "5"])):
        code, out, err = run_cli(capsys, *command, "--fixture",
                                 fixture_path("q_i"), *flag)
        assert code == 3 and not out, (command, flag)
        assert flag[0] in err and err.count("\n") == 1, err


def test_falsified_exits_1(tmp_path, capsys):
    with open(fixture_path("q_i")) as fh:
        obj = json.load(fh)
    obj["classGroups"] = [{"setT": ["5"], "p": 5, "factors": [5],
                           "action": {"0": [[1]], "1": [[4]]}}]
    path = tmp_path / "qi_bad.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run_cli(capsys, "check", "brumer", "--fixture", str(path))
    assert code == 1
    v = json.loads(out)["verdicts"][0]
    assert v["status"] == "falsified" and v["witnesses"]


def test_malformed_presentation_exits_3(tmp_path, capsys):
    fixture = fixture_path("q_zeta3")
    cases = {
        "non_integer_key": json.dumps({"rows": [[{"x": "1"}]]}),
        "key_past_order": json.dumps({"rows": [[{"40": "1"}]]}),
        # used to wrap around to the last element and exit 0
        "negative_key": json.dumps({"rows": [[{"-1": "1"}]]}),
        "truncated": '{"rows": [[{"0": "1"',
        "ragged": json.dumps({"rows": [[{"0": "1"}, {}], [{"1": "1"}]]}),
        "row_not_list": json.dumps({"rows": [{"0": "1"}]}),
        "entry_not_object": json.dumps({"rows": [["1"]]}),
        "bad_coefficient": json.dumps({"rows": [[{"0": "1.5"}]]}),
        "no_rows": json.dumps([1]),
    }
    for name, text in cases.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "fitting", "--fixture", fixture,
                                 "--matrix", str(path))
        assert code == 3 and not out, (name, err)
        assert err.startswith("error: ") and err.count("\n") == 1, (name, err)
    code, out, err = run_cli(capsys, "fitting", "--fixture", fixture,
                             "--matrix", str(tmp_path / "missing.json"))
    assert code == 3 and not out
    assert "missing.json" in err and err.count("\n") == 1


def test_presentation_element_given_twice_exits_3(tmp_path, capsys):
    # "01" names element 1 too; it used to overwrite the coefficient at "1"
    fixture = fixture_path("q_zeta3")
    path = tmp_path / "m.json"
    for entry in ({"1": "1", "01": "1"}, {"01": "2", "1": "1"}):
        path.write_text(json.dumps({"rows": [[entry]]}))
        code, out, err = run_cli(capsys, "fitting", "--fixture", fixture,
                                 "--matrix", str(path))
        assert code == 3 and not out, err
        assert "element 1 given twice" in err and err.count("\n") == 1, err


def test_presentation_coefficients_parse_strictly(tmp_path, capsys):
    fixture = fixture_path("q_zeta3")
    # int() reads each of these; only ASCII num or num/den is a rational
    for bad in ("1_0", " 1 ", "1 ", "\u0663/\u0664", "\u0663", "+", "1/", "/2",
                "1/-2", "1/+2", "1/0", "1.5", "0x1", ""):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"rows": [[{"0": bad}]]}))
        code, out, err = run_cli(capsys, "fitting", "--fixture", fixture,
                                 "--matrix", str(path))
        assert code == 3 and not out, (bad, err)
        assert err.startswith("error: ") and err.count("\n") == 1, (bad, err)
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"rows": [[{"0": "+2", "1": "-6/3"}]]}))
    code, _, err = run_cli(capsys, "fitting", "--fixture", fixture,
                           "--matrix", str(path))
    assert code == 0, err


def test_fixture_cyclo_parses_strictly(tmp_path, capsys):
    def with_coeffs(coeffs):
        obj = load_fixture_json("s3c2")
        obj["subextensionThetas"][0]["values"]["0"]["coeffs"] = coeffs
        return obj

    cases = {"spaced_index": with_coeffs({"0": "1", " 0": "2"}),
             "signed_index": with_coeffs({"+0": "2"}),
             "arabic_index": with_coeffs({"\u0660": "2"}),
             "repeated_index": with_coeffs({"0": "2", "00": "2"}),
             "underscore_value": with_coeffs({"0": "1_0"}),
             "spaced_value": with_coeffs({"0": " 2"}),
             "arabic_value": with_coeffs({"0": "\u0662"})}
    for name, obj in cases.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        for argv in (["check", "all"], ["fixtures", "validate"]):
            code, out, err = run_cli(capsys, *argv, "--fixture", str(path))
            assert code == 3 and not out, (name, argv, err)
            assert "not a cyclotomic number" in err and err.count("\n") == 1, err


_A = {"0": "2", "5": "-1"}
_B = {"3": "1", "7": "1", "11": "-2"}
_Z = {"1": "1", "12": "2"}
#: (fixture, presentation rows, sha256 of the `fitting` stdout).  The
#: digests pin every report byte, the serialized Cyclo orders included,
#: which depend on the path the exact arithmetic takes.
PINNED_FITTING = [
    # a zero 1x1 entry
    ("s3c2", [[{}]],
     "0ca550950a2fe0a8360d99357d2c06bab94864516dcc5824243db62282439290"),
    ("s3c2", [[_A], [{}]],
     "13d1940907f6043635760d30ca607699aaef3838499591b1f0f97dad80c4ca7f"),
    # the selection of rows 0 and 1 is rank-deficient
    ("s3c2", [[_A, _B], [_A, _B], [{"1": "1"}, {"0": "-1", "2": "2"}]],
     "631fcebe947cf7af6663e54644c1a7d2cda492cc3b52e10b39d7c448818ed0a7"),
    ("s3c2", [[_A, {"4": "2"}, {}], [{"6": "-1"}, _B, {"0": "1"}],
              [{"9": "1", "10": "1"}, {}, {"2": "-2", "8": "1"}]],
     "cac79fab05f4b8de2841e08c40c00c6b1d2b4d67006552e6779dfcdc38e8bc73"),
    ("q_zeta23", [[{"0": "3", "7": "-1"}]],
     "18b4626e1b508dd5a6cbb0be7332d6065dd3297ca28ba3e01f009cd7e318365f"),
    ("q_zeta23", [[_Z, {"5": "-1"}], [_Z, {"5": "-1"}],
                  [{"0": "2"}, {"21": "1", "3": "-1"}]],
     "02b4f20d9914dc0213fa9b78cc36b19f8f6263cf17df3c93543ded826f36f863"),
    ("q_zeta23", [[{"2": "1"}, {}, {"9": "-2"}], [{"0": "1", "11": "1"}, {"4": "1"}, {}],
                  [{}, {"13": "2", "17": "-1"}, {"6": "1"}]],
     "a500be7de0aa903666e804784c9d036c2554feae86f495f14712dd7943fb4bcf"),
    # a zero column
    ("q_zeta23", [[{"0": "1", "11": "-1"}, {}], [{"3": "2"}, {}]],
     "219d5abba39e7a7f0cdd929f05d62ebd4b9494387a5d13400becd928b4bdce8c"),
]


def test_fitting_report_bytes_are_pinned(tmp_path, capsys):
    for k, (fixture, rows, digest) in enumerate(PINNED_FITTING):
        path = tmp_path / f"m{k}.json"
        path.write_text(json.dumps({"rows": rows}))
        code, out, err = run_cli(capsys, "fitting", "--fixture", fixture_path(fixture),
                                 "--matrix", str(path))
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (k, out)


def test_composite_p_exits_3(capsys):
    code, out, err = run_cli(capsys, "check", "stickelberger",
                             "--fixture", fixture_path("q_i"),
                             "--S", "inf,2", "--T", "5", "--p", "6")
    assert code == 3 and not out
    assert "prime" in err and err.count("\n") == 1


def test_unexpected_exception_exits_4(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setitem(SUITES, "sku", SUITES["sku"]._replace(run=broken))
    code, out, err = run_cli(capsys, "check", "all",
                             "--fixture", fixture_path("q"))
    assert code == 4 and not out
    assert err == "error: internal: RuntimeError('boom')\n"


def test_cli_import_needs_no_numpy():
    # skv has no runtime dependency; a fresh interpreter proves no module
    # pulls numpy in behind the scenes
    src = os.path.dirname(os.path.dirname(os.path.abspath(skv.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, skv.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_place_labels_need_not_be_primes(tmp_path, capsys):
    # the computed theta path reads residue characteristics, not labels
    obj = load_fixture_json("q_zeta3")
    for place in obj["places"]:
        if place["label"] == "7":
            place["label"] = "p7"
    for cg in obj["classGroups"]:
        cg["setT"] = ["p7" if lab == "7" else lab for lab in cg["setT"]]
    path = tmp_path / "q_zeta3_p7.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "check", "all", "--fixture", str(path))
    assert code == 0, err
    _, ref, _ = run_cli(capsys, "check", "all",
                        "--fixture", fixture_path("q_zeta3"))
    statuses = [(v["checkId"], v["status"]) for v in json.loads(out)["verdicts"]]
    assert statuses == [(v["checkId"], v["status"])
                        for v in json.loads(ref)["verdicts"]]


def test_theta_source_value_keys_parse_strictly(tmp_path, capsys):
    def arabic_key(vals):
        vals["\u0661"] = vals.pop("1")  # ARABIC-INDIC DIGIT ONE

    def repeated_index(vals):
        vals["01"] = dict(vals["1"])

    for mutate, what in ((arabic_key, "not an integer index"),
                         (repeated_index, "index 1 given twice")):
        obj = load_fixture_json("s3c2")
        mutate(obj["subextensionThetas"][0]["values"])
        path = tmp_path / f"{mutate.__name__}.json"
        path.write_text(json.dumps(obj))
        for argv in (["fixtures", "validate"], ["check", "all"]):
            code, out, err = run_cli(capsys, *argv, "--fixture", str(path))
            assert code == 3 and not out, (mutate.__name__, argv, err)
            assert what in err and err.count("\n") == 1, err


def test_class_group_action_shape_and_entries_exit_3(tmp_path, capsys):
    # rows are checked for shape before any entry is reduced by its factor
    cases = [([[1], [2]], "wrong shape"), ([5], "wrong shape"),
             ([[1, 2]], "wrong shape"), ([[1.5]], "non-integer entry"),
             ([["1"]], "non-integer entry"), ([[True]], "non-integer entry")]
    for matrix, what in cases:
        obj = load_fixture_json("q_zeta23")
        obj["classGroups"][0]["action"]["1"] = matrix
        path = tmp_path / "q_zeta23_action.json"
        path.write_text(json.dumps(obj))
        code, out, err = run_cli(capsys, "fixtures", "validate",
                                 "--fixture", str(path))
        assert code == 3 and not out, matrix
        assert what in err and err.count("\n") == 1, (matrix, err)


ROOT = os.path.join(os.path.dirname(__file__), "..")


def _tool(name):
    """tools/<name>.py as a module."""
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(ROOT, "tools", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cli_invocations():
    """``CLI_INVOCATIONS`` from tools/report_digests.py."""
    return _tool("report_digests").CLI_INVOCATIONS


def _parse(parser, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parser.parse_args(argv)
            code = None
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_one_command_parser_prints_what_the_full_parser_does(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    invocations = _cli_invocations()
    for command in COMMANDS:
        own = [argv for argv in invocations if argv and argv[0] == command]
        assert own, command  # the help screen at least
        for argv in own:
            full = _parse(build_parser(), argv)
            assert _parse(build_parser(command), argv) == full, argv
            assert full[0] is not None, argv  # each one ends in help or an error


_FLAGS = sorted({o.flag for spec in COMMANDS.values() for o in spec.options
                 if o.flag.startswith("-")})
_VALUES = ["q.json", "", "-1", "+2", "1_0", "\u0663", "two", "a,b", "yaml", "-",
           "-x", "json", "text", "3", "007", "-0", "all", *SUITES]
_PREFIXES = [[], ["nonsense"], *([name] for name in COMMANDS),
             *(["check", suite] for suite in (*SUITES, "all")),
             ["fixtures", "validate"]]


def _plain_values(option) -> list[str]:
    """Values that the option takes."""
    if option.choices:
        return list(option.choices)
    if option.convert is int:
        return ["3", "007", "-1", "-0"]
    return ["q.json", "a,b", ""]


@st.composite
def _argvs(draw):
    """Command lines near the plain grammar: a command, each of a few of
    its own flags once with a value, as `--flag value` or `--flag=value`,
    and at most one noise token anywhere (a help flag, `--`, an unknown,
    abbreviated or repeated flag, a bare value, an `=` form)."""
    prefix = draw(st.sampled_from(_PREFIXES))
    spec = COMMANDS.get(prefix[0]) if prefix else None
    own = [o for o in spec.options if o.flag.startswith("-")] if spec else []
    value = st.sampled_from(_VALUES)
    argv = [*prefix, *draw(st.sampled_from([[], ["--fixture", "q.json"]]))]
    parts = st.lists(st.sampled_from(own).flatmap(lambda o: st.tuples(
        st.just(o), value | st.sampled_from(_plain_values(o)), st.booleans())),
        max_size=4, unique_by=lambda part: part[0].flag) if own else st.just([])
    for option, text, joined in draw(parts):
        argv.extend([f"{option.flag}={text}"] if joined else [option.flag, text])
    flag = st.sampled_from([*_FLAGS, "--bogus", "--fix", "-h", "--help", "--"])
    noise = st.one_of(flag, value, st.tuples(flag, value).map("=".join))
    for token in draw(st.lists(noise, max_size=1)):
        argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


def _typed(namespace) -> dict:
    # True == 1, so compare each value with its type
    return {k: (type(v), v) for k, v in vars(namespace).items()}


@settings(max_examples=500, deadline=None)
@given(_argvs())
def test_direct_reader_returns_what_argparse_does_or_declines(argv):
    read = _read_args(argv)
    if read is not None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            parsed = build_parser(argv[0]).parse_args(argv)
        assert _typed(read) == _typed(parsed), argv


def _one_entry_matrix(tmp_path):
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps({"rows": [[{"0": "2", "1": "1"}]]}))
    return matrix


def _readme_examples(tmp_path):
    """The `skv` lines of the README's command-line examples, with paths
    from the repository root and m.json a one-entry presentation."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        section = fh.read().split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    matrix = _one_entry_matrix(tmp_path)
    calls = []
    for line in block.splitlines():
        if line.startswith("skv "):
            calls.append([str(matrix) if arg == "m.json" else
                          os.path.join(ROOT, arg) if arg.startswith("src/") else arg
                          for arg in shlex.split(line)[1:]])
    return calls


def test_direct_reader_prints_what_argparse_does(tmp_path, monkeypatch, capsys):
    traffic = _tool("traffic")
    calls = [argv for name in FIXTURE_NAMES
             for argv in traffic.fixture_calls(fixture_path(name))]
    examples = _readme_examples(tmp_path)
    assert len(examples) == 6
    calls += examples
    # every one of them is a plain command line
    assert all(_read_args(argv) is not None for argv in calls)
    direct = [run_cli(capsys, *argv) for argv in calls]
    monkeypatch.setattr(cli, "_read_args", lambda argv: None)
    assert [run_cli(capsys, *argv) for argv in calls] == direct


def test_plain_calls_import_no_argparse(tmp_path, monkeypatch):
    src = os.path.dirname(os.path.dirname(os.path.abspath(skv.__file__)))
    env = dict(os.environ, PYTHONPATH=src, COLUMNS="80")
    matrix = _one_entry_matrix(tmp_path)
    calls = [["check", "all", "--fixture", fixture_path("q")],
             ["fitting", "--fixture", fixture_path("q_zeta3"), "--matrix", str(matrix)]]
    probe = ("import contextlib, io, sys, skv.cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             f"    codes = [skv.cli.main(argv) for argv in {calls!r}]\n"
             "print(codes, [m for m in ('argparse', 'gettext', 'locale') "
             "if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[0, 0] []"
    # help still comes from argparse
    monkeypatch.setenv("COLUMNS", "80")
    helped = subprocess.run([sys.executable, "-m", "skv.cli", "check", "--help"],
                            env=env, capture_output=True, text=True)
    assert helped.returncode == 0
    assert (0, helped.stdout, helped.stderr) == _parse(build_parser("check"),
                                                       ["check", "--help"])
