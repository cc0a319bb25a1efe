import copy
import functools
import json
import operator
import random
import sys

import pytest

import loopalg
from loopalg import cli, kepler, liealg, linalg, loop, scalars
from loopalg.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_bundled_specs_by_name(capsys):
    for name in ("h2.json", "l1.json", "l2.json"):
        code, out, _ = run(capsys, "validate", name)
        assert code == 0 and "OK" in out


def test_validate_algebra_file(tmp_path, capsys):
    path = tmp_path / "so3.json"
    path.write_text(json.dumps({
        "dim": 3,
        "names": ["X", "Y", "Z"],
        "brackets": [
            {"i": 0, "j": 1, "terms": [{"k": 2, "c": "1", "q": "0"}]},
            {"i": 1, "j": 2, "terms": [{"k": 0, "c": "1", "q": "0"}]},
            {"i": 0, "j": 2, "terms": [{"k": 1, "c": "-1", "q": "0"}]},
        ],
    }))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0 and "valid algebra" in out

    code, out, _ = run(capsys, "classify", str(path))
    assert code == 0 and out.strip() == "so3"


def test_validate_rejects_jacobi_violation(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "dim": 3,
        "brackets": [
            {"i": 0, "j": 1, "terms": [{"k": 2, "c": "1", "q": "0"}]},
            {"i": 1, "j": 2, "terms": [{"k": 1, "c": "1", "q": "0"}]},
        ],
    }))
    code, _, err = run(capsys, "validate", str(path))
    assert code == 1 and "Jacobi" in err


def test_malformed_json_exits_64_with_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"dim": 3,\n  "brackets": [}')
    code, _, err = run(capsys, "validate", str(path))
    assert code == 64
    assert f"{path}:2:" in err  # line/column of the parse error


def test_missing_file_and_usage_errors(capsys):
    code, _, err = run(capsys, "validate", "no-such-file.json")
    assert code == 64
    code, _, err = run(capsys, "no-such-command")
    assert code == 64
    code, _, err = run(capsys, "contract", "h2.json")  # --weights required
    assert code == 64
    code, _, err = run(capsys, "selection-check", "h2.json", "--levels", "0,x")
    assert code == 64


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0 and "demo-table1" in out


def test_selection_check_paths(capsys):
    code, out, _ = run(capsys, "selection-check", "h2.json", "--levels", "1,1,0")
    assert code == 0 and "OK" in out
    code, _, err = run(capsys, "selection-check", "h2.json", "--levels", "0,0,2")
    assert code == 1 and "not closed" in err


def test_empty_levels_is_a_usage_error(capsys):
    for command in ("quotient", "selection-check"):
        code, out, err = run(capsys, command, "h2.json", "--levels", "")
        assert _rejected(code, out, err) and "levels" in err, command


def test_eps_power_beyond_the_bound_exits_64(tmp_path, capsys):
    # 2^q with q just above the bound: refused before it is computed
    q = scalars.MAX_POWER_BITS // 3 + 1
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"dim": 3, "brackets": [
        {"i": 0, "j": 1, "terms": [{"k": 2, "c": "1", "q": str(q)}]}]}))
    code, out, err = run(capsys, "classify", str(path), "--eps", "2")
    assert _rejected(code, out, err) and "exact-power bound" in err
    code, out, err = run(capsys, "classify", str(path), "--eps", "0")
    assert code == 0 and out.strip() == "abelian3"
    levels = ",".join([str(q)] * 3)
    code, out, err = run(capsys, "quotient", "h2.json", "--levels", levels, "--eps", "2")
    assert _rejected(code, out, err) and "exact-power bound" in err


def test_an_inexact_power_exits_1_naming_it(tmp_path, capsys):
    path = tmp_path / "half.json"
    path.write_text(json.dumps({"dim": 3, "brackets": [
        {"i": 0, "j": 1, "terms": [{"k": 2, "c": "1", "q": "1/2"}]}]}))
    code, out, err = run(capsys, "classify", str(path), "--eps=-1/8")
    assert (code, out, err) == (1, "", "error: eps^(1/2) is not real at eps = -1/8\n")


def test_quotient_and_classify_pipeline(tmp_path, capsys):
    code, out, _ = run(capsys, "quotient", "l1.json", "--format", "json")
    assert code == 0
    algebra = json.loads(out)["algebra"]
    path = tmp_path / "family.json"
    path.write_text(json.dumps(algebra))
    code, out, _ = run(capsys, "classify", str(path), "--eps", "0")
    assert code == 0 and out.strip() == "heisenberg"
    code, out, _ = run(capsys, "classify", str(path), "--eps", "-1")
    assert code == 0 and out.strip() == "so21"
    # symbolic constants cannot be classified without --eps
    code, _, err = run(capsys, "classify", str(path))
    assert code == 1 and "eps" in err


def test_quotient_human_output_and_eps(capsys):
    code, out, _ = run(capsys, "quotient", "h2.json", "--eps", "0")
    assert code == 0
    assert "{A1, A2}" not in out  # that bracket vanished at eps=0
    assert "{L, A1}" in out


def test_contract_command(tmp_path, capsys):
    path = tmp_path / "so3.json"
    path.write_text(json.dumps({
        "dim": 3,
        "brackets": [
            {"i": 0, "j": 1, "terms": [{"k": 2, "c": "1", "q": "0"}]},
            {"i": 1, "j": 2, "terms": [{"k": 0, "c": "1", "q": "0"}]},
            {"i": 0, "j": 2, "terms": [{"k": 1, "c": "-1", "q": "0"}]},
        ],
    }))
    code, out, _ = run(capsys, "contract", str(path), "--weights", "0,1,1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["classic_iw"] is True
    code, _, err = run(capsys, "contract", str(path), "--weights", "1,0,0")
    assert code == 1 and "contraction undefined" in err


def test_demo_table1(capsys):
    code, out, _ = run(capsys, "demo-table1")
    assert code == 0
    assert "so3" in out and "heisenberg" in out and "abelian3" in out
    code2, out2, _ = run(capsys, "demo-table1")
    assert out == out2  # byte-identical across runs
    code, out, _ = run(capsys, "demo-table1", "--format", "json")
    rows = json.loads(out)
    assert [row["labels"] for row in rows] == [
        ["so3", "e2", "so21"],
        ["so3", "heisenberg", "so21"],
        ["so3", "abelian3", "so21"],
    ]


def test_demo_lorentz(capsys):
    code, out, _ = run(capsys, "demo-lorentz")
    assert code == 0 and "PASS" in out
    code, out, _ = run(capsys, "demo-lorentz", "--format", "json")
    data = json.loads(out)
    assert data["match"] and data["classic_iw"] and data["boosts_abelian"]


def test_demo_hysteresis(capsys):
    code, out, _ = run(capsys, "demo-hysteresis", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["origin_labels"] == {"path_A": "e2", "path_B": "heisenberg"}
    assert data["hysteresis"] is True
    labels_a = [pt["label"] for pt in data["path_A"]["points"]]
    assert labels_a == ["so3", "so3", "so3", "e2"]
    labels_b = [pt["label"] for pt in data["path_B"]["eps_leg"]]
    assert labels_b == ["so3", "so3", "so3", "heisenberg"]
    assert all(pt["label"] == "heisenberg" for pt in data["path_B"]["beta_leg"])
    code, out, _ = run(capsys, "demo-hysteresis")
    assert code == 0 and "different" in out


def test_verify_kepler_json(capsys):
    code, out, _ = run(
        capsys, "verify-kepler", "--samples", "50", "--seed", "42", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["all_pass"] is True
    assert data["radial_term"]["radial_coefficient"] == "m*alpha"
    assert all(entry["pass"] for entry in data["identities"])


def test_verify_kepler_failure_exit_code(capsys):
    code, out, _ = run(
        capsys, "verify-kepler", "--samples", "10", "--tol", "1e-16", "--format", "json"
    )
    assert code == 2
    assert json.loads(out)["all_pass"] is False


def test_verify_kepler_rejects_bad_mass(capsys):
    code, _, err = run(capsys, "verify-kepler", "--m", "0", "--samples", "5")
    assert code == 64 and "mass" in err


def _rejected(code, out, err):
    """Exit 64 with a one-line `error:` message, no traceback and no PASS."""
    lines = err.strip().splitlines()
    return (code == 64 and len(lines) == 1 and lines[0].startswith("error:")
            and "PASS" not in out)


def test_verify_kepler_rejects_non_finite_params_and_zero_samples(capsys):
    assert _rejected(*run(capsys, "verify-kepler", "--beta", "nan", "--samples", "5"))
    assert _rejected(*run(capsys, "verify-kepler", "--m", "inf", "--samples", "5"))
    code, out, err = run(capsys, "verify-kepler", "--samples", "0")
    assert _rejected(code, out, err) and "samples" in err


def test_unparsable_eps_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "abelian.json"
    path.write_text(json.dumps({"dim": 3, "brackets": []}))
    for command in (["classify", str(path)], ["quotient", "l1.json"]):
        for eps in ("abc", "1/0", "1,2"):
            code, out, err = run(capsys, *command, "--eps", eps)
            assert _rejected(code, out, err) and "eps" in err, (command, eps)
    code, out, _ = run(capsys, "quotient", "l2.json", "--eps=-1/4")
    assert code == 0 and "(1/16)*S" in out


def test_a_bad_rational_option_names_the_value(tmp_path, capsys):
    # each part of --eps and --weights is read as the library reads a rational
    path = tmp_path / "heisenberg.json"
    path.write_text(json.dumps({"dim": 3, "brackets": [
        {"i": 0, "j": 1, "terms": [{"k": 2, "c": "1"}]}]}))
    cases = {("quotient", "l1.json", "--eps", "1/0"): "eps '1/0': zero denominator: '1/0'",
             ("quotient", "l1.json", "--eps", "abc"): "eps 'abc': not a rational: 'abc'",
             ("contract", str(path), "--weights", "1/0,1,1"):
                 "weights '1/0,1,1': zero denominator: '1/0'",
             ("contract", str(path), "--weights", "abc,1,1"):
                 "weights 'abc,1,1': not a rational: 'abc'"}
    for argv, message in cases.items():
        code, out, err = run(capsys, *argv)
        assert _rejected(code, out, err) and err.strip() == f"error: cannot parse {message}", argv


def test_verify_kepler_overflow_is_a_numerical_failure(capsys):
    # finite, well-formed parameters whose double arithmetic overflows in the
    # oracle ((m * beta) ** 2 in N1): exit 2 with one line, never a traceback
    for argv in (["--beta", "1e300"], ["--m", "1e200"]):
        code, out, err = run(capsys, "verify-kepler", *argv, "--samples", "2")
        lines = err.strip().splitlines()
        assert code == 2 and len(lines) == 1 and "overflow" in lines[0], argv
        assert "PASS" not in out


def test_verify_kepler_exits_2_on_a_point_within_a_step_of_the_boundary(capsys, monkeypatch):
    # no sample reaches it from the command line (r >= 0.5, |phi| <= pi - 0.2)
    monkeypatch.setattr(kepler, "sample_points", lambda samples, seed: [(1e-7, 0.5, 0.3, 1.0)])
    code, out, err = run(capsys, "verify-kepler", "--samples", "2")
    assert code == 2 and not out
    assert err == ("error: point (r=1e-07, phi=0.5) is within one stencil step"
                   " of the domain boundary\n")


_SPEC = {"s": 1, "generators": [{"name": "A", "grade": 0}, {"name": "B", "grade": 1}],
         "brackets": []}
_TERM_INF = {"i": 0, "j": 1, "terms": [{"k": 1, "c": 1e999}]}  # JSON 1e999 reads as inf

_BRACKET = {"i": 0, "j": 1, "terms": [{"k": 2, "c": "1"}]}
_SPEC_TERM = {"i": 0, "j": 1, "terms": [{"k": 1, "c": "1", "hpow": 0}]}


def _with(entry, key, value, term=False):
    """A copy of a bracket entry with one field (of its first term) replaced."""
    if term:
        return {**entry, "terms": [{**entry["terms"][0], key: value}]}
    return {**entry, key: value}


# each fails in the loader or in the constructor, which the loader checks as well;
# an integer field takes a JSON integer only (never a float, a bool or a string)
MALFORMED_FILES = {
    "dim_float": {"dim": 3.9},
    "dim_integral_float": {"dim": 3.0},
    "dim_bool": {"dim": True},
    "i_bool": {"dim": 3, "brackets": [_with(_BRACKET, "i", False)]},
    "j_float": {"dim": 3, "brackets": [_with(_BRACKET, "j", 1.7)]},
    "k_float": {"dim": 3, "brackets": [_with(_BRACKET, "k", 2.2, term=True)]},
    "k_string": {"dim": 3, "brackets": [_with(_BRACKET, "k", "2", term=True)]},
    "s_float": {**_SPEC, "s": 2.5},
    "s_bool": {**_SPEC, "s": True},
    "grade_float": {**_SPEC, "generators": [{"name": "A", "grade": 0},
                                            {"name": "B", "grade": 1.5}]},
    "spec_i_float": {**_SPEC, "brackets": [_with(_SPEC_TERM, "i", 0.0)]},
    "spec_j_string": {**_SPEC, "brackets": [_with(_SPEC_TERM, "j", "1")]},
    "spec_k_float": {**_SPEC, "brackets": [_with(_SPEC_TERM, "k", 1.0, term=True)]},
    "hpow_float": {**_SPEC, "brackets": [_with(_SPEC_TERM, "hpow", 0.9, term=True)]},
    "selection_float": {**_SPEC, "selection": [0, 1.0]},
    "selection_bool": {**_SPEC, "selection": [False, True]},
    "dim_not_int": {"dim": "x"},
    "top_level_array": [],
    "names_not_list": {"dim": 3, "names": 5},
    "names_string": {"dim": 3, "names": "XYZ"},
    # a generator name is a JSON string, distinct from the others
    "names_not_strings": {"dim": 2, "names": [1, None]},
    "names_null": {"dim": 2, "names": [None, "B"]},
    "names_list_entry": {"dim": 2, "names": ["A", ["B"]]},
    "names_duplicate": {"dim": 3, "names": ["A", "A", "B"]},
    "spec_name_null": {**_SPEC, "generators": [{"name": None, "grade": 0},
                                               {"name": "B", "grade": 1}]},
    "spec_name_list": {**_SPEC, "generators": [{"name": "A", "grade": 0},
                                               {"name": [1], "grade": 1}]},
    "spec_name_number": {**_SPEC, "generators": [{"name": 7, "grade": 0},
                                                 {"name": "B", "grade": 1}]},
    # a coefficient or exponent takes a "p/q" string or a JSON integer only
    "c_float": {"dim": 3, "brackets": [_with(_BRACKET, "c", 0.1, term=True)]},
    "q_float": {"dim": 3, "brackets": [_with(_BRACKET, "q", 0.5, term=True)]},
    "c_bool": {"dim": 3, "brackets": [_with(_BRACKET, "c", True, term=True)]},
    "spec_c_float": {**_SPEC, "brackets": [_with(_SPEC_TERM, "c", 0.5, term=True)]},
    "constant_inf": {"dim": 2, "brackets": [_TERM_INF]},
    "s_not_int": {**_SPEC, "s": "x"},
    "grade_not_int": {**_SPEC, "generators": [{"name": "A", "grade": 0},
                                              {"name": "B", "grade": "x"}]},
    "selection_not_int": {**_SPEC, "selection": ["a"]},
    "selection_not_list": {**_SPEC, "selection": 5},
    "selection_length": {**_SPEC, "selection": [0, 0, 0]},
    "spec_constant_inf": {**_SPEC, "brackets": [_TERM_INF]},
}


@pytest.mark.parametrize("name", sorted(MALFORMED_FILES))
def test_malformed_input_file_exits_64_with_one_line(tmp_path, capsys, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(MALFORMED_FILES[name]))
    assert _rejected(*run(capsys, "validate", str(path)))


# a missing field or a list field of another JSON type is named in the one error line
@pytest.mark.parametrize("data, message", [
    ({"dim": 3, "brackets": [{"i": 0, "terms": []}]}, "missing field 'j'"),
    ({"dim": 3, "brackets": [{"i": 0, "j": 1, "terms": [{"c": "1"}]}]}, "missing field 'k'"),
    ({"dim": 3, "brackets": [{"i": 0, "j": 1, "terms": None}]}, "field 'terms' must be an array"),
    ({"dim": 3, "brackets": {"i": 0}}, "field 'brackets' must be an array"),
    ({**_SPEC, "brackets": [{"i": 0, "terms": []}]}, "missing field 'j'"),
    ({**_SPEC, "brackets": [{"i": 0, "j": 1, "terms": None}]}, "field 'terms' must be an array"),
    ({**_SPEC, "brackets": "[]"}, "field 'brackets' must be an array"),
    ({**_SPEC, "generators": [{"grade": 0}]}, "missing field 'name'"),
    ({**_SPEC, "generators": None}, "field 'generators' must be an array"),
    # an entry of those lists that is not a JSON object
    ({"dim": 3, "brackets": [5]}, "field 'brackets' must hold objects"),
    ({"dim": 3, "brackets": [{"i": 0, "j": 1, "terms": ["x"]}]}, "field 'terms' must hold objects"),
    ({**_SPEC, "brackets": [[0, 1]]}, "field 'brackets' must hold objects"),
    ({**_SPEC, "brackets": [{"i": 0, "j": 1, "terms": ["x"]}]}, "field 'terms' must hold objects"),
    ({**_SPEC, "generators": [3]}, "field 'generators' must hold objects"),
], ids=["no_j", "no_k", "terms_null", "brackets_object", "spec_no_j", "spec_terms_null",
        "spec_brackets_string", "spec_no_name", "spec_generators_null", "bracket_int",
        "term_string", "spec_bracket_list", "spec_term_string", "spec_generator_int"])
def test_a_malformed_file_names_the_field(tmp_path, capsys, data, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    what = "loop spec" if "generators" in data else "algebra description"
    code, out, err = run(capsys, "validate", str(path))
    assert _rejected(code, out, err) and err == f"error: malformed {what}: {message}\n"


@pytest.mark.parametrize("command, data, message", [
    ("quotient", {"dim": 3, "brackets": [_BRACKET]}, " is not a loop-spec file (no 'generators' key)"),
    ("classify", {**_SPEC, "brackets": [_SPEC_TERM]}, " is not an algebra file (no 'dim' key)"),
    ("validate", [], ": top-level JSON value must be an object"),
], ids=["quotient_on_an_algebra", "classify_on_a_spec", "top_level_array"])
def test_a_file_of_the_wrong_kind_exits_64_naming_it(tmp_path, capsys, command, data, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, command, str(path))
    assert _rejected(code, out, err) and err == f"error: {path}{message}\n"


# a generator named like a quotient class of another: A at level 1 is "h*A"
_CLASH_SPEC = {"s": 1, "generators": [{"name": "A", "grade": 0}, {"name": "h*A", "grade": 1},
                                      {"name": "h^2*A", "grade": 2}], "brackets": []}


@pytest.mark.parametrize("levels, clash", [("1,0,0", "h*A"), ("2,1,0", "h^2*A")])
def test_quotient_refuses_clashing_class_names(tmp_path, capsys, levels, clash):
    path = tmp_path / "clash.json"
    path.write_text(json.dumps(_CLASH_SPEC))
    for argv in (["--levels", levels], ["--levels", levels, "--format", "json"]):
        code, out, err = run(capsys, "quotient", str(path), *argv)
        assert _rejected(code, out, err) and repr(clash) in err and not out, argv
    path.write_text(json.dumps({**_CLASH_SPEC, "selection": [int(m) for m in levels.split(",")]}))
    assert _rejected(*run(capsys, "quotient", str(path)))
    # validate refuses the selection that quotient refuses
    code, out, err = run(capsys, "validate", str(path))
    assert _rejected(code, out, err) and repr(clash) in err and not out
    with pytest.raises(scalars.InputError):
        loop.factor_algebra(loop.LoopSpec.from_json(_CLASH_SPEC), [int(m) for m in levels.split(",")])
    # the levels are closed: selection-check names no class, so a clash is not its concern
    code, out, err = run(capsys, "selection-check", str(path), "--levels", levels)
    assert code == 0 and not err and out.startswith("OK: levels ")
    # levels that keep the names distinct still quotient
    code, out, err = run(capsys, "quotient", str(path), "--levels", "1,2,0")
    assert code == 0 and not err and "generators: h*A, h^2*h*A, h^2*A" in out


def test_integer_fields_load_when_they_hold_integers(tmp_path, capsys):
    # the well-formed versions of the files above: only the field type differs
    algebra = {"dim": 3, "brackets": [_BRACKET]}
    spec = {**_SPEC, "brackets": [_SPEC_TERM], "selection": [0, 1]}
    # and a coefficient or exponent written as a JSON integer
    int_algebra = {"dim": 3, "brackets": [_with(_with(_BRACKET, "c", 2, term=True), "q", 1, term=True)]}
    int_spec = {**spec, "brackets": [_with(_SPEC_TERM, "c", -3, term=True)]}
    for name, data in (("algebra", algebra), ("spec", spec),
                       ("int_algebra", int_algebra), ("int_spec", int_spec)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "validate", str(path))
        assert code == 0 and not err and out.startswith("OK: "), name


@pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
def test_verify_kepler_rejects_tol_outside_its_domain(capsys, tol):
    code, out, err = run(capsys, "verify-kepler", "--samples", "5", f"--tol={tol}")
    assert _rejected(code, out, err) and "tol" in err


def test_verify_kepler_json_is_strict_when_residuals_are_not_finite(capsys):
    # at m = 1e-320 most residuals are NaN: the JSON writes them as null,
    # the table keeps "nan" and the run is a numerical failure either way
    def refuse(token):
        raise AssertionError(f"non-standard JSON token {token}")

    code, out, err = run(capsys, "verify-kepler", "--m", "1e-320", "--samples", "1",
                         "--format", "json")
    report = json.loads(out, parse_constant=refuse)
    assert code == 2 and not err and report["all_pass"] is False
    residuals = [res["max_rel_residual"] for res in report["identities"]]
    assert residuals.count(None) == 14 and all(
        isinstance(r, float) for r in residuals if r is not None)
    assert report["radial_term"]["max_rel_residual"] is None
    code, out, err = run(capsys, "verify-kepler", "--m", "1e-320", "--samples", "1")
    assert code == 2 and not err and "max_rel_residual=nan" in out


def test_verify_kepler_tol_zero_runs(capsys):
    # no residual is exactly 0, so every identity fails: a numerical failure
    code, out, err = run(capsys, "verify-kepler", "--samples", "5", "--tol", "0")
    assert code == 2 and not err and out.startswith("FAIL ")


# exception classes outside the two input categories, and why
NOT_CATEGORIZED = {
    kepler.BoundaryTooClose: "oracle: stencil leaves the domain (exit 2)",
}


def test_every_exception_class_has_an_error_category():
    modules = (loopalg, scalars, linalg, liealg, loop, kepler, cli)
    classes = {obj for module in modules for obj in vars(module).values()
               if isinstance(obj, type) and issubclass(obj, BaseException)
               and obj.__module__.startswith("loopalg")}
    assert scalars.InputError in classes and liealg.NotInSpan in classes
    for cls in classes:
        assert issubclass(cls, (scalars.InputError, scalars.Rejected)) or cls in NOT_CATEGORIZED, cls
        assert issubclass(cls, ValueError), cls
    assert not issubclass(scalars.InputError, scalars.Rejected)
    assert not issubclass(scalars.Rejected, scalars.InputError)


# bytes that JSON cannot decode although they hold no syntax error; the long
# integer is an "i", so a Python with no int/str digit limit refuses it as well
UNDECODABLE_FILES = {
    "bad_utf8": b'{"dim": 3, "names": ["X\xff", "Y", "Z"]}',
    "deep_array": b"[" * 100000 + b"]" * 100000,
    "long_integer": b'{"dim": 3, "brackets": [{"i": ' + b"9" * 5000 + b', "j": 1, "terms": []}]}',
}


@pytest.mark.parametrize("name", sorted(UNDECODABLE_FILES))
def test_an_undecodable_input_file_exits_64_naming_it(tmp_path, capsys, name):
    path = tmp_path / f"{name}.json"
    path.write_bytes(UNDECODABLE_FILES[name])
    code, out, err = run(capsys, "validate", str(path))
    assert _rejected(code, out, err), err
    assert err.startswith(f"error: {path}: cannot decode JSON: ") and "Traceback" not in err


def test_a_digit_separator_is_no_rational_on_any_python(tmp_path, capsys):
    # Fraction reads "1_000" from Python 3.11 on; as_fraction refuses it everywhere, as 3.10 does
    path = tmp_path / "separator.json"
    path.write_text(json.dumps({**_SPEC, "brackets": [_with(_SPEC_TERM, "c", "1_0", term=True)]}))
    code, out, err = run(capsys, "validate", str(path))
    assert _rejected(code, out, err) and "not a rational: '1_0'" in err
    for text in ("1_000", "1_0/3"):
        code, out, err = run(capsys, "quotient", "h2.json", "--eps", text)
        assert _rejected(code, out, err), text
        assert err.strip() == f"error: cannot parse eps '{text}': not a rational: '{text}'"


# -- Python's int->str digit limit and the dimension bound ------------------------------

needs_digit_limit = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                       reason="this Python has no int->str digit limit")


def _one_error_line(code, out, err, expected_code):
    lines = err.splitlines()
    return (code == expected_code and not out and len(lines) == 1
            and lines[0].startswith("error: ") and "Traceback" not in err)


_SPEC_AB_C = {"s": 2, "generators": [{"name": "A", "grade": 1}, {"name": "B", "grade": 1},
                                     {"name": "C", "grade": 2}]}


@needs_digit_limit
def test_a_refusal_names_a_rational_past_the_digit_limit_by_its_size(tmp_path, capsys):
    code, out, err = run(capsys, "quotient", "h2.json", "--eps", "1e100000")
    assert _one_error_line(code, out, err, 64), err
    assert err == ("error: eps^(1) at eps = <332193-bit/1-bit rational> exceeds the "
                   f"exact-power bound of {scalars.MAX_POWER_BITS} bits\n")
    path = tmp_path / "negative_q.json"
    path.write_text(json.dumps({"dim": 3, "brackets": [
        {"i": 0, "j": 1, "terms": [{"k": 2, "c": "1", "q": "-1e5000"}]}]}))
    code, out, err = run(capsys, "classify", str(path), "--eps", "0")
    assert _one_error_line(code, out, err, 1), err
    assert err == "error: term 1*eps^-<16610-bit/1-bit rational> diverges for eps -> 0\n"
    # [X0,X1] = 10^3000 X2 and [X1,X2] = 10^3000 X1: the residual has 6001 digits
    path = tmp_path / "long_residual.json"
    path.write_text(json.dumps({"dim": 3, "brackets": [
        {"i": 0, "j": 1, "terms": [{"k": 2, "c": "1e3000"}]},
        {"i": 1, "j": 2, "terms": [{"k": 1, "c": "1e3000"}]}]}))
    code, out, err = run(capsys, "validate", str(path))
    assert _one_error_line(code, out, err, 1), err
    assert err == ("error: Jacobi identity fails on triple (0,1,2); residual "
                   "{2: PuiseuxScalar(<19932-bit/1-bit rational>)}\n")
    path = tmp_path / "long_spec_residual.json"
    path.write_text(json.dumps({**_SPEC_AB_C, "brackets": [
        {"i": 0, "j": 1, "terms": [{"k": 2, "c": "1e3000", "hpow": 0}]},
        {"i": 0, "j": 2, "terms": [{"k": 0, "c": "1e3000", "hpow": 1}]}]}))
    code, out, err = run(capsys, "validate", str(path))
    assert _one_error_line(code, out, err, 1), err
    assert err == ("error: Jacobi identity fails on basic triple (0,1,2): "
                   "{(2, 1): <19932-bit/1-bit rational>}\n")
    path = tmp_path / "heisenberg.json"
    path.write_text(json.dumps({"dim": 3, "brackets": [
        {"i": 0, "j": 1, "terms": [{"k": 2, "c": "1"}]}]}))
    code, out, err = run(capsys, "contract", str(path), "--weights", "0,0,1e5000")
    assert _one_error_line(code, out, err, 1), err
    assert err == ("error: contraction undefined; violated triples: "
                   "(0,1)->2: 0+0-<16610-bit/1-bit rational> < 0\n")


@needs_digit_limit
@pytest.mark.parametrize("fmt", ["table", "json"])
def test_an_algebra_with_a_constant_past_the_digit_limit_is_refused_in_one_line(
        tmp_path, capsys, fmt):
    path = tmp_path / "long_constant.json"
    path.write_text(json.dumps({"dim": 3, "brackets": [
        {"i": 0, "j": 1, "terms": [{"k": 2, "c": "1e5000"}]}]}))
    limit = f"({sys.get_int_max_str_digits()} digits)"
    for argv in (["quotient", "h2.json", "--eps", "1e5000"],
                 ["contract", str(path), "--weights", "0,0,0"]):
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert _one_error_line(code, out, err, 64), (argv, err)
        assert err.startswith("error: a structure constant is too long to print: ") and limit in err
    code, out, err = run(capsys, "quotient", "h2.json", "--eps", "1e4000", "--format", fmt)
    assert code == 0 and not err


def test_a_dimension_past_max_dim_is_refused_before_anything_is_built(tmp_path, capsys):
    bound = liealg.MAX_DIM
    path = tmp_path / "huge_dim.json"
    path.write_text(json.dumps({"dim": bound + 1}))
    code, out, err = run(capsys, "validate", str(path))
    assert _one_error_line(code, out, err, 64), err
    assert err == f"error: dimension {bound + 1} exceeds the bound of {bound}\n"
    with pytest.raises(liealg.AlgebraFormatError, match="exceeds the bound"):
        liealg.LieAlgebra(bound + 1, {})
    with pytest.raises(loop.SpecFormatError, match="exceeds the bound"):
        loop.LoopSpec(1, [(f"G{i}", 0) for i in range(bound + 1)], {})
    assert liealg.LieAlgebra(bound, {(0, 1): {bound - 1: 1}}).dim == bound


# -- seeded fuzzing of every subcommand ---------------------------------------------------

def _json_paths(node, path=()):
    """(path, value) for every value inside a JSON document, the document itself excluded."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,), value
        yield from _json_paths(value, path + (key,))


def _is_number(value):
    if isinstance(value, str):
        try:
            scalars.as_fraction(value)
        except ValueError:
            return False
        return True
    return type(value) is int


FUZZ_NUMBERS = ("0", "-1", "1e5000", *[str(10 ** k) for k in range(7)])


FUZZ_KINDS = ("drop", "retype", "swap", "number")


def _mutated(rng, data, kind):
    """A copy of data with one seeded change of a kind: a field dropped or retyped, a
    bracket's i and j swapped, or a number set to 0, -1, 10**k (k <= 6) or "1e5000"."""
    data = copy.deepcopy(data)
    paths = list(_json_paths(data))
    entries = [v for _, v in paths if isinstance(v, dict) and "i" in v and "j" in v]
    if kind == "swap" and entries:
        entry = rng.choice(entries)
        entry["i"], entry["j"] = entry["j"], entry["i"]
        return data
    if kind in ("swap", "number"):
        path, value = rng.choice([(p, v) for p, v in paths if _is_number(v)])
        new = rng.choice(FUZZ_NUMBERS)
        new = new if isinstance(value, str) or new == "1e5000" else int(new)
    else:
        path, value = rng.choice(paths)
        new = rng.choice([x for x in (None, True, 2.5, "2", [2], {"2": 2}) if x != value])
    parent = functools.reduce(operator.getitem, path[:-1], data)
    if kind == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return data


def _fuzz_argv(rng, name, is_spec):
    """A run of each subcommand that reads a file of this kind, with seeded options."""
    eps = f"--eps={rng.choice(['0', '-1', '1/4', *FUZZ_NUMBERS[2:]])}"
    fmt = rng.choice(["table", "json"])
    if is_spec:
        levels = ",".join(str(rng.choice([0, 1, 2, 10 ** 6])) for _ in range(3))
        return [["validate", name], ["quotient", name, eps], ["quotient", name, "--format", fmt],
                ["selection-check", name, f"--levels={levels}"]]
    weights = ",".join(rng.choice(["0", "1", "1/2", "-1", "1e5000"]) for _ in range(3))
    return [["validate", name], ["classify", name, eps],
            ["contract", name, f"--weights={weights}", "--format", fmt]]


def test_seeded_fuzz_of_every_subcommand_exits_with_a_documented_code(tmp_path, capsys,
                                                                      monkeypatch):
    from test_golden_cli import INPUTS

    documents = {**INPUTS}
    for name in loop._BUNDLED:
        with open(loop.bundled_path(name), encoding="utf-8") as fh:
            documents[f"{name}.json"] = json.load(fh)
    rng = random.Random(8)
    runs = [[cmd, *argv] for cmd in ("demo-table1", "demo-lorentz", "demo-hysteresis")
            for argv in ([], ["--format", "json"])]
    runs += [["verify-kepler", "--samples", "2", f"--{param}={rng.choice(FUZZ_NUMBERS)}"]
             for param in ("m", "alpha", "beta") for _ in range(2)]
    monkeypatch.chdir(tmp_path)
    for stem, data in sorted(documents.items()):
        for n, kind in enumerate(FUZZ_KINDS * 2):
            name = f"{n}_{stem}"
            with open(name, "w", encoding="utf-8") as fh:
                json.dump(_mutated(rng, data, kind), fh)
            runs += _fuzz_argv(rng, name, "generators" in data)
    codes = []
    for argv in runs:
        try:
            code, out, err = run(capsys, *argv)
        except Exception as exc:  # any escape is a failure, reported with its input
            pytest.fail(f"{argv} raised {exc!r}")
        assert code in (0, 1, 2, 64) and len(err.splitlines()) <= 1, (argv, code, err)
        assert (code == 0) == (not err) and "Traceback" not in err, (argv, code, err)
        codes.append(code)
    assert {0, 1, 64} <= set(codes), codes
