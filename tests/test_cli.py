import json

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
    """Exit 64 with a one-line message, no traceback and no PASS."""
    lines = err.strip().splitlines()
    return (code == 64 and len(lines) == 1 and not lines[0].startswith("Traceback")
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
