"""Golden transcript of the exact CLI subcommands.

Every case runs ``loopalg.cli.main()`` in-process, in a directory holding the
input files below, and records its exit code, stdout and stderr; the whole
transcript must match ``tests/golden/cli.txt`` byte for byte.  ``verify-kepler``
is left out because its floating-point residuals may differ between libm
builds.  After an intended change of output, rewrite the golden file with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

from loopalg.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli.txt"


def _term(k, c, q="0"):
    return {"k": k, "c": c, "q": q}


INPUTS = {
    "so3.json": {
        "dim": 3,
        "names": ["X", "Y", "Z"],
        "brackets": [
            {"i": 0, "j": 1, "terms": [_term(2, "1")]},
            {"i": 0, "j": 2, "terms": [_term(1, "-1")]},
            {"i": 1, "j": 2, "terms": [_term(0, "1")]},
        ],
    },
    # the l1 quotient family: {M2,S}=N1, {N1,M2}=eps S, {S,N1}=eps^2 M2
    "family.json": {
        "dim": 3,
        "names": ["M2", "S", "N1"],
        "brackets": [
            {"i": 0, "j": 1, "terms": [_term(2, "1")]},
            {"i": 0, "j": 2, "terms": [_term(1, "-1", "1")]},
            {"i": 1, "j": 2, "terms": [_term(0, "1", "2")]},
        ],
    },
    "bad_jacobi.json": {
        "dim": 3,
        "brackets": [
            {"i": 0, "j": 1, "terms": [_term(2, "1")]},
            {"i": 1, "j": 2, "terms": [_term(1, "1")]},
        ],
    },
    # grade-consistent, but {B,{C,A}} = h*C survives the cyclic sum
    "bad_spec.json": {
        "s": 2,
        "generators": [
            {"name": "A", "grade": 1}, {"name": "B", "grade": 1}, {"name": "C", "grade": 2},
        ],
        "brackets": [
            {"i": 0, "j": 1, "terms": [{"k": 2, "c": "1", "hpow": 0}]},
            {"i": 0, "j": 2, "terms": [{"k": 0, "c": "1", "hpow": 1}]},
        ],
    },
    # a residual over two generators, reported in the order it accumulates
    "bad_spec_mixed.json": {
        "s": 1,
        "generators": [
            {"name": "A", "grade": 0}, {"name": "B", "grade": 1}, {"name": "C", "grade": 1},
        ],
        "brackets": [
            {"i": 0, "j": 1, "terms": [{"k": 2, "c": "1", "hpow": 0}, {"k": 1, "c": "2"}]},
            {"i": 0, "j": 2, "terms": [{"k": 1, "c": "1"}, {"k": 2, "c": "-2"}]},
            {"i": 1, "j": 2, "terms": [
                {"k": 0, "c": "1", "hpow": 2}, {"k": 1, "c": "3", "hpow": 1},
                {"k": 2, "c": "1", "hpow": 1},
            ]},
        ],
    },
    "h2_selected.json": {
        "s": 2,
        "generators": [
            {"name": "L", "grade": 0}, {"name": "A1", "grade": 1}, {"name": "A2", "grade": 1},
        ],
        "brackets": [
            {"i": 0, "j": 1, "terms": [{"k": 2, "c": "1", "hpow": 0}]},
            {"i": 0, "j": 2, "terms": [{"k": 1, "c": "-1", "hpow": 0}]},
            {"i": 1, "j": 2, "terms": [{"k": 0, "c": "1", "hpow": 1}]},
        ],
        "selection": [1, 1, 0],
    },
}

CASES = [
    ["validate", "so3.json"],
    ["validate", "family.json"],
    ["validate", "h2.json"],
    ["validate", "h2_selected.json"],
    ["validate", "bad_jacobi.json"],
    ["validate", "bad_spec.json"],
    ["validate", "bad_spec_mixed.json"],
    ["classify", "so3.json"],
    ["classify", "family.json", "--eps", "0"],
    ["classify", "family.json", "--eps=-1"],
    ["classify", "family.json", "--eps", "1/4"],
    ["classify", "family.json"],
    ["contract", "so3.json", "--weights", "0,1,1"],
    ["contract", "so3.json", "--weights", "1/2,1/2,1/2"],
    ["contract", "so3.json", "--weights", "1,0,0"],
    ["contract", "family.json", "--weights", "0,0,0"],
    ["quotient", "l1.json"],
    ["quotient", "h2.json", "--levels", "1,1,0"],
    ["quotient", "h2_selected.json"],
    ["quotient", "h2.json", "--eps", "0"],
    ["quotient", "l2.json", "--eps=-1/4"],
    ["quotient", "h2.json", "--levels", "0,0,2"],
    ["selection-check", "h2.json", "--levels", "1,1,0"],
    ["selection-check", "h2.json", "--levels", "0,0,2"],
    ["selection-check", "l1.json", "--levels", "0,1,1"],
    ["demo-table1"],
    ["demo-lorentz"],
    ["demo-hysteresis"],
]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def transcript(workdir) -> str:
    """Run every case in both formats from workdir; the text of all results."""
    for name, data in INPUTS.items():
        Path(workdir, name).write_text(json.dumps(data, indent=1), encoding="utf-8")
    blocks = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for case in CASES:
            for fmt in ("table", "json"):
                argv = case + ["--format", fmt]
                code, out, err = _run(argv)
                blocks.append(
                    f"$ loopalg {' '.join(argv)}\nexit {code}\n"
                    f"--- stdout\n{out}--- stderr\n{err}"
                )
    finally:
        os.chdir(cwd)
    return "\n".join(blocks)


def test_cli_transcript_matches_golden(tmp_path):
    assert transcript(tmp_path) == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(transcript(tmp), encoding="utf-8")
