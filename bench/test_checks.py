"""Each checker of the benchmark must reject a wrong output fed to it.

    python3 -m unittest discover -s bench -p 'test_*.py'

Needs only the standard library: the outputs are written here by hand.
"""

import copy
import json
import unittest
from fractions import Fraction

from checks import (
    CheckFailed,
    check_codimension,
    check_exit,
    check_label,
    check_oracle_report,
    check_rejected_input,
    check_same_algebra,
    check_table1_output,
    check_wrong_binding,
    contraction,
    embedding_missing,
    quotient_constants,
    selection_closed,
    trace_ad,
)

H2_TERMS = [(0, 1, 2, Fraction(1), 0), (0, 2, 1, Fraction(-1), 0), (1, 2, 0, Fraction(1), 1)]
H2_NAMES = ("L", "A1", "A2")
L1_MAP = ((2, 0), (0, 1), (1, 1))


def oracle_report(beta=0.5, alpha=1.0):
    names = ["{H,M1}=0", "{L,A1}=A2", "{M1,M2}=S"] + (["{H,L}=0"] if beta == 0 else [])
    return {
        "params": {"m": 1.0, "alpha": alpha, "beta": beta},
        "identities": [{"name": n, "samples": 30, "max_rel_residual": 1e-9, "pass": True}
                       for n in names],
        "all_pass": True,
        "radial_term": {"variant_conserved": False, "m_beta_variant_max_rel_residual": 0.7},
    }


class LabelChecks(unittest.TestCase):
    def test_right_labels_pass(self):
        check_label("so3", expected="so3", invariant="so3", tr_ad=[0, 0, 0])
        check_label("other", tr_ad=[Fraction(2), 0, 0])

    def test_swapped_label_is_rejected(self):
        with self.assertRaises(CheckFailed):
            check_label("so21", expected="so3")
        with self.assertRaises(CheckFailed):
            check_label("e11", invariant="e2")

    def test_swapped_row_of_demo_table1_is_rejected(self):
        rows = [{"spec": "h2", "labels": ["so3", "e2", "so21"]},
                {"spec": "l1", "labels": ["so3", "heisenberg", "so21"]},
                {"spec": "l2", "labels": ["so3", "abelian3", "so21"]}]
        check_table1_output(json.dumps(rows))
        rows[1]["labels"], rows[2]["labels"] = rows[2]["labels"], rows[1]["labels"]
        with self.assertRaises(CheckFailed):
            check_table1_output(json.dumps(rows))

    def test_unimodular_label_with_nonzero_trace_is_rejected(self):
        # Bianchi V: [X2, X0] = X0, [X2, X1] = X1 has tr ad X2 = 2
        tr = trace_ad({(0, 2, 0): Fraction(-1), (1, 2, 1): Fraction(-1)}, 3)
        self.assertEqual(tr, [0, 0, 2])
        with self.assertRaises(CheckFailed):
            check_label("e11", tr_ad=tr)


class OracleChecks(unittest.TestCase):
    def test_passing_report_passes(self):
        check_oracle_report(oracle_report())
        check_oracle_report(oracle_report(beta=0.0))

    def test_one_failing_identity_is_rejected(self):
        rep = oracle_report()
        rep["identities"][1]["max_rel_residual"] = 3e-4
        with self.assertRaises(CheckFailed):
            check_oracle_report(rep)
        rep = oracle_report()
        rep["identities"][2]["pass"] = False
        with self.assertRaises(CheckFailed):
            check_oracle_report(rep)

    def test_nan_residual_is_rejected(self):
        rep = oracle_report()
        rep["identities"][0]["max_rel_residual"] = float("nan")
        with self.assertRaises(CheckFailed):
            check_oracle_report(rep)

    def test_conserved_radial_variant_is_rejected(self):
        rep = oracle_report()
        rep["radial_term"]["variant_conserved"] = True
        with self.assertRaises(CheckFailed):
            check_oracle_report(rep)

    def test_wrong_binding_reported_as_passing_is_rejected(self):
        rep = oracle_report()
        del rep["radial_term"]
        with self.assertRaises(CheckFailed):
            check_wrong_binding(rep)
        failing = copy.deepcopy(rep)
        failing["all_pass"] = False
        failing["identities"][0].update(max_rel_residual=1.8, **{"pass": False})
        check_wrong_binding(failing)


class LoopChecks(unittest.TestCase):
    def test_codimension_from_offsets(self):
        self.assertEqual(embedding_missing(L1_MAP, H2_NAMES, 8), {("L", 0), ("A1", 0)})
        check_codimension([("L", 0), ("A1", 0)], 2, L1_MAP, H2_NAMES, 8)

    def test_codimension_off_by_one_is_rejected(self):
        with self.assertRaises(CheckFailed):
            check_codimension([("L", 0), ("A1", 0)], 3, L1_MAP, H2_NAMES, 8)
        with self.assertRaises(CheckFailed):
            check_codimension([("L", 0)], 1, L1_MAP, H2_NAMES, 8)

    def test_selection_exponents(self):
        self.assertTrue(selection_closed(H2_TERMS, (0, 0, 0)))
        self.assertTrue(selection_closed(H2_TERMS, (1, 1, 1)))
        self.assertFalse(selection_closed(H2_TERMS, (0, 0, 2)))   # {L, A1} = A2 lands below

    def test_wrong_quotient_constant_is_rejected(self):
        want = quotient_constants(H2_TERMS, (0, 0, 0))
        alg = {"dim": 3, "brackets": [
            {"i": 0, "j": 1, "terms": [{"k": 2, "c": "1", "q": "0"}]},
            {"i": 0, "j": 2, "terms": [{"k": 1, "c": "-1", "q": "0"}]},
            {"i": 1, "j": 2, "terms": [{"k": 0, "c": "1", "q": "1"}]}]}
        check_same_algebra(alg, want, "h2")
        alg["brackets"][2]["terms"][0]["q"] = "2"
        with self.assertRaises(CheckFailed):
            check_same_algebra(alg, want, "h2")

    def test_contraction_defined_by_weights(self):
        so3 = {(0, 1, 2): Fraction(1), (1, 2, 0): Fraction(1), (0, 2, 1): Fraction(-1)}
        half = Fraction(1, 2)
        self.assertEqual(contraction(so3, [half, half, 1]), {(0, 1, 2): {Fraction(0): 1}})
        self.assertIsNone(contraction(so3, [0, 0, 1]))


class CliChecks(unittest.TestCase):
    def test_exit_codes(self):
        check_exit(0, 0)
        check_exit(1, 1, "error: selection not closed\n")
        with self.assertRaises(CheckFailed):
            check_exit(0, 1)
        with self.assertRaises(CheckFailed):
            check_exit(1, 1, "Traceback (most recent call last):\n  ...\nValueError: x\n")

    def test_exit_zero_on_nan_is_rejected(self):
        with self.assertRaises(CheckFailed):
            check_rejected_input(0, "PASS {H,M1}=0  max_rel_residual=0.000e+00\n", "")

    def test_traceback_on_bad_eps_is_rejected(self):
        with self.assertRaises(CheckFailed):
            check_rejected_input(1, "", "Traceback (most recent call last):\n"
                                        "ValueError: Invalid literal for Fraction: 'abc'\n")

    def test_documented_rejection_passes(self):
        check_rejected_input(64, "", "error: beta must be finite\n")


if __name__ == "__main__":
    unittest.main()
