"""Recompute the stored mpmath values of the oracle tests.

Run from the repository root as

    PYTHONPATH=src python tests/make_reference_values.py

It evaluates helpers.mp_gamma_index at each (shape, weight, digits) case of
test_index_core.ORACLE_CASES, helpers.mp_reg_q at each (s, x) case of
test_specfun.HUGE_SHAPE_CASES, helpers.mp_expected_i_hat at each
(shape, weight, n) case of test_bias_analysis.SUBSTITUTION_CASES and
CORNER_CASES and helpers.mp_ghypo_cdf at each (a1, b1, a2, b2, t) case of
test_distributions.CORNER_CASES, and rewrites the GAMMA_INDEX_ORACLE,
REG_GAMMA_Q_ORACLE, EXPECTED_I_HAT_ORACLE and GHYPO_CDF_ORACLE tables at the
end of tests/reference_values.py with the results; the rest of that file is
left as it is.
"""

from __future__ import annotations

from pathlib import Path

from helpers import mp_expected_i_hat, mp_gamma_index, mp_ghypo_cdf, mp_reg_q
from test_bias_analysis import CORNER_CASES, SUBSTITUTION_CASES
from test_distributions import CORNER_CASES as GHYPO_CORNER_CASES
from test_index_core import ORACLE_CASES
from test_specfun import HUGE_SHAPE_CASES

MARKER = "# gamma_index oracle values"
TARGET = Path(__file__).with_name("reference_values.py")


def _table(comment: list[str], name: str, rows) -> list[str]:
    return comment + [f"{name} = {{"] + [f"    {key!r}: {value!r}," for key, value in rows] + ["}"]


def main() -> None:
    head = TARGET.read_text().split(MARKER)[0].rstrip("\n")
    gamma_index = _table(
        [MARKER + ": helpers.mp_gamma_index(shape, weight, dps=digits), keyed by",
         "# (shape, weight, digits); written by make_reference_values.py"],
        "GAMMA_INDEX_ORACLE",
        [(case, mp_gamma_index(*case[:2], dps=case[2])) for case in ORACLE_CASES])
    reg_q = _table(
        ["# reg_gamma_q oracle values: helpers.mp_reg_q(s, x) at 50 digits, keyed by (s, x);",
         "# written by make_reference_values.py"],
        "REG_GAMMA_Q_ORACLE",
        [(case, mp_reg_q(*case)) for case in HUGE_SHAPE_CASES])
    i_hat = _table(
        ["# E[I_hat] oracle values: helpers.mp_expected_i_hat(shape, weight, n) at 25 digits, keyed by",
         "# (shape, weight, n); written by make_reference_values.py"],
        "EXPECTED_I_HAT_ORACLE",
        [(case, mp_expected_i_hat(*case)) for case in SUBSTITUTION_CASES + CORNER_CASES])
    ghypo = _table(
        ["# ghypo_cdf oracle values: helpers.mp_ghypo_cdf(a1, b1, a2, b2, t) at 25 digits, keyed by",
         "# (a1, b1, a2, b2, t); written by make_reference_values.py"],
        "GHYPO_CDF_ORACLE",
        [(case, mp_ghypo_cdf(*case)) for case in GHYPO_CORNER_CASES])
    tables = "\n\n".join("\n".join(lines) for lines in (gamma_index, reg_q, i_hat, ghypo))
    TARGET.write_text(head + "\n\n" + tables + "\n")


if __name__ == "__main__":
    main()
