"""Recompute the stored mpmath values of the gamma index oracle tests.

Run from the repository root as

    PYTHONPATH=src python tests/make_reference_values.py

It evaluates helpers.mp_gamma_index at each (shape, weight, digits) case of
test_index_core.ORACLE_CASES and rewrites the GAMMA_INDEX_ORACLE table at the
end of tests/reference_values.py with the results; the rest of that file is
left as it is.
"""

from __future__ import annotations

from pathlib import Path

from helpers import mp_gamma_index
from test_index_core import ORACLE_CASES

MARKER = "# gamma_index oracle values"
TARGET = Path(__file__).with_name("reference_values.py")


def main() -> None:
    head = TARGET.read_text().split(MARKER)[0].rstrip("\n")
    lines = [
        MARKER + ": helpers.mp_gamma_index(shape, weight, dps=digits), keyed by",
        "# (shape, weight, digits); written by make_reference_values.py",
        "GAMMA_INDEX_ORACLE = {",
    ]
    for alpha, lam, dps in ORACLE_CASES:
        lines.append(f"    ({alpha!r}, {lam!r}, {dps}): {mp_gamma_index(alpha, lam, dps=dps)!r},")
    lines.append("}")
    TARGET.write_text(head + "\n\n" + "\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
