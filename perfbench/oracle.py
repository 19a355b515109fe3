"""Correctness oracle for one pipeline result.

Equality of module JSON is deliberately not checked: a change to the
search may pick another representative of the same isomorphism class.
"""

from __future__ import annotations

from crtk.crt_core import CRTModule, crt_isomorphic
from crtk.kunneth import KunnethReport, classical_complex_kunneth


def check_pair(k: int, l: int, outcome: KunnethReport | BaseException,
               expected: CRTModule, split: bool) -> list[str]:
    """Reasons the outcome of pair (k, l) is wrong; empty when it is right.

    `outcome` is the pipeline's report, or the exception it raised.
    `expected` is the printed product table and `split` the recorded flag.
    """
    if isinstance(outcome, BaseException):
        return [f"raised {type(outcome).__name__}: {outcome}"]
    if len(outcome.solutions) != 1:
        return [f"{len(outcome.solutions)} middle classes instead of 1"]
    sol = outcome.solutions[0]
    problems = []
    if crt_isomorphic(sol.middle, expected) is None:
        problems.append("middle is not CRT-isomorphic to the printed product table")
    complex_part = [sol.middle.group("U", n) for n in range(8)]
    if complex_part != classical_complex_kunneth(k, l):
        problems.append("complex part differs from the classical Kunneth formula")
    if sol.split != split:
        problems.append(f"split flag {sol.split}, recorded {split}")
    return problems
