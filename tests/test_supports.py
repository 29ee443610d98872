"""Residual supports of every form pair, pinned to a recorded table.

``check()`` is run in all 18 (first-condition, second-condition) form
pairs at N = 3, 4 and 5 on the sphere, the (N - 1, 1) sphere and flat
models, for random curvature tensors at entry bounds 3 and 9, Benenti
representatives at bound 9, and, at N = 3 and 4, sums of
Kulkarni-Nomizu products of 32-bit integer forms (``wide_kn``), whose
residuals outgrow int64.  Each record holds both supports and the
number of warnings, or ``UnsupportedForm`` for the wedge-square form on
a flat model.

``tests/data/supports.txt`` was written by ``python tests/test_supports.py``
at the commit before the residual layout moved into the compiled row, and
is never regenerated to make a change pass: a change that alters a
support alters a verdict.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import flat, sphere, wide_kn  # noqa: E402
from killingtensor import (  # noqa: E402
    ConditionForm1,
    ConditionForm2,
    UnsupportedForm,
    benenti_rep,
    check,
    random_curvature,
    random_invertible_matrix,
)

TABLE = Path(__file__).resolve().parent / "data" / "supports.txt"


def _inputs(dim, model):
    yield "random-3", random_curvature(dim, random.Random(dim), bound=3)
    yield "random-9", random_curvature(dim, random.Random(100 + dim), bound=9)
    A = random_invertible_matrix(dim, random.Random(200 + dim), bound=9)
    yield "benenti-9", benenti_rep(model, A)
    if dim <= 4:
        yield "wide-32", wide_kn(dim, random.Random(300 + dim), 32)


def records() -> list[str]:
    """One line per (N, model, input, form1, form2)."""
    lines = []
    for dim in (3, 4, 5):
        models = (("sphere", sphere(dim)), ("lorentz", sphere(dim - 1, 1)), ("flat", flat(dim)))
        for label, model in models:
            for name, K in _inputs(dim, model):
                for form1 in ConditionForm1:
                    for form2 in ConditionForm2:
                        try:
                            report = check(K, model, form1, form2)
                        except UnsupportedForm:
                            outcome = "UnsupportedForm"
                        else:
                            outcome = (
                                f"{report.cond1_support} {report.cond2_support} "
                                f"{len(report.warnings)}"
                            )
                        lines.append(f"{dim} {label} {name} {form1.value} {form2.value} {outcome}")
    return lines


def test_supports_match_the_recorded_table():
    expected = TABLE.read_text().splitlines()
    actual = records()
    assert len(actual) == len(expected) == 594
    mismatches = [(a, e) for a, e in zip(actual, expected) if a != e]
    assert not mismatches, mismatches[:5]


if __name__ == "__main__":
    print("\n".join(records()))
