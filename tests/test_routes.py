"""Arithmetic routes and prime counts of the exact engine, pinned to a
recorded table.

Each record is one public call: ``check()`` on entry-bound-9 Benenti
tensors at N = 4 (sphere and flat) and N = 5 (sphere) in every form
pair; ``condition3_residual`` on entry-bound-5 Benenti tensors at N = 3;
and, on ``random_curvature`` at entry bounds 2^40, 2^62 and 2^70 at
N = 3 and 4, ``check()`` in the default forms and in young-a +
ks2-hook-yin, ``condition1_residual`` (every form at N = 3, the default
one at N = 4, where rebuilding a residual from some 900 primes takes a
second or two) and (N = 3 only) ``condition3_residual``.  A record
holds the call's verdict (both supports and the number of warnings, or
``UnsupportedForm``) or its residual tensor (dtype, shape, and a hash
of its scale and of ``tolist()``: the bytes of an object array are
pointers).  It also holds every call of ``Residues.primes`` made
during the call, as (bit length of the bound, primes read): so a record
changes when a step, a sum or an index move takes another route between
int64 and residues modulo primes, or reads another number of primes.

``tests/data/routes.txt`` was written by ``python tests/test_routes.py``
at the commit before products stopped being content-reduced at every
contraction step, and is never regenerated to make a change pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import flat, sphere  # noqa: E402
from killingtensor import (  # noqa: E402
    ConditionForm1,
    ConditionForm2,
    UnsupportedForm,
    benenti_rep,
    check,
    condition1_residual,
    condition3_residual,
    random_curvature,
    random_invertible_matrix,
)
from killingtensor._fastops import Residues  # noqa: E402

TABLE = Path(__file__).resolve().parent / "data" / "routes.txt"
SEEDS = range(3)


@contextlib.contextmanager
def recorded_primes():
    """Every ``Residues.primes`` call while the block runs, as a list of
    ``[bit length of the bound, primes read so far]``."""
    calls = []
    original = Residues.primes

    def primes(self, bound):
        call = [bound.bit_length(), 0]
        calls.append(call)
        for p in original(self, bound):
            call[1] += 1
            yield p

    Residues.primes = primes
    try:
        yield calls
    finally:
        Residues.primes = original


def _verdict(K, model, form1, form2) -> str:
    try:
        report = check(K, model, form1, form2)
    except UnsupportedForm:
        return "UnsupportedForm"
    return f"{report.cond1_support} {report.cond2_support} {len(report.warnings)}"


def _residual(tensor) -> str:
    ints = tensor._ints
    digest = lambda value: hashlib.sha256(repr(value).encode()).hexdigest()[:16]  # noqa: E731
    return f"{ints.dtype} {'x'.join(map(str, ints.shape))} {digest(tensor._scale)} {digest(ints.tolist())}"


def _calls():
    """``(label, call)`` of every record, the call returning its outcome."""
    pairs = [(f1, f2) for f1 in ConditionForm1 for f2 in ConditionForm2]
    for dim, label, model in ((4, "sphere", sphere(4)), (4, "flat", flat(4)), (5, "sphere", sphere(5))):
        for seed in SEEDS:
            K = benenti_rep(model, random_invertible_matrix(dim, random.Random(500 + 10 * dim + seed), bound=9))
            for f1, f2 in pairs:
                yield f"{dim} {label} benenti-9/{seed} check {f1.value} {f2.value}", (
                    lambda K=K, model=model, f1=f1, f2=f2: _verdict(K, model, f1, f2)
                )
    for label, model in (("sphere", sphere(3)), ("lorentz", sphere(2, 1)), ("flat", flat(3))):
        for seed in SEEDS:
            K = benenti_rep(model, random_invertible_matrix(3, random.Random(600 + seed), bound=5))
            yield f"3 {label} benenti-5/{seed} condition3", (
                lambda K=K, model=model: _residual(condition3_residual(K, model))
            )
    for bits in (40, 62, 70):
        for dim in (3, 4):
            model = sphere(dim)
            K = random_curvature(dim, random.Random(700 + bits + dim), bound=1 << bits)
            name = f"{dim} sphere random-2^{bits}"
            defaults = (ConditionForm1.MAIN1, ConditionForm2.MAIN2)
            for f1, f2 in (defaults, (ConditionForm1.YOUNG_A, ConditionForm2.KS2_HOOK_YIN)):
                yield f"{name} check {f1.value} {f2.value}", (
                    lambda K=K, model=model, f1=f1, f2=f2: _verdict(K, model, f1, f2)
                )
            for f1 in ConditionForm1 if dim == 3 else (ConditionForm1.MAIN1,):
                yield f"{name} condition1 {f1.value}", (
                    lambda K=K, model=model, f1=f1: _residual(condition1_residual(K, model, f1))
                )
            if dim == 3:
                yield f"{name} condition3", lambda K=K, model=model: _residual(condition3_residual(K, model))


def records() -> list[str]:
    """One line per call: its label, outcome and ``Residues.primes`` calls."""
    lines = []
    for label, call in _calls():
        with recorded_primes() as primes:
            outcome = call()
        lines.append(f"{label} | {outcome} | {' '.join(f'{bits}:{read}' for bits, read in primes)}")
    return lines


def test_routes_match_the_recorded_table():
    expected = TABLE.read_text().splitlines()
    actual = records()
    assert len(actual) == len(expected) == 207
    mismatches = [(a, e) for a, e in zip(actual, expected) if a != e]
    assert not mismatches, mismatches[:5]


if __name__ == "__main__":
    print("\n".join(records()))
