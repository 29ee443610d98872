"""Inputs, operations and expected outcomes of the three benchmark workloads.

Every input is drawn from the workload seed with the library's public
generators (``metric_rep``, ``benenti_rep``, ``family_rep``,
``random_curvature``, ``random_invertible_matrix``,
``random_symmetric_form``).  The CLI workloads hand the program only the
tensor files written at set-up; ``dense-residuals`` hands it the tensors
read back from such files.

A workload is a list of *strata*.  One round runs one operation from each
stratum, taking the stratum's inputs in turn, so every round has the same
mix of operation kinds and the benchmark can stop between rounds without
skewing that mix.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import killingtensor as kt
from killingtensor import cli as kt_cli
from killingtensor import io as kt_io

WORKLOADS = ("check-cli", "oracle-cli", "dense-residuals")

MODELS = ("sphere", "lorentz", "flat")
KINDS = ("metric", "benenti", "family", "random")
# Inputs per kind and (N, model); metric_rep has no randomness, so one.
PER_KIND = {"metric": 1, "benenti": 10, "family": 10, "random": 10}
# Entry numerator/denominator bounds.  At N = 3, condition3_residual
# stays int64 on Benenti inputs at bound 2 and promotes on all at bound 5
# (a fifth of them at bound 3); check() promotes at N = 5 on Benenti
# inputs at bound 9, never on family inputs at bound 3.
CLI_BOUND = 3
CLIFF_BOUND = 9
ORACLE_POINTS = 3
# The oracle's Fraction arithmetic on large integers slows more than the
# reference kernel when the host slows: over ten runs at kernel medians
# of 3.3-5.0 ms, its ops_per_s, op_p50_ms and op_p90_ms went as the kernel
# time to the power 1.50, 1.27 and 1.32 (+-0.2); check-cli's and
# dense-residuals' went as powers of 0.5-1.2, close enough to 1.
ORACLE_HOST_EXPONENT = 1.35
# Inputs per dense-residuals stratum; a run covers each at least once.
DENSE_INPUTS = 3

S_FORM_PAIRS = tuple(
    (f1, f2)
    for f1 in ("young-a", "split-b", "anti-c", "hook-d")
    for f2 in ("ks2-hook-yin", "ks2-44-both")
)
IDENTITY_NAMES = (
    "symmetrised_bianchi",
    "hook_4_1_1_on_quadratic",
    "hook_6_1_1_on_cubic_yin",
    "hook_6_1_1_on_cubic_yang",
    "hook_8_1_1_on_quartic_yin",
    "hook_8_1_1_on_quartic_yang",
    "projector_decomposition",
)


@dataclass
class Op:
    """One timed operation and the outcome it must produce.

    ``call`` is the timed part.  ``outcome`` maps its result to a value
    compared with ``expected`` after the clock stops; ``reference``, when
    set, computes ``expected`` by the other route before timing starts.
    """

    label: str
    call: Callable[[], Any]
    outcome: Callable[[Any], Any]
    expected: Any = None
    reference: "Callable[[], Any] | None" = None


@dataclass
class Workload:
    name: str
    strata: list[list[Op]]
    files: int = 0
    # Fewest rounds a measured run makes.
    min_rounds: int = 1
    # How operation times follow the host's speed: they grow as the
    # reference kernel's time (see pace.py) to this power.
    host_exponent: float = 1.0

    def round(self, index: int) -> list[Op]:
        return [stratum[index % len(stratum)] for stratum in self.strata]

    def resolve_references(self) -> None:
        for stratum in self.strata:
            for op in stratum:
                if op.reference is not None:
                    op.expected = op.reference()
                    op.reference = None


# -- models and generators -------------------------------------------------


def model_space(name: str, n: int) -> kt.ModelSpace:
    if name == "sphere":
        return kt.ModelSpace(kt.ModelKind.SPHERE, kt.MetricSignature(n, 0))
    if name == "lorentz":
        return kt.ModelSpace(kt.ModelKind.SPHERE, kt.MetricSignature(n - 1, 1))
    return kt.ModelSpace(kt.ModelKind.FLAT, kt.MetricSignature(n, 0))


def model_flags(name: str, n: int) -> list[str]:
    kind = "flat" if name == "flat" else "sphere"
    p, q = (n - 1, 1) if name == "lorentz" else (n, 0)
    return ["--model", kind, "--signature", f"{p},{q}"]


def _nonzero_fraction(rng: random.Random, bound: int) -> Fraction:
    while True:
        value = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        if value:
            return value


def generate(kind: str, model: kt.ModelSpace, rng: random.Random, bound: int):
    """One curvature-form input of ``kind`` for ``model``."""
    n = model.dim
    if kind == "metric":
        return kt.metric_rep(model)
    if kind == "benenti":
        return kt.benenti_rep(model, kt.random_invertible_matrix(n, rng, bound=bound))
    if kind == "family":
        h = kt.random_symmetric_form(n, rng, bound=bound)
        lams = [_nonzero_fraction(rng, bound) for _ in range(3)]
        return kt.family_rep(h, *lams, signature=model.signature)
    return kt.random_curvature(n, rng, bound=bound)


def stream(seed: int, *parts: object) -> random.Random:
    # String seeds hash with SHA-512, so streams are stable across processes.
    return random.Random(":".join(str(p) for p in (seed,) + parts))


def expected_verdict(n: int, model: str, kind: str) -> "bool | None":
    """Known integrability verdict, or None where no pattern settles it.

    Every Killing tensor on a 2-D model (N = 3) is integrable; metric and
    Benenti tensors are integrable on every model and the structured
    family on both sphere models; random curvature tensors are not
    integrable at N >= 4.  The family on the flat model at N >= 4 is
    checked against the other route instead.
    """
    if n == 3 or kind in ("metric", "benenti"):
        return True
    if kind == "family":
        return None if model == "flat" else True
    return False


# -- the CLI in process ----------------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """``killingtensor ARGV`` in this process; returns (status, stdout, stderr)."""
    out, err = _stdio.StringIO(), _stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = kt_cli.main(argv)
    return status, out.getvalue(), err.getvalue()


def _cli_verdict(key: str) -> Callable[[tuple[int, str, str]], "bool | str"]:
    """Verdict from a ``--json`` report; a mismatch with the exit status is an error."""

    def outcome(result: tuple[int, str, str]) -> "bool | str":
        status, stdout, stderr = result
        if status not in (0, 1):
            return f"exit status {status}: {stderr.strip()}"
        verdict = json.loads(stdout)[key]
        if verdict is not (status == 0):
            return f"exit status {status} disagrees with {key}={verdict}"
        return verdict

    return outcome


# -- set-up ----------------------------------------------------------------

DIMS = (3, 4, 5)


def write_cli_inputs(seed: int, workdir: Path, dims: tuple[int, ...],
                     tick: Callable[[], None]) -> list[tuple]:
    """Write the CLI input files (279 at N = 3, 4, 5); returns (N, model, kind, k, path) rows."""
    rows = []
    for n in dims:
        for model_name in MODELS:
            model = model_space(model_name, n)
            for kind in KINDS:
                rng = stream(seed, n, model_name, kind)
                for k in range(PER_KIND[kind]):
                    path = workdir / f"n{n}-{model_name}-{kind}-{k}.json"
                    kt_io.save_tensor(path, generate(kind, model, rng, CLI_BOUND))
                    rows.append((n, model_name, kind, k, path))
                    tick()
    return rows


def cli_workload(name: str, seed: int, workdir: Path, dims: tuple[int, ...],
                 tick: Callable[[], None]) -> Workload:
    """Strata of ``check-cli`` or ``oracle-cli``: one per (N, model, kind)."""
    rows = write_cli_inputs(seed, workdir, dims, tick)
    strata: dict[tuple[int, str, str], list[Op]] = {}
    for n, model_name, kind, k, path in rows:
        label = f"N={n} {model_name} {kind}"
        flags = model_flags(model_name, n)
        expected = expected_verdict(n, model_name, kind)
        if name == "check-cli":
            argv = ["check", str(path), *flags, "--json"]
            op = Op(label, lambda a=argv: run_cli(a), _cli_verdict("integrable"), expected)
            if expected is None:
                op.reference = lambda p=path, m=model_name, n=n, s=k: kt.integrable_oracle(
                    kt_io.load_tensor(p)[0], model_space(m, n), ORACLE_POINTS, seed=s
                ).passes
        else:
            point_seed = stream(seed, "points", path.name).randrange(2**31)
            argv = [
                "oracle", str(path), *flags,
                "--points", str(ORACLE_POINTS), "--seed", str(point_seed), "--json",
            ]
            op = Op(label, lambda a=argv: run_cli(a), _cli_verdict("passes"), expected)
            if expected is None:
                op.reference = lambda p=path, m=model_name, n=n: kt.check(
                    kt_io.load_tensor(p)[0], model_space(m, n)
                ).integrable
        strata.setdefault((n, model_name, kind), []).append(op)
    # Warm-up: the first parse, report and numpy calls of the CLI path.
    warm = [str(rows[0][4]), *model_flags(rows[0][1], rows[0][0]), "--json"]
    if name == "check-cli":
        run_cli(["check", *warm])
    else:
        run_cli(["oracle", *warm, "--points", "1"])
    exponent = ORACLE_HOST_EXPONENT if name == "oracle-cli" else 1.0
    return Workload(name, list(strata.values()), files=len(rows), host_exponent=exponent)


def dense_workload(seed: int, workdir: Path, dims: tuple[int, ...],
                   tick: Callable[[], None]) -> Workload:
    """Library calls on the dense N^8 / N^10 paths.

    Each stratum cycles through its own inputs, and a measured run makes
    enough rounds to call every input, so what the run reaches (the
    peak resident set in particular) depends on the seed only.  The
    tensors are written to files and read back, so the program sees only
    what a file holds.  A round has 30 operations: 10 faster than the 9
    N = 5 form-pair checks and 11 slower, so the median falls in the
    middle of the eight S-operand pairs, away from the faster default
    pair.  The slowest (the N = 5 check at entry bound 9) stays under a
    tenth and the four N = 4 identity suites sit around the 90th
    percentile, so ``op_p90_ms`` falls inside one kind of operation.
    """
    written = 0

    def make(kind: str, model_name: str, n: int, bound: int, tag: str) -> list:
        nonlocal written
        rng = stream(seed, "dense", tag, n, model_name, kind, bound)
        model = model_space(model_name, n)
        out = []
        for _ in range(DENSE_INPUTS):
            path = workdir / f"dense-{written}.json"
            written += 1
            kt_io.save_tensor(path, generate(kind, model, rng, bound))
            out.append(kt_io.load_tensor(path)[0])
            tick()
        return out

    strata: list[list[Op]] = []

    def add(label: str, inputs: list, call, outcome, expected) -> None:
        strata.append([
            Op(label, lambda K=K, i=i: call(K, i), outcome, expected)
            for i, K in enumerate(inputs)
        ])

    def is_zero(tensor) -> bool:
        return tensor.is_zero()

    def integrable(report) -> bool:
        return report.integrable

    # condition3_residual materialises the order-10 residual tensor.  The
    # Benenti inputs at entry bound 5 promote it to object dtype at N = 3;
    # at N = 4 a promoted call takes seconds, too long for this loop.
    cond3 = [(3, m, k, b, 0) for m in MODELS for k, b in (("benenti", 2), ("family", 3))]
    cond3 += [(4, "sphere", "family", 3, 0), (4, "lorentz", "family", 3, 0)]
    cond3 += [(3, "sphere", "benenti", 5, c) for c in range(2)]
    for n, model_name, kind, bound, copy in cond3:
        if n in dims:
            add(f"cond3 N={n} {model_name} {kind} bound {bound}",
                make(kind, model_name, n, bound, f"cond3-{copy}"),
                lambda K, i, m=model_space(model_name, n): kt.condition3_residual(K, m),
                is_zero, True)

    # The identity suite holds for every valid S: random S, sphere and flat.
    for n in (3, 4):
        for model_name in ("sphere", "flat"):
            for copy in range(2 if n in dims else 0):
                inputs = make("random", model_name, n, CLI_BOUND, f"identity-{copy}")
                add(f"identities N={n} {model_name}", [kt.r_to_s(K) for K in inputs],
                    lambda S, i, m=model_space(model_name, n): kt.verify_identity_suite(S, m, rng=i),
                    tuple, IDENTITY_NAMES)

    # S-operand form pairs (at N = 5) on the int64 path, with the default
    # pair on the same inputs as the control.
    top = max(dims)
    sphere = model_space("sphere", top)
    family = make("family", "sphere", top, CLI_BOUND, "pairs")
    for f1, f2 in (("main1", "main2"),) + S_FORM_PAIRS:
        add(f"check N={top} {f1}+{f2}", family,
            lambda K, i, a=f1, b=f2: kt.check(K, sphere, a, b), integrable, True)

    # Benenti inputs drawn at entry bound 9 cross the int64 guards in the
    # default forms at N = 4 and 5; the N = 5 check sets the peak resident set.
    for n, model_name in ((4, "sphere"), (4, "flat"), (5, "sphere")):
        if n in dims:
            add(f"check N={n} {model_name} bound {CLIFF_BOUND}",
                make("benenti", model_name, n, CLIFF_BOUND, "cliff"),
                lambda K, i, m=model_space(model_name, n): kt.check(K, m), integrable, True)

    # Warm-up: the projector-sum cache and the first calls of each path.
    small = model_space("sphere", 3)
    warm = kt.metric_rep(small)
    kt.verify_identity_suite(kt.r_to_s(warm), small)
    tick()
    kt.condition3_residual(warm, small)
    tick()
    kt.check(warm, small, *S_FORM_PAIRS[0])
    return Workload("dense-residuals", strata, files=written, min_rounds=DENSE_INPUTS)


def build(name: str, seed: int, workdir: Path, dims: tuple[int, ...] = DIMS,
          tick: Callable[[], None] = lambda: None) -> Workload:
    """Set up ``name`` at dimensions ``dims``: generate inputs, write files, warm up.

    ``tick`` is called between steps of the set-up (the benchmark samples
    the host speed there).
    """
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "dense-residuals":
        return dense_workload(seed, workdir, dims, tick)
    return cli_workload(name, seed, workdir, dims, tick)
