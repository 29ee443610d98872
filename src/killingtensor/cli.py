"""Command-line surface: checking, generation, and representation queries.

Subcommands::

    check TENSOR --model MODEL      decide integrability (exit 0 yes / 1 no)
    oracle TENSOR --model MODEL     pointwise cross-check at rational points
    generate KIND [--model MODEL]   write tensor files (metric|benenti|family|random)
    repinfo FRAME [--N DIM]         hook lengths and irreducible dimensions
    lr FRAME1 FRAME2                Littlewood-Richardson decomposition
    identities [--N] [--samples]    self-test of the operator identity suite

Exit codes: 0 = property holds, 1 = property fails, 2 = input error or out of memory.
Reports go to standard output, diagnostics to standard error; malformed
input never produces a traceback.  All randomness is seed-parameterized
and the seed is recorded in generated-file metadata.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from . import io as kio
from .curvature import (
    SymmetricForm,
    benenti_rep,
    family_rep,
    metric_rep,
    r_to_s,
    random_curvature,
    random_invertible_matrix,
    random_symmetric_form,
)
from ._linalg import determinant
from ._util import random_fraction
from .errors import IdentityViolation, InvalidArgument, SamplingFailure
from .integrability import check, condition3_holds, verify_identity_suite
from .models import ModelSpace
from .oracle import integrable_oracle
from .symgroup import YoungFrame, lr_decompose
from .tensor import Tensor

__all__ = ["main", "build_parser"]

_GENERATOR_KINDS = ("metric", "benenti", "family", "random")

# Largest frame (boxes) of repinfo and lr, and --N of repinfo: Python
# prints ints of up to 4300 digits.  An n-box frame's hook product is at
# most n! (2568 digits at n = 1000, 5736 at 2000) and its GL(N) dimension
# at most (N + n)^n / sqrt(n!) (under 3722 digits at N = 10^5, n = 1000).
_MAX_FRAME_BOXES = 1000
_MAX_SPACE_DIM = 10**5

# Largest --points of oracle: integrable_oracle draws every sub-seed up
# front and keeps every point for its report.  At the cap it took 4.5 s
# and 51 MiB max RSS at N = 5, and 30 s and 58 MiB at N = 8 (2-vCPU VM).
_MAX_ORACLE_POINTS = 10_000

# Largest --samples · max(N, 5)^8 of identities, whose largest arrays grow
# as N^8: 100 samples at N <= 5, 23 at N = 6, 6 at N = 7 and 2 at N = 8.
# At the cap it took 2.7 s at N = 5, 3.2 s at N = 6, 2.9 s at N = 7 and
# 4.3 s in 92 MiB max RSS at N = 8 (2-vCPU VM; medians of five runs at
# N = 5 and 8, one run each at N = 6 and 7).
_MAX_IDENTITY_COST = 100 * 5**8

# Largest --N of identities: one sample took 2.5 s and 97 MiB max RSS
# at N = 8, 7.3 s and 214 MiB at N = 9, and 21.0 s and 493 MiB at
# N = 10 (2-vCPU VM); N = 20 ran out of memory.
_MAX_IDENTITY_DIM = 8

# Largest --bound of oracle, generate and identities: the cost of every
# exact step grows with the drawn rationals' bit lengths.  identities
# --N 5 --samples 1 took 1.5 s at the cap (0.1 s at 9, 137 s at 2^32), and
# oracle --N 5 --points 10000 7.0 s (4.1 s at 9), on a 2-vCPU VM.
_MAX_BOUND = 1000


# -- shared argument plumbing -----------------------------------------


def _check_cap(flag: str, value: "int | None", cap: int) -> None:
    if value is not None and value > cap:
        raise InvalidArgument(f"{flag} {value} is over the cap of {cap}")


def _add_model_flags(parser: argparse.ArgumentParser, *, required: bool) -> None:
    parser.add_argument(
        "--model",
        default=None if required else "sphere",
        required=required,
        help="'sphere' or 'flat' (with --N/--signature), a descriptor "
        "file path, or inline JSON",
    )
    parser.add_argument("--N", type=int, default=None, help="ambient dimension")
    parser.add_argument(
        "--signature",
        default=None,
        metavar="P,Q",
        help="metric signature as 'p,q' (default Euclidean)",
    )


def _parse_signature_flag(text: str) -> list[int]:
    parts = [p for p in text.replace("(", " ").replace(")", " ").replace(",", " ").split() if p]
    try:
        values = [int(p) for p in parts]
    except ValueError as exc:
        raise InvalidArgument(f"--signature expects integers 'p,q', got {text!r}") from exc
    if len(values) != 2:
        raise InvalidArgument(f"--signature expects exactly two integers, got {text!r}")
    return values


def _resolve_model(args: argparse.Namespace) -> ModelSpace:
    text = args.model
    shorthand = text.strip().lower() if isinstance(text, str) else ""
    if shorthand in ("sphere", "flat"):
        doc: dict = {"kind": shorthand}
        if args.N is not None:
            doc["N"] = args.N
        if args.signature is not None:
            doc["signature"] = _parse_signature_flag(args.signature)
        if "N" not in doc and "signature" not in doc:
            raise InvalidArgument(f"--model {shorthand} needs --N or --signature")
        return kio.parse_model_descriptor(doc)
    model = kio.parse_model_descriptor(text)
    if args.N is not None and args.N != model.dim:
        raise InvalidArgument(f"--N {args.N} conflicts with model dimension {model.dim}")
    signature = (model.signature.p, model.signature.q)
    if args.signature is not None and tuple(_parse_signature_flag(args.signature)) != signature:
        raise InvalidArgument(f"--signature {args.signature} conflicts with model signature {signature}")
    return model


def _frame_label(frame: YoungFrame) -> str:
    return "(" + ",".join(str(r) for r in frame.rows) + ")"


def _load_form_tensor(path: str, model: ModelSpace):
    # The shape is checked before the class: validating a large tensor
    # that the model would reject anyway is wasted work.
    tensor, form, metadata = kio.read_tensor_document(path)
    if form is None:
        raise InvalidArgument(
            f"tensor file {path} does not declare a form; add \"form\": \"R\" or \"S\""
        )
    if tensor.dim != model.dim:
        raise InvalidArgument(
            f"tensor dimension {tensor.dim} does not match model dimension {model.dim}"
        )
    return kio.wrap_tensor(tensor, form), metadata


# -- check -------------------------------------------------------------


def cmd_check(args: argparse.Namespace) -> int:
    model = _resolve_model(args)
    tensor, _metadata = _load_form_tensor(args.tensor, model)
    report = check(tensor, model, form1=args.form1, form2=args.form2)
    if args.json:
        print(json.dumps(kio.report_to_document(report), indent=2))
    else:
        sig = report.signature
        sig_text = f"({sig[0]},{sig[1]})" if sig is not None else "custom"
        print(f"model: {report.model_kind} {sig_text}, ambient dimension {report.dim}")
        print(f"forms: condition 1 via {report.forms_used[0]}, condition 2 via {report.forms_used[1]}")
        for label, zero, support in (
            ("condition 1", report.cond1_zero, report.cond1_support),
            ("condition 2", report.cond2_zero, report.cond2_support),
        ):
            status = "zero" if zero else f"nonzero (canonical support {support})"
            print(f"{label} residual: {status}")
        for note in report.warnings:
            print(f"note: {note}")
        print(f"integrable: {'yes' if report.integrable else 'no'}")
        print(f"elapsed: {report.elapsed_seconds:.3f} s")
    return 0 if report.integrable else 1


# -- oracle ------------------------------------------------------------


def cmd_oracle(args: argparse.Namespace) -> int:
    if args.points < 1:
        raise InvalidArgument("--points must be at least 1")
    _check_cap("--points", args.points, _MAX_ORACLE_POINTS)
    _check_cap("--bound", args.bound, _MAX_BOUND)
    model = _resolve_model(args)
    tensor, _metadata = _load_form_tensor(args.tensor, model)
    report = integrable_oracle(
        tensor, model, num_points=args.points, seed=args.seed, bound=args.bound
    )
    if args.json:
        print(json.dumps(kio.oracle_report_to_document(report), indent=2))
    else:
        sig = report.signature
        print(f"model: {report.model_kind} ({sig[0]},{sig[1]}), ambient dimension {report.dim}")
        print(f"points: {report.num_points}, seed: {report.seed}")
        for c, witness in enumerate(report.witnesses):
            if witness is None:
                print(f"condition {c + 1} residual: zero at all points")
                continue
            print(f"condition {c + 1} residual: nonzero (first failure at point {witness})")
            coords = ", ".join(map(str, kio.format_vector(report.points[witness].x)))
            print(f"  witness point {witness}: x = ({coords})")
        print("per-point residual supports (conditions 1, 2, 3):")
        for index, row in enumerate(report.point_supports):
            print(f"  point {index}: {row[0]} {row[1]} {row[2]}")
        print(f"verdict: {'pass' if report.passes else 'fail'}")
    return 0 if report.passes else 1


# -- generate ----------------------------------------------------------


def _parse_rows(text: str, dim: int, what: str) -> list[list[Fraction]]:
    raw = kio._parse_json(text, what)
    if not isinstance(raw, list) or len(raw) != dim or any(
        not isinstance(row, list) or len(row) != dim for row in raw
    ):
        raise InvalidArgument(f"{what} must be a {dim}x{dim} list of rows")
    return [[kio.parse_rational(v) for v in row] for row in raw]


def _format_rows(matrix: Tensor) -> list:
    return [[kio._format_scaled(v, matrix._scale) for v in row] for row in matrix._ints.tolist()]


def _nonzero_fraction(rng: random.Random, bound: int) -> Fraction:
    while True:
        value = random_fraction(rng, bound)
        if value != 0:
            return value


def cmd_generate(args: argparse.Namespace) -> int:
    _check_cap("--bound", args.bound, _MAX_BOUND)
    model = _resolve_model(args)
    rng = random.Random(args.seed)
    metadata: dict = {
        "generator": args.kind,
        "seed": args.seed,
        "model": kio.model_to_document(model),
    }
    if args.kind == "metric":
        result = metric_rep(model)
    elif args.kind == "benenti":
        if args.A is None:
            A = random_invertible_matrix(model.dim, rng, bound=args.bound)
        elif args.A.strip().lower() == "identity":
            A = Tensor.from_nested(
                [[Fraction(int(i == j)) for j in range(model.dim)] for i in range(model.dim)]
            )
        else:
            rows = _parse_rows(args.A, model.dim, "--A")
            if determinant(rows) == 0:
                raise InvalidArgument("--A must be invertible (determinant is zero)")
            A = Tensor.from_nested(rows)
        metadata["A"] = _format_rows(A)
        result = benenti_rep(model, A)
    elif args.kind == "family":
        if args.h is None:
            h = random_symmetric_form(model.dim, rng, bound=args.bound)
        else:
            h = SymmetricForm(Tensor.from_nested(_parse_rows(args.h, model.dim, "--h")))
        lams = [
            kio.parse_rational(flag) if flag is not None else _nonzero_fraction(rng, args.bound)
            for flag in (args.lam0, args.lam1, args.lam2)
        ]
        metadata["h"] = _format_rows(h.tensor)
        metadata["lambdas"] = [kio.format_rational(v) for v in lams]
        result = family_rep(h, lams[0], lams[1], lams[2], signature=model.signature)
    elif args.kind == "random":
        result = random_curvature(model.dim, rng, bound=args.bound)
    else:  # pragma: no cover - argparse restricts choices
        raise InvalidArgument(f"unknown generator kind {args.kind!r}")
    doc = kio.tensor_to_document(result, metadata=metadata)
    # Refuse, with the reader's message, a document check would refuse.
    kio.document_to_tensor(doc)
    text = kio.format_document(doc)
    if args.out is not None:
        try:
            Path(args.out).write_text(text + "\n", encoding="utf-8")
        except OSError as exc:
            raise InvalidArgument(f"cannot write {args.out}: {exc}") from exc
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


# -- representation-theory queries ------------------------------------


def _parse_frame(text: str) -> YoungFrame:
    frame = YoungFrame.from_text(text)
    if frame.size > _MAX_FRAME_BOXES:
        raise InvalidArgument(f"frame has {frame.size} boxes, over the cap of {_MAX_FRAME_BOXES}")
    return frame


def cmd_repinfo(args: argparse.Namespace) -> int:
    if args.N is not None and args.N < 1:
        raise InvalidArgument("--N must be at least 1")
    _check_cap("--N", args.N, _MAX_SPACE_DIM)
    frame = _parse_frame(args.frame)
    print(f"frame {_frame_label(frame)}: {frame.size} boxes")
    print("hook lengths:")
    for row, length in enumerate(frame.rows):
        print("  " + " ".join(str(frame.hook_length(row, col)) for col in range(length)))
    print(f"hook product: {frame.hook_product()}")
    print(f"symmetric group irreducible dimension: {frame.sym_irrep_dim()}")
    if args.N is not None:
        print(f"GL({args.N}) irreducible dimension: {frame.gl_irrep_dim(args.N)}")
    return 0


def cmd_lr(args: argparse.Namespace) -> int:
    frame1 = _parse_frame(args.frame1)
    frame2 = _parse_frame(args.frame2)
    decomposition = lr_decompose(frame1, frame2)
    terms = sorted(decomposition.items(), key=lambda item: item[0].rows, reverse=True)
    pieces = [
        (f"{mult}*{_frame_label(shape)}" if mult > 1 else _frame_label(shape))
        for shape, mult in terms
    ]
    print(f"{_frame_label(frame1)} x {_frame_label(frame2)} = " + " + ".join(pieces))
    for shape, mult in terms:
        print(f"  {_frame_label(shape)}  multiplicity {mult}")
    return 0


# -- identity self-test ------------------------------------------------


def cmd_identities(args: argparse.Namespace) -> int:
    if args.N < 2:
        raise InvalidArgument("--N must be at least 2")
    if args.samples < 1:
        raise InvalidArgument("--samples must be at least 1")
    _check_cap("--bound", args.bound, _MAX_BOUND)
    rng = random.Random(args.seed)
    sphere = kio.parse_model_descriptor({"kind": "sphere", "N": args.N})
    flat = kio.parse_model_descriptor({"kind": "flat", "N": args.N})
    # Past the model's own cap, the suite's cost caps N, then the samples.
    _check_cap("--N", args.N, _MAX_IDENTITY_DIM)
    cap = _MAX_IDENTITY_COST // max(args.N, 5) ** 8
    if args.samples > cap:
        raise InvalidArgument(f"--samples {args.samples} is over the cap of {cap} at --N {args.N}")
    failures = 0
    for index in range(args.samples):
        S = r_to_s(random_curvature(args.N, rng, bound=args.bound))
        for model in (sphere, flat):
            try:
                verify_identity_suite(S, model, rng=rng.randrange(2**32))
            except IdentityViolation as exc:
                print(f"sample {index} ({model.kind.value} model): {exc}")
                failures += 1
        h = random_symmetric_form(args.N, rng, bound=args.bound)
        member = family_rep(
            h,
            _nonzero_fraction(rng, args.bound),
            _nonzero_fraction(rng, args.bound),
            _nonzero_fraction(rng, args.bound),
            signature=sphere.signature,
        )
        if not condition3_holds(member, sphere):
            print(f"sample {index}: third-condition redundancy failed on a family member")
            failures += 1
    checked = args.samples
    if failures == 0:
        print(
            f"all identities verified: {checked} samples at N={args.N} "
            "(sphere and flat contractions, plus third-condition redundancy)"
        )
        return 0
    print(f"{failures} identity failure(s) over {checked} samples at N={args.N}")
    return 1


# -- parser ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="killingtensor",
        description="Exact integrability tests for valence-two Killing "
        "tensors on constant-curvature model spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser(
        "check", help="decide integrability of a tensor file on a model space"
    )
    p_check.add_argument("tensor", help="tensor file (JSON, form 'R' or 'S')")
    _add_model_flags(p_check, required=True)
    p_check.add_argument(
        "--form1",
        default="main1",
        help="first-condition form: main1|young-a|split-b|anti-c|hook-d|omega",
    )
    p_check.add_argument(
        "--form2",
        default="main2",
        help="second-condition form: main2|ks2-hook-yin|ks2-44-both",
    )
    p_check.add_argument("--json", action="store_true", help="machine-readable report")
    p_check.set_defaults(func=cmd_check)

    p_oracle = sub.add_parser(
        "oracle", help="pointwise integrability cross-check at random rational points"
    )
    p_oracle.add_argument("tensor", help="tensor file (JSON, form 'R' or 'S')")
    _add_model_flags(p_oracle, required=True)
    p_oracle.add_argument("--points", type=int, default=10, help="number of sample points")
    p_oracle.add_argument("--seed", type=int, default=0, help="sampling seed")
    p_oracle.add_argument("--bound", type=int, default=9, help="coordinate numerator/denominator bound")
    p_oracle.add_argument("--json", action="store_true", help="machine-readable report")
    p_oracle.set_defaults(func=cmd_oracle)

    p_gen = sub.add_parser("generate", help="write a tensor file in curvature form")
    p_gen.add_argument("kind", choices=_GENERATOR_KINDS)
    _add_model_flags(p_gen, required=False)
    p_gen.add_argument("--seed", type=int, default=0, help="generation seed")
    p_gen.add_argument("--bound", type=int, default=9, help="entry numerator/denominator bound")
    p_gen.add_argument("--out", default=None, help="output path (default: stdout)")
    p_gen.add_argument(
        "--A", default=None, help="benenti endomorphism: 'identity' or a JSON row list"
    )
    p_gen.add_argument("--h", default=None, help="family symmetric form as a JSON row list")
    p_gen.add_argument("--lam0", default=None, help="family coefficient of g*g (rational)")
    p_gen.add_argument("--lam1", default=None, help="family coefficient of h*g (rational)")
    p_gen.add_argument("--lam2", default=None, help="family coefficient of h*h (rational)")
    p_gen.set_defaults(func=cmd_generate)

    p_rep = sub.add_parser("repinfo", help="hook lengths and irreducible dimensions")
    p_rep.add_argument("frame", help="partition, e.g. '(2,2)'")
    p_rep.add_argument("--N", type=int, default=None, help="GL dimension to evaluate")
    p_rep.set_defaults(func=cmd_repinfo)

    p_lr = sub.add_parser("lr", help="Littlewood-Richardson decomposition of two shapes")
    p_lr.add_argument("frame1", help="partition, e.g. '(2)'")
    p_lr.add_argument("frame2", help="partition, e.g. '(2)'")
    p_lr.set_defaults(func=cmd_lr)

    p_id = sub.add_parser(
        "identities", help="run the operator identity suite on random inputs"
    )
    p_id.add_argument("--N", type=int, default=3, help="ambient dimension (>= 2)")
    p_id.add_argument("--samples", type=int, default=10, help="number of random tensors")
    p_id.add_argument("--seed", type=int, default=0, help="sampling seed")
    p_id.add_argument("--bound", type=int, default=9, help="entry numerator/denominator bound")
    p_id.set_defaults(func=cmd_identities)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args keeps no state between calls,
    # and help text is formatted (terminal width included) when printed.
    return build_parser()


def main(argv: "Sequence[str] | None" = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (None, 0) else 2
    try:
        return args.func(args)
    except (InvalidArgument, SamplingFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
