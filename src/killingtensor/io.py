"""File formats: tensor documents, model descriptors, report serialization.

Tensor document (JSON): ``{"dim": int, "order": int, "entries":
[{"idx": [0-based indices], "val": "p/q" | integer}], "form": "R" |
"S" (optional), "metadata": {...} (optional)}``; components not listed
are zero, and of a repeated ``idx`` the last record wins.  Index items
must be JSON integers: a boolean, a float or a numeral string is a
malformed record.  The records are read in one vectorised pass: their
indices become one int64 array of flat positions, and each distinct
value is parsed once, straight to a reduced numerator and denominator.
Untrusted documents are bounded: at most 32 slots and 2^24 entries, and
at most 256 bits both for the lcm of the value denominators and for the
largest value rescaled to it.  Larger documents are rejected with
InvalidArgument (exit status 2 in the CLI), and so are tensor and model
files over 16 MiB, before any of the text is decoded.  Documents are written
(:func:`format_document`) exactly as ``json.dumps(doc, indent=2)`` would
write them, so files are byte-stable.

Model descriptor: ``{"N": int, "signature": [p, q], "kind": "sphere" |
"flat", "u": [rationals] (optional)}``, with N = p + q at most 64 and
``u`` a list of N values of at most 256 bits each; a malformed or
out-of-range descriptor raises InvalidArgument.  ``check``/``oracle`` reports
serialize to plain dictionaries with verdicts, residual support
counts, forms used and timing.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from itertools import chain
from pathlib import Path
from typing import Any, Mapping, NoReturn, Union

import numpy as np

from ._fastops import integer_array
from .curvature import CurvatureTensor, SymCurvatureTensor
from .errors import InvalidArgument
from .integrability import IntegrabilityReport
from .models import ModelKind, ModelSpace
from .oracle import OracleReport
from .tensor import MetricSignature, Tensor, _rational_pair, as_scalar

__all__ = [
    "parse_rational",
    "format_rational",
    "format_vector",
    "tensor_to_document",
    "document_to_tensor",
    "wrap_tensor",
    "format_document",
    "save_tensor",
    "read_tensor_document",
    "load_tensor",
    "parse_model_descriptor",
    "model_to_document",
    "report_to_document",
    "oracle_report_to_document",
]

FormTensor = Union[CurvatureTensor, SymCurvatureTensor, Tensor]

# Largest shape a tensor document may declare.  The entry cap is above
# 5^10, the order-10 residual at N = 5, the largest tensor the library
# builds; the slot cap keeps within numpy's limit on array dimensions.
_MAX_ENTRIES = 1 << 24
_MAX_ORDER = 32

# Largest bit length of a tensor document's values, taken both for the
# lcm of their denominators and for the largest numerator rescaled to
# that lcm: the integer image the library computes on.  check() time
# grows about quadratically with it (an N = 4 file at 13 229 bits took
# 26.9 s).  Every generator output at entry bound <= 50 and N <= 5 stays
# within 138 bits of lcm and 154 bits of image (Benenti inputs), so the
# cap leaves about 100 bits of room.  At the cap (255-bit lcm and
# image), check() in the default forms on a generic Kulkarni-Nomizu
# product took 0.06 s at N = 4 and 0.53 s at N = 5 on a 2-vCPU VM.
_MAX_BITS = 256

# Largest model dimension a descriptor may declare: the largest dim of
# an order-4 tensor document under _MAX_ENTRIES (64^4 = 2^24).  Models
# build dim-sized arrays, so an unbounded N could exhaust memory.
_MAX_MODEL_DIM = 64

# Largest tensor or model file read, in bytes.  On the writer's layout
# json.loads peaks at about 3.2 bytes per byte of text (5.9 MB for a
# 1.8 MB N = 12 file), and compact JSON costs more per byte, so a parse
# at the cap stays near 50 MiB.  A dense random curvature file at the
# default generate bound 9 takes about 106 bytes per record, with
# (N (N - 1))^2 records: up to N = 20 (15.4 MB) is admitted.
_MAX_FILE_BYTES = 1 << 24

# Bytes read at a time: a device or FIFO has no size to check first.
_READ_CHUNK = 1 << 16

_INTEGER = re.compile(r"\s*[+-]?[0-9]{1,9}\s*")


def parse_rational(value: object) -> Fraction:
    """Exact rational from an int, a Fraction or a string ``"p"`` / ``"p/q"``."""
    return as_scalar(value)


def format_rational(value: Fraction) -> "int | str":
    """Integers stay integers; other rationals become ``"p/q"`` strings."""
    value = Fraction(value)
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def _format_scaled(value: int, scale: Fraction) -> "int | str":
    """``format_rational(scale * value)`` for an int, with no Fraction."""
    numerator = scale.numerator * value
    common = math.gcd(numerator, scale.denominator)
    if common == scale.denominator:
        return numerator // common
    return f"{numerator // common}/{scale.denominator // common}"


def format_vector(vector: Tensor) -> list:
    """The entries of an order-1 tensor as :func:`format_rational` gives
    them, read from its integer image and scale."""
    return [_format_scaled(v, vector._scale) for v in vector._ints.tolist()]


def _form_name(tensor: FormTensor) -> "str | None":
    if isinstance(tensor, CurvatureTensor):
        return "R"
    if isinstance(tensor, SymCurvatureTensor):
        return "S"
    return None


def tensor_to_document(
    tensor: FormTensor,
    *,
    metadata: "Mapping[str, Any] | None" = None,
) -> dict:
    """Sparse JSON-ready document; zero components are omitted."""
    form = _form_name(tensor)
    plain = tensor.tensor if form is not None else tensor
    if not isinstance(plain, Tensor):
        raise InvalidArgument(
            "expected a Tensor, CurvatureTensor or SymCurvatureTensor, got "
            + type(tensor).__name__
        )
    ints, scale = plain._ints, plain._scale
    entries = []
    # A zero has no entries, and the mask would expand its broadcast image.
    if not plain.is_zero():
        nonzero = ints != 0
        # Entries in C order of idx; each distinct value is formatted once.
        formatted: dict = {}
        for idx, value in zip(np.argwhere(nonzero).tolist(), ints[nonzero].tolist()):
            text = formatted.get(value)
            if text is None:
                text = formatted[value] = _format_scaled(value, scale)
            entries.append({"idx": idx, "val": text})
    doc: dict = {"dim": plain.dim, "order": plain.order, "entries": entries}
    if form is not None:
        doc["form"] = form
    if metadata:
        doc["metadata"] = dict(metadata)
    return doc


def document_to_tensor(doc: Mapping[str, Any]) -> tuple[Tensor, "str | None", dict]:
    """Parse a tensor document; returns (tensor, form, metadata).

    Shapes and values over the caps in the module docstring raise
    InvalidArgument.  The symmetry class named by ``form`` is *not*
    enforced here — use :func:`wrap_tensor` for that.
    """
    if not isinstance(doc, Mapping):
        raise InvalidArgument("tensor document must be a mapping")
    try:
        dim = int(doc["dim"])
        order = int(doc["order"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidArgument(f"tensor document needs integer 'dim' and 'order': {exc}") from exc
    if dim < 1 or order < 0:
        raise InvalidArgument(f"invalid tensor shape: dim={dim}, order={order}")
    if order > _MAX_ORDER or dim**order > _MAX_ENTRIES:
        raise InvalidArgument(
            f"tensor shape dim={dim}, order={order} is too large: at most "
            f"{_MAX_ORDER} slots and {_MAX_ENTRIES} entries are accepted"
        )
    entries = doc.get("entries", [])
    if not isinstance(entries, list):
        raise InvalidArgument("'entries' must be a list of {idx, val} records")
    records = _read_records(entries, dim, order)
    if records is None:
        _raise_first_bad_record(entries, dim, order)
    positions, raws, pairs = records
    form = doc.get("form")
    if form is not None and form not in ("R", "S"):
        raise InvalidArgument(f"unknown tensor form {form!r}; expected 'R' or 'S'")
    metadata = doc.get("metadata") or {}
    if not isinstance(metadata, dict):
        raise InvalidArgument("'metadata' must be a mapping")
    lcm, images, top = _integer_images(pairs)
    # numpy does not order repeated fancy-index writes, so the last record
    # listing each position is picked out explicitly.
    cells, last = np.unique(positions[::-1], return_index=True)
    listed = list(map(images.__getitem__, raws))
    values = integer_array(listed, top)
    ints = np.zeros(dim**order, dtype=values.dtype)
    ints[cells] = values[len(listed) - 1 - last]
    return Tensor._from_ints(ints.reshape((dim,) * order), Fraction(1, lcm), dim), form, metadata


def _read_records(
    entries: list, dim: int, order: int
) -> "tuple[np.ndarray, list, dict] | None":
    """The flat position and raw value of every record, and the reduced
    (numerator, denominator) pair of each distinct value, in one
    vectorised pass; None if any record is malformed or out of range.

    Index items must be exactly ``int``: numpy would take True as 1 and
    truncate 1.5 to 1.  Values are interned on the raw value, which is
    safe because only str, int and Fraction are admitted and a str
    equals neither of the others, while an int and a Fraction that are
    equal parse to the same pair.
    """
    try:
        indices = [record["idx"] for record in entries]
        raws = [record["val"] for record in entries]
    except (KeyError, TypeError):
        return None
    if not (
        {list}.issuperset(map(type, indices))
        and {order}.issuperset(map(len, indices))
        and {str, int, Fraction}.issuperset(map(type, raws))
    ):
        return None
    items = list(chain.from_iterable(indices))
    if not {int}.issuperset(map(type, items)):
        return None
    try:
        flat = np.fromiter(items, np.int64, len(items))
    except OverflowError:
        return None
    if flat.size and (flat.min() < 0 or flat.max() >= dim):
        return None
    strides = dim ** np.arange(order - 1, -1, -1, dtype=np.int64)
    positions = flat.reshape(len(entries), order) @ strides
    pairs = dict.fromkeys(raws)
    for raw in pairs:
        pair = _rational_pair(raw)
        if pair is None:
            return None
        pairs[raw] = pair
    return positions, raws, pairs


def _raise_first_bad_record(entries: list, dim: int, order: int) -> NoReturn:
    """Raise the message of the first record :func:`_read_records` refuses.

    Records are checked in order, each for its form, its length, its
    range and then its value, so a document's message is that of its
    first bad record and the first check that record fails.
    """
    for record in entries:
        try:
            idx = record["idx"]
            raw = record["val"]
        except (KeyError, TypeError) as exc:
            raise InvalidArgument(f"malformed entry record {record!r}: {exc}") from exc
        if type(idx) is not list or not all(type(i) is int for i in idx):
            raise InvalidArgument(
                f"malformed entry record {record!r}: 'idx' must be a list of integers"
            )
        if len(idx) != order:
            raise InvalidArgument(
                f"entry index {idx} has length {len(idx)}, expected order {order}"
            )
        if any(i < 0 or i >= dim for i in idx):
            raise InvalidArgument(f"entry index {idx} out of range for dim {dim}")
        if type(raw) not in (str, int, Fraction) or _rational_pair(raw) is None:
            as_scalar(raw)  # raises its message for all but subclasses of these
            raise InvalidArgument(
                f"expected an exact rational scalar (Fraction, int, or 'p/q' string), "
                f"got {type(raw).__name__}"
            )
    raise AssertionError("every record is well formed")


def _integer_images(pairs: dict) -> tuple[int, dict, int]:
    """The lcm of the denominators of the (numerator, denominator) values
    of ``pairs``, each value rescaled to it under its key, and the
    largest magnitude among those.

    Raises InvalidArgument when either is wider than ``_MAX_BITS``.  The
    lcm grows one distinct denominator at a time and is checked at each
    step, so it never grows far past the cap, however many large coprime
    denominators a document lists.
    """
    lcm = 1
    for denominator in {q for _, q in pairs.values()}:
        lcm = math.lcm(lcm, denominator)
        if lcm.bit_length() > _MAX_BITS:
            raise InvalidArgument(
                f"tensor values need a common denominator of more than "
                f"{_MAX_BITS} bits; at most {_MAX_BITS} are accepted"
            )
    images = {raw: p * (lcm // q) for raw, (p, q) in pairs.items()}
    top = max(map(abs, images.values()), default=0)
    if top.bit_length() > _MAX_BITS:
        raise InvalidArgument(
            f"tensor values rescaled to their common denominator reach "
            f"{top.bit_length()} bits; at most {_MAX_BITS} are accepted"
        )
    return lcm, images, top


def wrap_tensor(tensor: Tensor, form: "str | None") -> FormTensor:
    """Wrap a raw tensor in the symmetry class named by ``form``.

    Class invariants are validated on construction; violations surface
    as :class:`~killingtensor.errors.InvalidArgument` naming the failed
    symmetry.
    """
    if form == "R":
        return CurvatureTensor(tensor)
    if form == "S":
        return SymCurvatureTensor(tensor)
    if form is None:
        return tensor
    raise InvalidArgument(f"unknown tensor form {form!r}; expected 'R' or 'S'")


def format_document(doc: Mapping[str, Any]) -> str:
    """The text of a :func:`tensor_to_document` document, byte for byte
    ``json.dumps(doc, indent=2)``.

    With ``indent`` set, ``json`` runs its pure-Python encoder, which
    took about 2 ms for an N = 5 curvature tensor on a 2-vCPU VM.  Here
    the entries are laid out from one template per record; every other
    member goes through ``json.dumps`` one level down.  That level is two
    more spaces after each newline, and ``json`` output has no newline
    but those, as it escapes control characters inside strings.
    """
    members = []
    for key, value in doc.items():
        if key == "entries":
            text = _format_entries(value, doc["order"])
        else:
            text = json.dumps(value, indent=2).replace("\n", "\n  ")
        members.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(members) + "\n}"


def _format_entries(entries: list, order: int) -> str:
    """The indented ``{"idx": [...], "val": ...}`` records, each filled
    into one ``%`` template: the index items one per line as ``%d``, then
    the value's JSON, encoded once per distinct value."""
    if not entries:
        return "[]"
    idx = "[\n" + ",\n".join(["        %d"] * order) + "\n      ]" if order else "[]"
    template = '    {\n      "idx": ' + idx + ',\n      "val": %s\n    }'
    encoded: dict = {}
    records = []
    for record in entries:
        raw = record["val"]
        text = encoded.get(raw)
        if text is None:
            text = encoded[raw] = json.dumps(raw)
        records.append(template % (*record["idx"], text))
    return "[\n" + ",\n".join(records) + "\n  ]"


def save_tensor(
    path: "str | Path",
    tensor: FormTensor,
    *,
    metadata: "Mapping[str, Any] | None" = None,
) -> None:
    doc = tensor_to_document(tensor, metadata=metadata)
    Path(path).write_text(format_document(doc) + "\n", encoding="utf-8")


def _parse_json(text: str, what: str) -> Any:
    """``json.loads`` with every parse failure raised as InvalidArgument.

    Besides malformed JSON this covers an integer literal longer than
    the interpreter's limit on integer string conversion (4300 digits by
    default), which ``json`` reports as a plain ValueError, and arrays or
    objects nested past the interpreter's recursion limit.
    """
    try:
        return json.loads(text)
    except ValueError as exc:
        raise InvalidArgument(f"{what} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InvalidArgument(f"{what} nests too deeply to parse: {exc}") from exc


def _read_text(path: "str | Path", what: str) -> str:
    """The UTF-8 text of the file at ``path``, read in chunks and at most
    :data:`_MAX_FILE_BYTES` + 1 bytes in all.  A longer file, a file that
    cannot be read and text that is not UTF-8 raise InvalidArgument."""
    chunks, size = [], 0
    try:
        with open(path, "rb") as stream:
            while size <= _MAX_FILE_BYTES:
                chunk = stream.read(min(_READ_CHUNK, _MAX_FILE_BYTES + 1 - size))
                if not chunk:
                    break
                chunks.append(chunk)
                size += len(chunk)
    except OSError as exc:
        raise InvalidArgument(f"cannot read {what}: {exc}") from exc
    if size > _MAX_FILE_BYTES:
        raise InvalidArgument(f"{what} is over the cap of {_MAX_FILE_BYTES} bytes")
    try:
        return b"".join(chunks).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidArgument(f"cannot read {what}: {exc}") from exc


def read_tensor_document(path: "str | Path") -> tuple[Tensor, "str | None", dict]:
    """Read and parse a tensor file; returns (tensor, form, metadata).

    As in :func:`document_to_tensor`, the class named by ``form`` is not
    enforced, so a caller can check the shape before :func:`wrap_tensor`
    validates it.
    """
    text = _read_text(path, f"tensor file {path}")
    return document_to_tensor(_parse_json(text, f"tensor file {path}"))


def load_tensor(path: "str | Path") -> tuple[FormTensor, dict]:
    """Read a tensor document and wrap it in its declared symmetry class."""
    tensor, form, metadata = read_tensor_document(path)
    return wrap_tensor(tensor, form), metadata


def parse_model_descriptor(source: object) -> ModelSpace:
    """Model space from a descriptor mapping, JSON string, or file path.

    Accepted shapes: ``{"kind": "sphere"|"flat", "N": int}`` (Euclidean
    signature), optional ``"signature": [p, q]`` overriding ``N``, and
    optional ``"u"`` (flat models only).  The bare strings ``"sphere"``
    and ``"flat"`` are rejected here — resolve those shorthands with an
    explicit dimension before calling.
    """
    doc: Mapping[str, Any]
    if isinstance(source, ModelSpace):
        return source
    if isinstance(source, Mapping):
        doc = source
    elif isinstance(source, (str, Path)):
        text = str(source).strip()
        if text.startswith("{"):
            doc = _parse_json(text, "model descriptor")
        else:
            doc = _parse_json(_read_text(text, f"model descriptor {text!r}"), f"model file {text!r}")
    else:
        raise InvalidArgument(
            "model descriptor must be a mapping, JSON string, or file path"
        )
    if not isinstance(doc, Mapping):
        raise InvalidArgument("model descriptor must be a JSON object")
    if "kind" not in doc:
        raise InvalidArgument("model descriptor needs a 'kind' of 'sphere' or 'flat'")
    kind = ModelKind.parse(str(doc["kind"]))
    if "signature" in doc:
        sig_raw = doc["signature"]
        if not isinstance(sig_raw, (list, tuple)) or len(sig_raw) != 2:
            raise InvalidArgument("'signature' must be a pair [p, q]")
        signature = MetricSignature(*(_descriptor_int(v, "'signature' entry") for v in sig_raw))
        if "N" in doc and _descriptor_int(doc["N"], "'N'") != signature.dim:
            raise InvalidArgument(f"descriptor N={doc['N']} conflicts with signature {sig_raw}")
    elif "N" in doc:
        signature = MetricSignature(_descriptor_int(doc["N"], "'N'"), 0)
    else:
        raise InvalidArgument("model descriptor needs 'N' or 'signature'")
    dim = signature.dim
    if dim > _MAX_MODEL_DIM:
        raise InvalidArgument(f"model dimension {dim} is over the cap of {_MAX_MODEL_DIM}")
    height = None
    if doc.get("u") is not None:
        u_raw = doc["u"]
        if not isinstance(u_raw, (list, tuple)) or len(u_raw) != dim:
            raise InvalidArgument(f"'u' must be a list of {dim} rationals")
        values = [parse_rational(v) for v in u_raw]
        for value in values:
            if max(value.numerator.bit_length(), value.denominator.bit_length()) > _MAX_BITS:
                raise InvalidArgument(
                    f"'u' values may have at most {_MAX_BITS}-bit numerators and denominators"
                )
        height = Tensor.from_nested(values)
    return ModelSpace(kind, signature, height_vector=height)


def _descriptor_int(value: object, what: str) -> int:
    """An int or a decimal string, below 10^9 in magnitude.  The message
    names only the type: the repr of a huge int may itself raise."""
    if isinstance(value, str) and _INTEGER.fullmatch(value):
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool) and abs(value) < 10**9:
        return value
    raise InvalidArgument(
        f"model descriptor {what} must be an integer below 10^9 in magnitude, "
        f"got {type(value).__name__}"
    )


def model_to_document(model: ModelSpace) -> dict:
    doc: dict = {
        "kind": model.kind.value,
        "N": model.dim,
        "signature": [model.signature.p, model.signature.q],
    }
    if model.kind is ModelKind.FLAT and model.height_vector is not None:
        doc["u"] = format_vector(model.height_vector)
    return doc


def report_to_document(report: IntegrabilityReport) -> dict:
    return {
        "model": {"kind": report.model_kind, "signature": list(report.signature) if report.signature else None},
        "dim": report.dim,
        "integrable": report.integrable,
        "conditions": {
            "condition1": {"zero": report.cond1_zero, "support": report.cond1_support},
            "condition2": {"zero": report.cond2_zero, "support": report.cond2_support},
        },
        "forms_used": list(report.forms_used),
        "warnings": list(report.warnings),
        "elapsed_seconds": report.elapsed_seconds,
    }


def oracle_report_to_document(report: OracleReport) -> dict:
    return {
        "model": {"kind": report.model_kind, "signature": list(report.signature)},
        "dim": report.dim,
        "num_points": report.num_points,
        "seed": report.seed,
        "passes": report.passes,
        "conditions_pass": list(report.conditions_pass),
        "witness_point_indices": list(report.witnesses),
        "point_supports": [list(row) for row in report.point_supports],
        "points": [format_vector(point.x) for point in report.points],
    }
