"""Tests for tensor documents, model descriptors, and report serialization."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BOUND, flat, image_bits, sphere, wide_curvature
from killingtensor import (
    CurvatureTensor,
    InvalidArgument,
    SymCurvatureTensor,
    Tensor,
    benenti_rep,
    check,
    cli,
    family_rep,
    integrable_oracle,
    io,
    metric_rep,
    r_to_s,
    random_curvature,
    random_invertible_matrix,
    random_symmetric_form,
)


def reference_document_to_tensor(doc):
    """A per-record loader that builds a Fraction array, kept as the
    reference of the vectorised reader.

    Index items must be JSON integers, as in the reader; the per-record
    loop the reader replaced read them through ``int()``, truncating 1.5
    to 1.
    It has no bit-length cap.
    """
    if not isinstance(doc, dict):
        raise InvalidArgument("tensor document must be a mapping")
    try:
        dim = int(doc["dim"])
        order = int(doc["order"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidArgument(f"tensor document needs integer 'dim' and 'order': {exc}") from exc
    if dim < 1 or order < 0:
        raise InvalidArgument(f"invalid tensor shape: dim={dim}, order={order}")
    if order > io._MAX_ORDER or dim**order > io._MAX_ENTRIES:
        raise InvalidArgument(
            f"tensor shape dim={dim}, order={order} is too large: at most "
            f"{io._MAX_ORDER} slots and {io._MAX_ENTRIES} entries are accepted"
        )
    entries = doc.get("entries", [])
    if not isinstance(entries, list):
        raise InvalidArgument("'entries' must be a list of {idx, val} records")
    arr = np.empty((dim,) * order, dtype=object)
    arr.fill(Fraction(0))
    for record in entries:
        try:
            idx = record["idx"]
            raw = record["val"]
        except (KeyError, TypeError) as exc:
            raise InvalidArgument(f"malformed entry record {record!r}: {exc}") from exc
        if type(idx) is not list or any(type(i) is not int for i in idx):
            raise InvalidArgument(
                f"malformed entry record {record!r}: 'idx' must be a list of integers"
            )
        if len(idx) != order:
            raise InvalidArgument(
                f"entry index {idx} has length {len(idx)}, expected order {order}"
            )
        if any(i < 0 or i >= dim for i in idx):
            raise InvalidArgument(f"entry index {idx} out of range for dim {dim}")
        arr[tuple(idx)] = io.parse_rational(raw)
    form = doc.get("form")
    if form is not None and form not in ("R", "S"):
        raise InvalidArgument(f"unknown tensor form {form!r}; expected 'R' or 'S'")
    metadata = doc.get("metadata") or {}
    if not isinstance(metadata, dict):
        raise InvalidArgument("'metadata' must be a mapping")
    return Tensor(arr, dim=dim), form, metadata


def reference_tensor_to_document(tensor, *, metadata=None):
    """The entry-by-entry writer the nonzero-only writer replaced."""
    form = io._form_name(tensor)
    plain = tensor.tensor if form is not None else tensor
    entries = []
    for idx in np.ndindex(plain.array.shape):
        value = plain[idx]
        if value != 0:
            entries.append({"idx": [int(i) for i in idx], "val": io.format_rational(value)})
    doc = {"dim": plain.dim, "order": plain.order, "entries": entries}
    if form is not None:
        doc["form"] = form
    if metadata:
        doc["metadata"] = dict(metadata)
    return doc


def load_outcome(loader, doc):
    """("ok", entries as (type, value) pairs, form, metadata) or ("error", message)."""
    try:
        tensor, form, metadata = loader(doc)
    except InvalidArgument as exc:
        return "error", str(exc)
    values = [(type(v), v) for v in tensor.array.ravel().tolist()]
    return "ok", tensor.dim, tensor.order, values, form, metadata


def generator_outputs(n, bound, seed):
    """Every generator kind on the sphere, Lorentzian sphere and flat models."""
    rng = random.Random(seed)
    for model in (sphere(n), sphere(n - 1, 1), flat(n)):
        yield metric_rep(model)
        yield benenti_rep(model, random_invertible_matrix(n, rng, bound=bound))
        h = random_symmetric_form(n, rng, bound=bound)
        lams = [Fraction(rng.randint(1, bound), rng.randint(1, bound)) for _ in range(3)]
        yield family_rep(h, *lams, signature=model.signature)
        yield random_curvature(n, rng, bound=bound)


class TestRationals:
    @pytest.mark.parametrize(
        "raw, expected",
        [
            (5, Fraction(5)),
            (-2, Fraction(-2)),
            ("3/4", Fraction(3, 4)),
            (" -7/2 ", Fraction(-7, 2)),
            ("5", Fraction(5)),
            (Fraction(1, 3), Fraction(1, 3)),
        ],
    )
    def test_parse_accepts_exact_forms(self, raw, expected):
        assert io.parse_rational(raw) == expected

    @pytest.mark.parametrize(
        "raw",
        [True, False, 0.5, "abc", "1/0", None, [1], "1e999999999", "1.5", "1_000"],
    )
    def test_parse_rejects_inexact_or_malformed(self, raw):
        with pytest.raises(InvalidArgument):
            io.parse_rational(raw)

    def test_rejected_value_is_echoed_only_in_part(self):
        with pytest.raises(InvalidArgument) as info:
            io.parse_rational("9" * 5000 + "/x")
        assert len(str(info.value)) < 100

    def test_format_round_trip(self):
        assert io.format_rational(Fraction(6, 3)) == 2
        assert io.format_rational(Fraction(-3, 4)) == "-3/4"
        for value in [Fraction(0), Fraction(7), Fraction(-22, 7), Fraction(1, 9)]:
            assert io.parse_rational(io.format_rational(value)) == value

    @pytest.mark.parametrize(
        "values",
        [
            [Fraction(-3, 4), 2, Fraction(5, 6), 0, -7],
            [Fraction(6, 4), Fraction(-9, 2), 3],
            [-5, 0, 10],
            [Fraction(2**70, 3), Fraction(-1, 2**65), 2**80],
        ],
        ids=["mixed", "halves", "integers", "wide"],
    )
    def test_format_vector_matches_format_rational(self, values):
        # format_vector reads the integer image; format_rational the Fractions.
        vector = Tensor.from_nested(values)
        expected = [io.format_rational(Fraction(v)) for v in values]
        assert io.format_vector(vector) == expected
        assert [type(v) for v in io.format_vector(vector)] == [type(v) for v in expected]


class TestTensorDocuments:
    def test_documents_are_sparse(self):
        tensor = Tensor.from_nested([[0, Fraction(1, 2)], [0, 0]])
        doc = io.tensor_to_document(tensor)
        assert doc["dim"] == 2
        assert doc["order"] == 2
        assert doc["entries"] == [{"idx": [0, 1], "val": "1/2"}]
        assert "form" not in doc
        assert "metadata" not in doc

    def test_round_trip_plain_tensor(self):
        rng = random.Random(3)
        tensor = random_curvature(3, rng, bound=BOUND).tensor
        recovered, form, metadata = io.document_to_tensor(io.tensor_to_document(tensor))
        assert recovered == tensor
        assert form is None
        assert metadata == {}

    def test_round_trip_curvature_class(self):
        R = random_curvature(3, random.Random(4), bound=BOUND)
        doc = io.tensor_to_document(R, metadata={"note": "test"})
        assert doc["form"] == "R"
        assert doc["metadata"] == {"note": "test"}
        tensor, form, metadata = io.document_to_tensor(doc)
        wrapped = io.wrap_tensor(tensor, form)
        assert isinstance(wrapped, CurvatureTensor)
        assert wrapped.tensor == R.tensor
        assert metadata == {"note": "test"}

    def test_documents_serialize_to_json(self):
        R = random_curvature(4, random.Random(5), bound=BOUND)
        text = json.dumps(io.tensor_to_document(R))
        tensor, form, _ = io.document_to_tensor(json.loads(text))
        assert io.wrap_tensor(tensor, form).tensor == R.tensor

    def test_file_round_trip(self, tmp_path):
        S = r_to_s(random_curvature(3, random.Random(6), bound=BOUND))
        path = tmp_path / "tensor.json"
        io.save_tensor(path, S, metadata={"seed": 6})
        loaded, metadata = io.load_tensor(path)
        assert isinstance(loaded, SymCurvatureTensor)
        assert loaded.tensor == S.tensor
        assert metadata == {"seed": 6}

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"order": 2}, "dim"),
            ({"dim": 2, "order": 2, "entries": "nope"}, "entries"),
            ({"dim": 2, "order": 2, "entries": [{"idx": [0], "val": 1}]}, "length"),
            ({"dim": 2, "order": 1, "entries": [{"idx": [5], "val": 1}]}, "out of range"),
            ({"dim": 2, "order": 1, "entries": [{"idx": [0]}]}, "entry"),
            ({"dim": 2, "order": 1, "form": "Q"}, "form"),
            ({"dim": 2, "order": 1, "metadata": [1]}, "metadata"),
            ({"dim": 0, "order": 1}, "shape"),
        ],
    )
    def test_document_validation(self, doc, message):
        with pytest.raises(InvalidArgument, match=message):
            io.document_to_tensor(doc)

    @pytest.mark.parametrize("dim, order", [(1000000, 4), (4, 13), (1, 100)])
    def test_unallocatable_shapes_are_rejected(self, dim, order):
        # Checked before any array is allocated; the cap still admits the
        # order-10 residual at N = 5.
        assert io._MAX_ENTRIES >= 5**10
        with pytest.raises(InvalidArgument, match="too large"):
            io.document_to_tensor({"dim": dim, "order": order, "entries": []})

    def test_wrap_enforces_the_declared_class(self):
        lopsided = Tensor.from_entries(3, 4, [((0, 0, 1, 2), 1)])
        with pytest.raises(InvalidArgument, match="antisymmetric"):
            io.wrap_tensor(lopsided, "R")
        with pytest.raises(InvalidArgument, match="symmetric"):
            io.wrap_tensor(lopsided, "S")
        assert io.wrap_tensor(lopsided, None) is lopsided
        with pytest.raises(InvalidArgument, match="form"):
            io.wrap_tensor(lopsided, "X")

    def test_load_errors_are_reported(self, tmp_path):
        with pytest.raises(InvalidArgument, match="cannot read"):
            io.load_tensor(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{oops", encoding="utf-8")
        with pytest.raises(InvalidArgument, match="not valid JSON"):
            io.load_tensor(bad)

    def test_integer_literal_over_the_digit_limit(self, tmp_path):
        # json.loads reports it as a plain ValueError, not a JSONDecodeError.
        path = tmp_path / "digits.json"
        path.write_text(
            '{"dim": 2, "order": 4, "form": "R", "entries": '
            '[{"idx": [0, 1, 0, 1], "val": ' + "7" * 4400 + "}]}",
            encoding="utf-8",
        )
        with pytest.raises(InvalidArgument, match="not valid JSON"):
            io.load_tensor(path)
        with pytest.raises(InvalidArgument, match="not valid JSON"):
            io.parse_model_descriptor('{"kind": "sphere", "N": ' + "3" * 4400 + "}")


@st.composite
def tensor_documents(draw):
    """Small documents, mostly valid, with every kind of malformed record mixed in."""
    dim = draw(st.integers(1, 3))
    order = draw(st.integers(0, 3))
    index_item = st.one_of(
        st.integers(-1, dim),
        st.sampled_from([2**63, -(2**63) - 1, [0]]),
        st.booleans(),
        st.sampled_from(["0", "1", " 2", "x", "-1"]),
        st.sampled_from([0.0, 1.0, 1.5, -0.5, float("inf"), float("nan")]),
        st.none(),
    )
    valid_index = st.lists(st.integers(0, dim - 1), min_size=order, max_size=order)
    edge_index = st.lists(st.sampled_from([-1, 0, dim - 1, dim]), min_size=order, max_size=order)
    odd_index = st.one_of(
        edge_index,
        st.lists(index_item, min_size=max(order - 1, 0), max_size=order + 1),
        st.sampled_from([7, "01", None, {"a": 0}]),
    )
    valid_value = st.one_of(
        st.integers(-3, 3),
        st.sampled_from(["1", " 1", "1/2", "2/4", "-3/7", "0", 10**30, "7" * 40]),
    )
    odd_value = st.sampled_from(
        [True, False, 1.0, 0.5, "x", "1/0", "1.5", None, [1], {"p": 1}]
    )

    def record():
        # Hypothesis favours the ends of a range, so the odd cases sit inside it.
        roll = draw(st.integers(0, 19))
        if roll == 5:
            return draw(st.sampled_from([None, 3, "idx", [0, 1]]))
        if roll == 6:
            return {"idx": draw(valid_index)}
        if roll == 7:
            return {"val": draw(valid_value)}
        idx = draw(odd_index if roll == 8 else valid_index)
        return {"idx": idx, "val": draw(odd_value if roll == 9 else valid_value)}

    doc = {"dim": dim, "order": order}
    if draw(st.integers(0, 19)) == 7:
        doc["entries"] = "nope"
    else:
        doc["entries"] = [record() for _ in range(draw(st.integers(0, 8)))]
    form = draw(st.sampled_from([None, "R", "S", "Q"]))
    if form is not None:
        doc["form"] = form
    metadata = draw(st.sampled_from([None, {}, {"seed": 1}, [1]]))
    if metadata is not None:
        doc["metadata"] = metadata
    return doc


class TestOnePassReader:
    def test_infinite_index_is_an_input_error(self):
        # json.loads reads Infinity and NaN as floats; int(inf) raises OverflowError.
        with pytest.raises(InvalidArgument, match="malformed entry"):
            io.document_to_tensor(json.loads(
                '{"dim": 2, "order": 1, "entries": [{"idx": [Infinity], "val": 1}]}'
            ))
        with pytest.raises(InvalidArgument, match="integer 'dim'"):
            io.document_to_tensor(json.loads('{"dim": Infinity, "order": 1}'))

    @settings(max_examples=300, deadline=None)
    @given(doc=tensor_documents())
    def test_accepts_and_rejects_as_the_per_record_loop(self, doc):
        assert load_outcome(io.document_to_tensor, doc) == load_outcome(
            reference_document_to_tensor, doc
        )

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            [{"idx": [0, 1], "val": 1}, {"idx": [1, 0], "val": True}],
            [{"idx": [0, 1], "val": 1}, {"idx": [1, 0], "val": 1.0}],
            [{"idx": [0, 1], "val": "1"}, {"idx": [1, 1], "val": 1}, {"idx": [0, 0], "val": "1"}],
            [{"idx": [0, 1], "val": 1}, {"idx": [1, 0], "val": [1]}],
            [{"idx": [True, False], "val": 2}, {"idx": ["1", " 0"], "val": "3/4"}],
            [{"idx": [1.5, 0.0], "val": 2}, {"idx": [-1, 0], "val": 1}],
            [{"idx": [1, 1], "val": 2}, {"idx": [0, 2], "val": 1}],
            [{"idx": [2, 0], "val": 1}],
            [{"idx": [0, 1, 0], "val": 2}],
            [{"idx": [0, 1], "val": 2}, {"idx": [0, 1], "val": "-5/3"}],
            [{"idx": "01", "val": 2}, {"idx": {"a": 1}, "val": 2}],
            [{"idx": [0, float("nan")], "val": 2}],
            [{"idx": [0, float("inf")], "val": 2}],
            [{"idx": [0, 1], "val": None}, {"idx": 3, "val": 1}],
            # Hazards of a vectorised pass: items past int64 (np.array
            # makes [2**63, 0] float64), ragged and nested index lists.
            [{"idx": [0, 1], "val": 1}, {"idx": [2**63, 0], "val": 2}],
            [{"idx": [0, 1], "val": 1}, {"idx": [0, -(2**63) - 1], "val": 2}],
            [{"idx": [0, 1], "val": 1}, {"idx": [1], "val": 2}, {"idx": [0, 1, 1], "val": 3}],
            [{"idx": [[0], [1]], "val": 1}],
            # np.array([[]]) is float64, yet an order-0 document loads.
            {"dim": 2, "order": 0, "entries": [{"idx": [], "val": 3}]},
            {"dim": 2, "order": 0, "entries": [{"idx": [], "val": 3}, {"idx": [], "val": "-1/2"}]},
            # The last of three non-adjacent records wins.
            [
                {"idx": [0, 1], "val": 1}, {"idx": [1, 0], "val": 2},
                {"idx": [0, 1], "val": "3/2"}, {"idx": [1, 1], "val": 4},
                {"idx": [0, 1], "val": -5},
            ],
            # Equal values under different spellings, each parsed once.
            {"dim": 3, "order": 2, "entries": [
                {"idx": [0, 0], "val": "2/4"}, {"idx": [0, 1], "val": "1/2"},
                {"idx": [0, 2], "val": " 1/2"}, {"idx": [1, 0], "val": 1},
                {"idx": [1, 1], "val": "1"}, {"idx": [1, 2], "val": "+1/1"},
                {"idx": [2, 0], "val": "-0"}, {"idx": [2, 2], "val": "-2/4"},
            ]},
            # Numerals over the interpreter's 4300-digit limit.
            [{"idx": [0, 1], "val": 1}, {"idx": [1, 0], "val": "7" * 5000}],
            [{"idx": [0, 1], "val": "1/" + "3" * 5000}],
            [{"idx": [0, 1], "val": "1/0"}],
        ],
    )
    def test_hazards_load_as_the_per_record_loop(self, doc):
        if isinstance(doc, list):
            doc = {"dim": 2, "order": 2, "entries": doc, "form": "R"}
        assert load_outcome(io.document_to_tensor, doc) == load_outcome(
            reference_document_to_tensor, doc
        )

    @pytest.mark.parametrize(
        "idx", [[True, False], ["1", " 0"], [1.5, 0.0], [1.0, 0], "01", [[1], 0], [2**63, 0.5]]
    )
    def test_index_items_must_be_integers(self, idx):
        # The per-record loop took these through int(): [1.5, 0] loaded as (1, 0).
        doc = {"dim": 2, "order": 2, "entries": [{"idx": idx, "val": 1}]}
        with pytest.raises(InvalidArgument, match="malformed entry record .*'idx' must be a list"):
            io.document_to_tensor(doc)

    def test_generator_documents_take_the_vectorised_path(self, monkeypatch):
        # A reader that fell back to the record walk, or built Fractions
        # through as_scalar, would still load these; here it cannot.
        docs = []
        for n in (3, 4, 5):
            for tensor in generator_outputs(n, BOUND, seed=n):
                docs.append((json.loads(json.dumps(io.tensor_to_document(tensor))), tensor))

        def refuse(*args):
            raise AssertionError("left the vectorised path")

        monkeypatch.setattr(io, "_raise_first_bad_record", refuse)
        monkeypatch.setattr(io, "as_scalar", refuse)
        for doc, tensor in docs:
            loaded, form, _ = io.document_to_tensor(doc)
            assert loaded == tensor.tensor and form == io._form_name(tensor)
        # The patches see what they guard.
        with pytest.raises(AssertionError, match="vectorised"):
            io.document_to_tensor({"dim": 1, "order": 1, "entries": [{"idx": [0], "val": 0.5}]})

    def test_generator_documents_load_as_the_per_record_loop(self):
        for n in (3, 4, 5):
            for tensor in generator_outputs(n, BOUND, seed=n):
                doc = json.loads(json.dumps(io.tensor_to_document(tensor)))
                assert load_outcome(io.document_to_tensor, doc) == load_outcome(
                    reference_document_to_tensor, doc
                )


class TestBitLengthCap:
    def test_wide_curvature_tensor_is_rejected(self):
        # A valid 400 KB file whose integer image has a 13 230-bit scale;
        # check() on it took about 27 s before the cap.
        doc = json.loads(json.dumps(io.tensor_to_document(wide_curvature(4, 200, seed=0))))
        with pytest.raises(InvalidArgument, match="common denominator of more than 256 bits"):
            io.document_to_tensor(doc)

    @pytest.mark.parametrize(
        "values",
        [
            [f"{2**256 - 1}/{2**256 - 3}"],
            ["-1/3", f"1/{2**254}", f"{2**256 - 1}/{3 * 2**254}"],  # lcm 3 * 2^254
            [f"{2**255}/3", "1/3"],
        ],
    )
    def test_values_at_the_cap_are_accepted(self, values):
        entries = [{"idx": [k], "val": v} for k, v in enumerate(values)]
        tensor, _, _ = io.document_to_tensor({"dim": 3, "order": 1, "entries": entries})
        assert max(image_bits(tensor)) <= io._MAX_BITS == 256

    @pytest.mark.parametrize(
        "values, message",
        [
            ([f"1/{2**256}"], "common denominator"),
            ([f"{2**256}/3"], "reach 257 bits"),
            ([str(2**255), "1/3"], "reach 257 bits"),
            ([Fraction(1, 2**256 + 1)], "common denominator"),
        ],
    )
    def test_values_over_the_cap_are_rejected(self, values, message):
        entries = [{"idx": [k], "val": v} for k, v in enumerate(values)]
        with pytest.raises(InvalidArgument, match=message):
            io.document_to_tensor({"dim": 3, "order": 1, "entries": entries})

    def test_overwritten_values_still_count(self):
        # The cap bounds what a document lists, not only what it keeps.
        doc = {"dim": 1, "order": 1, "entries": [
            {"idx": [0], "val": f"1/{2**300}"}, {"idx": [0], "val": 1},
        ]}
        with pytest.raises(InvalidArgument, match="common denominator"):
            io.document_to_tensor(doc)

    def test_many_wide_coprime_denominators_fail_fast(self):
        primes = [2**127 - 1, 2**89 - 1, 2**107 - 1, 2**61 - 1] * 50
        entries = [{"idx": [k], "val": f"1/{p}"} for k, p in enumerate(primes)]
        with pytest.raises(InvalidArgument, match="common denominator"):
            io.document_to_tensor({"dim": 200, "order": 1, "entries": entries})

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_generator_outputs_are_admitted(self, n):
        for seed in range(2):
            for tensor in generator_outputs(n, 50, seed):
                bits = image_bits(tensor.tensor)
                assert max(bits) <= io._MAX_BITS - 64, bits
                doc = io.tensor_to_document(tensor)
                assert io.document_to_tensor(doc)[0] == tensor.tensor


class TestWriter:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_documents_are_byte_identical_to_the_entry_walk(self, n):
        for tensor in generator_outputs(n, 9, seed=n):
            metadata = {"generator": "test", "seed": n}
            for case in (tensor, tensor.tensor, r_to_s(tensor)):
                assert json.dumps(io.tensor_to_document(case, metadata=metadata), indent=2) == (
                    json.dumps(reference_tensor_to_document(case, metadata=metadata), indent=2)
                )

    @pytest.mark.parametrize("value", [Fraction(0), Fraction(-7, 3)])
    def test_order_zero_tensor(self, value):
        scalar = Tensor(np.array(value, dtype=object), dim=2)
        doc = io.tensor_to_document(scalar)
        assert doc == reference_tensor_to_document(scalar)
        assert io.document_to_tensor(doc)[0] == scalar


def written_forms(n, seed):
    """Every generator kind on each model of dimension ``n``, in R, S and
    plain form; at n = 1 there is no Lorentzian sphere."""
    rng = random.Random(seed)
    models = [sphere(n), flat(n)] + ([sphere(n - 1, 1)] if n > 1 else [])
    for model in models:
        h = random_symmetric_form(n, rng, bound=BOUND)
        lams = [Fraction(rng.randint(1, BOUND), rng.randint(1, BOUND)) for _ in range(3)]
        for tensor in (
            metric_rep(model),
            benenti_rep(model, random_invertible_matrix(n, rng, bound=BOUND)),
            family_rep(h, *lams, signature=model.signature),
            random_curvature(n, rng, bound=BOUND),
        ):
            yield from (tensor, r_to_s(tensor), tensor.tensor)


class TestDocumentText:
    """``format_document`` writes exactly what ``json.dumps(doc, indent=2)``
    would, so written files stay byte-stable."""

    METADATA = {
        "generator": "test",
        "nested": [[1, [2, []]], {}, {"a": [{"b": None}]}],
        "text": "Kähler \u2013 \"entries\": [] \\ \n \u2603",
        "\"entries\": []": [True, 1.5, "\"entries\": []"],
    }

    def assert_written_as_json(self, tensor, tmp_path, metadata=None):
        doc = io.tensor_to_document(tensor, metadata=metadata)
        expected = json.dumps(doc, indent=2)
        assert io.format_document(doc) == expected
        path = tmp_path / "tensor.json"
        io.save_tensor(path, tensor, metadata=metadata)
        assert path.read_bytes() == (expected + "\n").encode("utf-8")

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_generator_outputs(self, n, tmp_path):
        for k, tensor in enumerate(written_forms(n, seed=10 + n)):
            metadata = {"generator": "test", "seed": k} if k % 2 else None
            self.assert_written_as_json(tensor, tmp_path, metadata)

    @pytest.mark.parametrize(
        "tensor",
        [
            Tensor(np.array(Fraction(0), dtype=object), dim=2),
            Tensor(np.array(Fraction(-7, 3), dtype=object), dim=3),
            Tensor.from_nested([[Fraction(0)] * 3] * 3),
            Tensor.from_nested([[Fraction(3, 2)]]),
            Tensor.from_nested([Fraction(-5)]),
            Tensor.from_nested([[2**64 + 1, Fraction(-(2**70), 3)], [0, -(2**63)]]),
        ],
        ids=["scalar-zero", "scalar", "zero", "dim-1", "dim-1-order-1", "past-2^63"],
    )
    def test_edge_shapes_and_values(self, tensor, tmp_path):
        self.assert_written_as_json(tensor, tmp_path)
        self.assert_written_as_json(tensor, tmp_path, self.METADATA)

    def test_metadata_is_not_read_as_entries(self, tmp_path):
        tensor = metric_rep(sphere(3))
        self.assert_written_as_json(tensor, tmp_path, self.METADATA)
        self.assert_written_as_json(tensor.tensor * 0, tmp_path, self.METADATA)
        loaded, metadata = io.load_tensor(tmp_path / "tensor.json")
        assert metadata == self.METADATA and loaded == tensor.tensor * 0

    @pytest.mark.parametrize("kind", ["metric", "benenti", "family", "random"])
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_generate_prints_the_indented_json(self, capsys, kind, n):
        assert cli.main(["generate", kind, "--model", "flat", "--N", str(n), "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


@st.composite
def model_descriptors(draw):
    """Descriptor mappings, mostly well-formed, with odd values in every field."""
    odd = st.one_of(
        st.none(),
        st.booleans(),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=6),
        st.integers(-(10**20), 10**20),
        st.lists(st.integers(-3, 3), max_size=3),
        st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    )
    small = st.integers(-1, 5)
    doc = {}
    if draw(st.booleans()):
        doc["kind"] = draw(st.sampled_from(["sphere", "flat", " Flat", "torus"]) | odd)
    if draw(st.booleans()):
        doc["N"] = draw(small | st.sampled_from(["3", "x", "9" * 12]) | odd)
    if draw(st.booleans()):
        doc["signature"] = draw(st.lists(small | odd, min_size=0, max_size=3) | odd)
    if draw(st.booleans()):
        value = st.one_of(
            st.integers(-2, 2),
            st.sampled_from(["1", "0", "-1", "1/2", "3/4", "5/4", "2/0", "1e3", "x"]),
            st.integers(1 << 250, 1 << 260),
            odd,
        )
        doc["u"] = draw(st.lists(value, min_size=0, max_size=5) | odd)
    return doc


class TestModelDescriptors:
    def test_mapping_with_dimension(self):
        model = io.parse_model_descriptor({"kind": "sphere", "N": 3})
        assert model == sphere(3)

    def test_mapping_with_signature(self):
        model = io.parse_model_descriptor({"kind": "flat", "signature": [2, 1]})
        assert model == flat(2, 1)

    def test_inline_json_and_file(self, tmp_path):
        inline = io.parse_model_descriptor('{"kind": "sphere", "signature": [2, 1]}')
        assert inline == sphere(2, 1)
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"kind": "flat", "N": 4}), encoding="utf-8")
        assert io.parse_model_descriptor(path) == flat(4)

    def test_model_space_passes_through(self):
        model = sphere(4)
        assert io.parse_model_descriptor(model) is model

    def test_flat_descriptor_with_height_vector(self):
        model = io.parse_model_descriptor(
            {"kind": "flat", "signature": [2, 1], "u": ["5/4", 0, "3/4"]}
        )
        assert model.height_vector == Tensor.from_nested(
            [Fraction(5, 4), 0, Fraction(3, 4)]
        )

    @pytest.mark.parametrize(
        "source, message",
        [
            ({"N": 3}, "kind"),
            ({"kind": "sphere"}, "'N' or 'signature'"),
            ({"kind": "sphere", "signature": [3]}, "pair"),
            ({"kind": "sphere", "N": 4, "signature": [2, 1]}, "conflicts"),
            ({"kind": "torus", "N": 3}, "unknown model kind"),
            ("{oops", "not valid JSON"),
            (17, "mapping"),
            ({"kind": "sphere", "N": "x"}, "'N' must be an integer"),
            ({"kind": "sphere", "N": True}, "'N' must be an integer"),
            ({"kind": "sphere", "N": 3.0}, "'N' must be an integer"),
            ({"kind": "sphere", "signature": ["a", 1]}, "'signature' entry must be an integer"),
            ({"kind": "sphere", "signature": [2, None]}, "'signature' entry must be an integer"),
            ({"kind": "sphere", "signature": [-1, 4]}, "invalid signature"),
            ({"kind": "sphere", "N": 0}, "invalid signature"),
            ({"kind": "flat", "N": 65}, "over the cap of 64"),
            ({"kind": "flat", "signature": [60, 5]}, "over the cap of 64"),
            ({"kind": "flat", "N": 10**9}, "'N' must be an integer below"),
            ({"kind": "sphere", "N": 10**5000}, "'N' must be an integer below"),
            ({"kind": "flat", "signature": [10**12, 1]}, "'signature' entry must be an integer"),
            ({"kind": "sphere", "N": "1234567890"}, "'N' must be an integer"),
            ({"kind": "flat", "N": 3, "u": 5}, "'u' must be a list of 3"),
            ({"kind": "flat", "N": 3, "u": [1, 0]}, "'u' must be a list of 3"),
            ({"kind": "flat", "N": 2, "u": [1, 0.5]}, "exact rational"),
            ({"kind": "flat", "N": 2, "u": [1, "1e9"]}, "cannot parse"),
            ({"kind": "flat", "N": 2, "u": [2**300, 0]}, "at most 256-bit"),
            ({"kind": "flat", "N": 2, "u": [0, Fraction(1, 3**200)]}, "at most 256-bit"),
            ({"kind": "flat", "N": 2, "u": [2, 0]}, "unit norm"),
        ],
    )
    def test_descriptor_validation(self, source, message):
        with pytest.raises(InvalidArgument, match=message):
            io.parse_model_descriptor(source)

    @pytest.mark.parametrize("text", ["[1, 2]", "5", "null"])
    def test_descriptor_file_must_hold_an_object(self, tmp_path, text):
        path = tmp_path / "model.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InvalidArgument, match="JSON object"):
            io.parse_model_descriptor(path)

    def test_integer_fields_may_be_decimal_strings(self):
        assert io.parse_model_descriptor({"kind": "sphere", "N": " 3"}) == sphere(3)
        assert io.parse_model_descriptor({"kind": "flat", "signature": ["2", 1]}) == flat(2, 1)

    def test_largest_model_dimension_is_accepted(self):
        assert io.parse_model_descriptor({"kind": "sphere", "N": 64}).dim == 64

    @settings(max_examples=300, deadline=None)
    @given(doc=model_descriptors())
    def test_fuzzed_descriptors_parse_or_raise_invalid_argument(self, doc):
        for source in (doc, json.dumps(doc)):
            try:
                model = io.parse_model_descriptor(source)
            except InvalidArgument:
                continue
            assert 1 <= model.dim <= 64
            assert io.parse_model_descriptor(io.model_to_document(model)) == model

    def test_missing_descriptor_file(self, tmp_path):
        with pytest.raises(InvalidArgument, match="cannot read"):
            io.parse_model_descriptor(str(tmp_path / "nope.json"))

    @pytest.mark.parametrize("model", [sphere(3), sphere(2, 1), flat(2, 1)], ids=repr)
    def test_document_round_trip(self, model):
        doc = io.model_to_document(model)
        assert doc["N"] == model.dim
        assert doc["signature"] == [model.signature.p, model.signature.q]
        assert ("u" in doc) == model.is_flat
        assert io.parse_model_descriptor(doc) == model


class TestReportDocuments:
    def test_check_report_document(self):
        model = sphere(3)
        report = check(metric_rep(model), model)
        doc = io.report_to_document(report)
        assert doc["model"] == {"kind": "sphere", "signature": [3, 0]}
        assert doc["dim"] == 3
        assert doc["integrable"] is True
        assert doc["conditions"]["condition1"] == {"zero": True, "support": 0}
        assert doc["conditions"]["condition2"] == {"zero": True, "support": 0}
        assert doc["warnings"] == []
        assert isinstance(doc["elapsed_seconds"], float)
        json.dumps(doc)

    def test_oracle_report_document(self):
        model = flat(3)
        report = integrable_oracle(
            metric_rep(model), model, num_points=2, seed=1, bound=BOUND
        )
        doc = io.oracle_report_to_document(report)
        assert doc["model"] == {"kind": "flat", "signature": [3, 0]}
        assert doc["num_points"] == 2
        assert doc["seed"] == 1
        assert doc["passes"] is True
        assert doc["conditions_pass"] == [True, True, True]
        assert doc["witness_point_indices"] == [None, None, None]
        assert len(doc["points"]) == 2
        assert len(doc["point_supports"]) == 2
        json.dumps(doc)
