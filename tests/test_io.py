"""Tests for tensor documents, model descriptors, and report serialization."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from conftest import BOUND, flat, sphere
from killingtensor import (
    CurvatureTensor,
    InvalidArgument,
    SymCurvatureTensor,
    Tensor,
    check,
    integrable_oracle,
    io,
    metric_rep,
    r_to_s,
    random_curvature,
)


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
        ],
    )
    def test_descriptor_validation(self, source, message):
        with pytest.raises(InvalidArgument, match=message):
            io.parse_model_descriptor(source)

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
