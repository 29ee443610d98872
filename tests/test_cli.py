"""End-to-end tests of the command-line interface (exit codes and output)."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import killingtensor
from conftest import image_bits, sphere, wide_curvature
from killingtensor import CurvatureTensor, Tensor, cli, integrability, io, metric_rep, r_to_s, random_curvature
from killingtensor import tensor as tensor_module


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return code, captured.out, captured.err


class TestCheckCommand:
    def test_generate_check_round_trip(self, capsys, tmp_path):
        path = tmp_path / "family.json"
        code, out, _ = run(
            capsys,
            "generate", "family", "--N", "4", "--seed", "3", "--bound", "3",
            "--out", str(path),
        )
        assert code == 0
        assert str(path) in out

        code, out, _ = run(capsys, "check", str(path), "--model", "sphere", "--N", "4")
        assert code == 0
        assert "integrable: yes" in out
        assert "condition 1 residual: zero" in out
        assert "condition 2 residual: zero" in out

        code, out, _ = run(capsys, "check", str(path), "--model", "flat", "--N", "4")
        assert code == 1
        assert "integrable: no" in out
        assert "nonzero (canonical support" in out
        assert "note:" in out

    def test_json_report(self, capsys, tmp_path):
        path = tmp_path / "metric.json"
        run(capsys, "generate", "metric", "--model", "sphere", "--N", "3",
            "--out", str(path))
        code, out, _ = run(
            capsys, "check", str(path), "--model", "sphere", "--N", "3", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["integrable"] is True
        assert doc["model"] == {"kind": "sphere", "signature": [3, 0]}
        assert doc["forms_used"] == ["main1", "main2"]

    def test_alternate_forms_and_signature(self, capsys, tmp_path):
        path = tmp_path / "metric.json"
        run(capsys, "generate", "metric", "--model", "sphere",
            "--signature", "2,1", "--out", str(path))
        code, out, _ = run(
            capsys,
            "check", str(path), "--model", "sphere", "--signature", "2,1",
            "--form1", "hook-d", "--form2", "ks2-44-both",
        )
        assert code == 0
        assert "condition 1 via hook-d" in out
        assert "condition 2 via ks2-44-both" in out

    def test_model_descriptor_file(self, capsys, tmp_path):
        model_path = tmp_path / "model.json"
        model_path.write_text('{"kind": "sphere", "N": 3}', encoding="utf-8")
        tensor_path = tmp_path / "metric.json"
        run(capsys, "generate", "metric", "--model", str(model_path),
            "--out", str(tensor_path))
        code, out, _ = run(capsys, "check", str(tensor_path), "--model", str(model_path))
        assert code == 0
        assert "integrable: yes" in out


class TestOracleCommand:
    def test_pass_and_fail_verdicts(self, capsys, tmp_path):
        good = tmp_path / "family.json"
        run(capsys, "generate", "family", "--N", "4", "--seed", "5", "--bound", "3",
            "--out", str(good))
        code, out, _ = run(
            capsys,
            "oracle", str(good), "--model", "sphere", "--N", "4",
            "--points", "2", "--seed", "1", "--bound", "3",
        )
        assert code == 0
        assert "verdict: pass" in out
        assert "zero at all points" in out

        bad = tmp_path / "random.json"
        run(capsys, "generate", "random", "--N", "4", "--seed", "6", "--bound", "3",
            "--out", str(bad))
        code, out, _ = run(
            capsys,
            "oracle", str(bad), "--model", "sphere", "--N", "4",
            "--points", "2", "--seed", "2", "--bound", "3",
        )
        assert code == 1
        assert "verdict: fail" in out
        assert "first failure at point" in out

    def test_text_report_gives_the_witness_coordinates(self, capsys, tmp_path):
        bad = tmp_path / "random.json"
        run(capsys, "generate", "random", "--N", "4", "--seed", "6", "--bound", "3",
            "--out", str(bad))
        argv = ("oracle", str(bad), "--model", "sphere", "--N", "4",
                "--points", "3", "--seed", "2", "--bound", "3")
        code, out, _ = run(capsys, *argv)
        assert code == 1
        doc = json.loads(run(capsys, *argv, "--json")[1])
        lines = out.splitlines()
        witnesses = doc["witness_point_indices"]
        assert None not in witnesses
        for c, witness in enumerate(witnesses, start=1):
            at = lines.index(f"condition {c} residual: nonzero (first failure at point {witness})")
            coords = ", ".join(str(value) for value in doc["points"][witness])
            assert lines[at + 1] == f"  witness point {witness}: x = ({coords})"

    def test_json_report(self, capsys, tmp_path):
        path = tmp_path / "metric.json"
        run(capsys, "generate", "metric", "--model", "flat", "--N", "3",
            "--out", str(path))
        code, out, _ = run(
            capsys,
            "oracle", str(path), "--model", "flat", "--N", "3",
            "--points", "2", "--bound", "3", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passes"] is True
        assert len(doc["points"]) == 2

    def test_points_validation(self, capsys, tmp_path):
        path = tmp_path / "metric.json"
        run(capsys, "generate", "metric", "--model", "sphere", "--N", "3",
            "--out", str(path))
        code, _, err = run(
            capsys, "oracle", str(path), "--model", "sphere", "--N", "3",
            "--points", "0",
        )
        assert code == 2
        assert err.startswith("error:")

    def test_points_over_the_cap_are_refused_before_sampling(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "metric.json"
        run(capsys, "generate", "metric", "--model", "sphere", "--N", "3",
            "--out", str(path))
        calls = []

        def sampler(*args, num_points, **kwargs):
            calls.append(num_points)
            raise LookupError("the stub samples nothing")

        monkeypatch.setattr(cli, "integrable_oracle", sampler)
        cap = cli._MAX_ORACLE_POINTS
        for points in (cap + 1, 10**9):
            code, out, err = run(
                capsys, "oracle", str(path), "--model", "sphere", "--N", "3",
                "--points", str(points),
            )
            assert (code, out) == (2, "")
            assert err == f"error: --points {points} is over the cap of {cap}\n"
        assert calls == []
        with pytest.raises(LookupError):
            cli.main(["oracle", str(path), "--model", "sphere", "--N", "3", "--points", str(cap)])
        assert calls == [cap]


class TestGenerateCommand:
    def test_stdout_document(self, capsys):
        code, out, _ = run(capsys, "generate", "random", "--seed", "7", "--N", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["dim"] == 4
        assert doc["form"] == "R"
        assert doc["metadata"]["generator"] == "random"
        assert doc["metadata"]["seed"] == 7

    def test_generation_is_deterministic(self, capsys):
        _, first, _ = run(capsys, "generate", "random", "--seed", "9", "--N", "3")
        _, second, _ = run(capsys, "generate", "random", "--seed", "9", "--N", "3")
        assert first == second

    def test_benenti_identity_matches_metric(self, capsys):
        _, metric_out, _ = run(
            capsys, "generate", "metric", "--model", "sphere", "--N", "3"
        )
        _, benenti_out, _ = run(
            capsys,
            "generate", "benenti", "--A", "identity", "--model", "sphere", "--N", "3",
        )
        metric_doc = json.loads(metric_out)
        benenti_doc = json.loads(benenti_out)
        assert benenti_doc["entries"] == metric_doc["entries"]
        assert benenti_doc["metadata"]["A"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_family_with_explicit_coefficients(self, capsys):
        _, metric_out, _ = run(
            capsys, "generate", "metric", "--model", "sphere", "--N", "3"
        )
        _, family_out, _ = run(
            capsys,
            "generate", "family", "--N", "3", "--seed", "1", "--bound", "3",
            "--lam0", "1/2", "--lam1", "0", "--lam2", "0",
        )
        family_doc = json.loads(family_out)
        assert family_doc["entries"] == json.loads(metric_out)["entries"]
        assert family_doc["metadata"]["lambdas"] == ["1/2", 0, 0]

    def test_generation_errors(self, capsys):
        code, _, err = run(capsys, "generate", "metric")
        assert code == 2
        assert "needs --N or --signature" in err
        code, _, err = run(
            capsys,
            "generate", "benenti", "--N", "3",
            "--A", "[[1,0,0],[0,1,0],[1,1,0]]",
        )
        assert code == 2
        assert "determinant" in err
        code, _, err = run(
            capsys, "generate", "family", "--N", "3", "--h", "[[1,2],[2,1]]"
        )
        assert code == 2
        assert "3x3" in err

    @pytest.mark.parametrize("kind", ["random", "benenti"])
    def test_a_document_the_reader_refuses_is_not_written(self, capsys, tmp_path, kind):
        # At bound 1000 the drawn denominators' lcm passes the reader's
        # 256-bit cap: generate exits 2 with the reader's message and
        # writes nothing, where it used to write a file check refused.
        out = tmp_path / "K.json"
        argv = ["generate", kind, "--N", "5", "--seed", "1", "--bound", "1000", "--model", "sphere"]
        code, stdout, err = run(capsys, *argv, "--out", str(out))
        assert code == 2 and not out.exists() and not stdout
        assert err == "error: tensor values need a common denominator of more than 256 bits; at most 256 are accepted\n"
        code, stdout, _ = run(capsys, *argv)
        assert code == 2 and not stdout

    @pytest.mark.parametrize("target", ["directory", "missing-parent"])
    def test_an_unwritable_out_path_exits_2(self, capsys, tmp_path, target):
        out = tmp_path if target == "directory" else tmp_path / "missing" / "K.json"
        code, stdout, err = run(
            capsys, "generate", "metric", "--model", "sphere", "--N", "3", "--out", str(out)
        )
        assert code == 2 and not stdout
        assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1


class TestRepresentationCommands:
    def test_repinfo_output(self, capsys):
        code, out, _ = run(capsys, "repinfo", "(2,2)", "--N", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "frame (2,2): 4 boxes"
        assert lines[1] == "hook lengths:"
        assert lines[2] == "  3 2"
        assert lines[3] == "  2 1"
        assert lines[4] == "hook product: 12"
        assert lines[5] == "symmetric group irreducible dimension: 2"
        assert lines[6] == "GL(4) irreducible dimension: 20"

    def test_lr_output(self, capsys):
        code, out, _ = run(capsys, "lr", "(1,1)", "(1,1)")
        assert code == 0
        assert out.splitlines()[0] == "(1,1) x (1,1) = (2,2) + (2,1,1) + (1,1,1,1)"

    def test_lr_multiplicities(self, capsys):
        code, out, _ = run(capsys, "lr", "(2,1)", "(2,1)")
        assert code == 0
        assert "2*(3,2,1)" in out.splitlines()[0]
        assert "(3,2,1)  multiplicity 2" in out

    @pytest.mark.parametrize("N", ["0", "-2"])
    def test_repinfo_at_N_below_one_prints_nothing(self, capsys, N):
        code, out, err = run(capsys, "repinfo", "(3,2)", "--N", N)
        assert code == 2
        assert out == ""
        assert err == "error: --N must be at least 1\n"

    def test_bad_frame_is_an_input_error(self, capsys):
        code, _, err = run(capsys, "repinfo", "(1,2)")
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [("repinfo", "(2000,)"), ("lr", "(1,)", "(2000,)"), ("repinfo", "(2,2)", "--N", "100001")],
        ids=["repinfo", "lr", "repinfo-N"],
    )
    def test_an_oversized_query_is_an_input_error(self, capsys, argv):
        # The hook product of (2000,) is 2000!, too long for Python to print.
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "over the cap" in err and err.count("\n") == 1

    def test_a_many_row_lr_product_is_an_input_error(self, capsys):
        # 72 boxes, well under the box cap, but over two million partial
        # fillings; the fillings budget stops it within a few seconds.
        start = time.perf_counter()
        code, out, err = run(capsys, "lr", "(12,10,8,6,4,2)", "(10,8,6,4,2)")
        assert time.perf_counter() - start < 15
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "partial fillings" in err

    def test_a_long_column_lr_product_is_an_input_error(self, capsys):
        # 400 boxes and few live fillings, but every filling of a column
        # has hundreds of rows to copy; the row budget stops it.
        column = "(" + ",".join(["1"] * 200) + ")"
        start = time.perf_counter()
        code, out, err = run(capsys, "lr", column, column)
        assert time.perf_counter() - start < 15
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "rows of partial fillings" in err
        assert err.count("\n") == 1


class TestIdentitiesCommand:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(
            capsys,
            "identities", "--N", "3", "--samples", "1", "--seed", "0", "--bound", "3",
        )
        assert code == 0
        assert "all identities verified: 1 samples at N=3" in out

    def test_the_redundancy_check_builds_no_dense_residual(self, capsys, monkeypatch):
        # A failing family member would expand the N^10 residual: 8 GiB
        # at N = 8.  The verdict is read from the canonical components.
        def refuse(self):
            raise AssertionError("the dense residual was built")

        monkeypatch.setattr(integrability._Residual, "tensor", refuse)
        code, out, _ = run(capsys, "identities", "--N", "3", "--samples", "2")
        assert code == 0
        assert "all identities verified: 2 samples at N=3" in out

    def test_a_failing_redundancy_check_is_reported(self, capsys, monkeypatch):
        # A generic curvature tensor is no family member, and its third
        # residual is nonzero.
        member = random_curvature(4, random.Random(4), bound=3)
        monkeypatch.setattr(cli, "family_rep", lambda *args, **kwargs: member)
        code, out, _ = run(capsys, "identities", "--N", "4", "--samples", "1")
        assert code == 1
        assert "sample 0: third-condition redundancy failed on a family member" in out
        assert "1 identity failure(s) over 1 samples at N=4" in out

    def test_argument_validation(self, capsys):
        code, _, err = run(capsys, "identities", "--N", "1")
        assert code == 2
        assert "--N must be at least 2" in err
        code, _, err = run(capsys, "identities", "--samples", "0")
        assert code == 2
        assert "--samples" in err
        code, _, err = run(capsys, "identities", "--N", "100000", "--samples", "1")
        assert code == 2
        assert err == "error: model dimension 100000 is over the cap of 64\n"

    def test_samples_over_the_cap_are_refused_before_sampling(self, capsys, monkeypatch):
        calls = []

        def sampler(dim, rng, bound):
            calls.append(dim)
            raise LookupError("the stub samples nothing")

        monkeypatch.setattr(cli, "random_curvature", sampler)
        # The cap bounds samples · max(N, 5)^8: 100 samples at N <= 5, 2 at N = 8.
        for dim, cap in ((3, 100), (5, 100), (8, 2)):
            assert cap == cli._MAX_IDENTITY_COST // max(dim, 5) ** 8
            for samples in (cap + 1, 10**9):
                code, out, err = run(capsys, "identities", "--N", str(dim), "--samples", str(samples))
                assert (code, out) == (2, "")
                assert err == f"error: --samples {samples} is over the cap of {cap} at --N {dim}\n"
            assert calls == []
            with pytest.raises(LookupError):
                cli.main(["identities", "--N", str(dim), "--samples", str(cap)])
            assert calls == [dim]
            calls.clear()

    def test_the_default_samples_at_the_largest_dimension_are_refused(self, capsys):
        # Ten samples at N = 8 would run about a minute; the cost cap stops
        # them at once.
        code, out, err = run(capsys, "identities", "--N", "8")
        assert (code, out) == (2, "")
        assert err == "error: --samples 10 is over the cap of 2 at --N 8\n"

    def test_dimensions_over_the_cap_are_refused_before_sampling(self, capsys, monkeypatch):
        calls = []

        def sampler(dim, rng, bound):
            calls.append(dim)
            raise LookupError("the stub samples nothing")

        monkeypatch.setattr(cli, "random_curvature", sampler)
        cap = cli._MAX_IDENTITY_DIM
        for dim in (cap + 1, 20):
            code, out, err = run(capsys, "identities", "--N", str(dim), "--samples", "1")
            assert (code, out) == (2, "")
            assert err == f"error: --N {dim} is over the cap of {cap}\n"
        assert calls == []
        with pytest.raises(LookupError):
            cli.main(["identities", "--N", str(cap), "--samples", "1"])
        assert calls == [cap]


class TestTopLevelBehaviour:
    def test_help_exits_cleanly(self, capsys):
        assert cli.main(["--help"]) == 0
        out = capsys.readouterr().out
        for name in ("check", "oracle", "generate", "repinfo", "lr", "identities"):
            assert name in out

    def test_missing_subcommand_is_an_input_error(self, capsys):
        assert cli.main([]) == 2
        assert cli.main(["no-such-command"]) == 2
        capsys.readouterr()

    def test_missing_tensor_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "check", str(tmp_path / "nope.json"), "--model", "sphere", "--N", "3"
        )
        assert code == 2
        assert err.startswith("error:")

    def test_non_utf8_files_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff" + json.dumps({"kind": "sphere", "N": 3}).encode())
        good = tmp_path / "metric.json"
        io.save_tensor(good, metric_rep(sphere(3)))
        for argv, message in (
            ([str(bad), "--model", "sphere", "--N", "3"], f"error: cannot read tensor file {bad}: "),
            ([str(good), "--model", str(bad)], f"error: cannot read model descriptor '{bad}': "),
        ):
            for command in ("check", "oracle"):
                code, out, err = run(capsys, command, *argv)
                assert code == 2 and not out
                assert err.startswith(message) and "can't decode byte 0xff" in err
                assert err.count("\n") == 1

    def test_deeply_nested_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000, encoding="utf-8")
        code, out, err = run(capsys, "check", str(path), "--model", "sphere", "--N", "3")
        assert code == 2 and not out
        assert err.startswith(f"error: tensor file {path} nests too deeply to parse: ")
        assert err.count("\n") == 1

    def test_undeclared_form_is_rejected(self, capsys, tmp_path):
        path = tmp_path / "plain.json"
        path.write_text(
            json.dumps({"dim": 3, "order": 4, "entries": []}), encoding="utf-8"
        )
        code, _, err = run(capsys, "check", str(path), "--model", "sphere", "--N", "3")
        assert code == 2
        assert "does not declare a form" in err

    def test_unallocatable_shape_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(
            json.dumps({"dim": 1000000, "order": 4, "entries": [], "form": "R"}),
            encoding="utf-8",
        )
        code, _, err = run(capsys, "check", str(path), "--model", "sphere", "--N", "3")
        assert code == 2
        assert err.startswith("error:") and "too large" in err

    def test_dimension_mismatch_is_reported(self, capsys, tmp_path):
        path = tmp_path / "metric4.json"
        run(capsys, "generate", "metric", "--model", "sphere", "--N", "4",
            "--out", str(path))
        code, _, err = run(capsys, "check", str(path), "--model", "sphere", "--N", "3")
        assert code == 2
        assert "does not match model dimension" in err

    def test_dimension_is_checked_before_the_class(self, capsys, tmp_path, monkeypatch):
        calls = []
        validate = CurvatureTensor._validate
        monkeypatch.setattr(
            CurvatureTensor, "_validate", lambda self, arr: calls.append(1) or validate(self, arr)
        )
        path = tmp_path / "dim40.json"
        path.write_text('{"dim": 40, "order": 4, "entries": [], "form": "R"}', encoding="utf-8")
        for command in ("check", "oracle"):
            code, _, err = run(capsys, command, str(path), "--model", "sphere", "--N", "3")
            assert code == 2
            assert "does not match model dimension" in err
        assert calls == []

    def test_overlong_numbers_are_input_errors(self, capsys, tmp_path):
        literal = tmp_path / "literal.json"
        literal.write_text(
            '{"dim": 3, "order": 4, "form": "R", "entries": '
            '[{"idx": [0, 1, 0, 1], "val": ' + "7" * 4400 + "}]}",
            encoding="utf-8",
        )
        exponent = tmp_path / "exponent.json"
        exponent.write_text(
            '{"dim": 3, "order": 4, "form": "R", "entries": '
            '[{"idx": [0, 1, 0, 1], "val": "1e999999999"}]}',
            encoding="utf-8",
        )
        for path, message in ((literal, "not valid JSON"), (exponent, "cannot parse")):
            code, _, err = run(capsys, "check", str(path), "--model", "sphere", "--N", "3")
            assert code == 2
            assert err.startswith("error:") and message in err
        code, _, err = run(
            capsys, "generate", "benenti", "--N", "2", "--A", "[[" + "1" * 4400 + ", 0], [0, 1]]"
        )
        assert code == 2
        assert "not valid JSON" in err

    def test_non_integer_index_items_exit_2(self, capsys, tmp_path):
        # Read through int(), [1.5, 0, 1, 0] used to load as component (1, 0, 1, 0).
        doc = io.tensor_to_document(metric_rep(sphere(3)))
        record = next(r for r in doc["entries"] if r["idx"] == [1, 0, 1, 0])
        record["idx"] = [1.5, 0, 1, 0]
        path = tmp_path / "float-index.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for command in ("check", "oracle"):
            code, out, err = run(capsys, command, str(path), "--model", "sphere", "--N", "3")
            assert (code, out) == (2, "")
            assert err.startswith("error: malformed entry record") and "[1.5, 0, 1, 0]" in err

    def test_bad_signature_flag(self, capsys, tmp_path):
        path = tmp_path / "metric.json"
        run(capsys, "generate", "metric", "--model", "sphere", "--N", "3",
            "--out", str(path))
        code, _, err = run(
            capsys, "check", str(path), "--model", "sphere", "--signature", "3"
        )
        assert code == 2
        assert "exactly two integers" in err

    def test_unknown_form_flag(self, capsys, tmp_path):
        path = tmp_path / "metric.json"
        run(capsys, "generate", "metric", "--model", "sphere", "--N", "3",
            "--out", str(path))
        code, _, err = run(
            capsys,
            "check", str(path), "--model", "sphere", "--N", "3", "--form1", "bogus",
        )
        assert code == 2
        assert "ConditionForm1" in err

    @pytest.mark.parametrize("command", ["check", "oracle"])
    @pytest.mark.parametrize(
        "descriptor",
        [
            '{"kind": "sphere", "N": "x"}',
            '{"kind": "sphere", "N": Infinity}',
            '{"kind": "sphere", "signature": ["a", 1]}',
            '{"kind": "flat", "N": 3, "u": 5}',
            '{"kind": "flat", "N": 3, "u": ["1", 0]}',
            '{"kind": "flat", "N": 1000000000}',
            # Flags that contradict or garble a valid model.
            pytest.param(("sphere", "--signature", "a,b"), id="signature-not-integers"),
            pytest.param(("MODEL_FILE", "--N", "4"), id="N-against-a-file"),
            pytest.param(("MODEL_FILE", "--signature", "2,1"), id="signature-against-a-file"),
        ],
    )
    def test_malformed_model_descriptor_exits_2(self, capsys, tmp_path, command, descriptor):
        path = tmp_path / "metric.json"
        run(capsys, "generate", "metric", "--model", "sphere", "--N", "3",
            "--out", str(path))
        model = tmp_path / "model.json"
        model.write_text('{"kind": "sphere", "N": 3}', encoding="utf-8")
        flags = [descriptor] if isinstance(descriptor, str) else [
            str(model) if flag == "MODEL_FILE" else flag for flag in descriptor
        ]
        code, out, err = run(capsys, command, str(path), "--model", *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        if "MODEL_FILE" in descriptor:
            conflict = "signature" if "--signature" in descriptor else "dimension"
            assert f"conflicts with model {conflict}" in err
        elif "--signature" in descriptor:
            assert "--signature expects integers" in err

    @pytest.mark.parametrize("flags", [("MODEL_FILE", "--signature", "3,0"), ("INLINE", "--signature", "(3, 0)")])
    def test_a_signature_that_agrees_with_the_descriptor_is_accepted(self, capsys, tmp_path, flags):
        path = tmp_path / "metric.json"
        run(capsys, "generate", "metric", "--model", "sphere", "--N", "3", "--out", str(path))
        model = tmp_path / "model.json"
        model.write_text('{"kind": "sphere", "N": 3}', encoding="utf-8")
        descriptor = {"MODEL_FILE": str(model), "INLINE": '{"kind": "sphere", "N": 3}'}[flags[0]]
        code, out, err = run(capsys, "check", str(path), "--model", descriptor, *flags[1:])
        assert code == 0 and err == ""
        assert out.startswith("model: sphere (3,0), ambient dimension 3")

    def test_running_out_of_memory_is_one_error_line(self, capsys, tmp_path, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 2.81 GiB for an array")

        path = tmp_path / "metric.json"
        run(capsys, "generate", "metric", "--model", "sphere", "--N", "3", "--out", str(path))
        monkeypatch.setattr(cli, "check", exhausted)
        code, out, err = run(capsys, "check", str(path), "--model", "sphere", "--N", "3")
        assert code == 2 and out == ""
        assert err == "error: out of memory: Unable to allocate 2.81 GiB for an array\n"

    @pytest.mark.parametrize("bound", ["0", "-3"])
    @pytest.mark.parametrize(
        "command",
        [
            ("oracle", "METRIC_FILE", "--model", "sphere", "--N", "3"),
            ("generate", "benenti", "--model", "sphere", "--N", "3"),
            ("generate", "family", "--model", "sphere", "--N", "3"),
            ("generate", "random", "--N", "3"),
            ("identities", "--N", "3", "--samples", "1"),
        ],
        ids=["oracle", "generate-benenti", "generate-family", "generate-random", "identities"],
    )
    def test_bound_below_one_exits_2(self, capsys, tmp_path, command, bound):
        path = tmp_path / "metric.json"
        run(capsys, "generate", "metric", "--model", "sphere", "--N", "3",
            "--out", str(path))
        argv = [str(path) if arg == "METRIC_FILE" else arg for arg in command]
        code, out, err = run(capsys, *argv, "--bound", bound)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "bound must be at least 1" in err

    def test_bound_over_the_cap_exits_2_before_any_work(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "metric.json"
        run(capsys, "generate", "metric", "--model", "sphere", "--N", "3", "--out", str(path))
        commands = [
            ("oracle", str(path), "--model", "sphere", "--N", "3", "--points", "1"),
            ("generate", "random", "--N", "3"),
            ("identities", "--N", "3", "--samples", "1"),
        ]
        cap = cli._MAX_BOUND
        for command in commands:
            code, out, _ = run(capsys, *command, "--bound", str(cap))
            assert code in (0, 1) and out

        def refuse(*args, **kwargs):
            raise LookupError("no work is done past an over-cap bound")

        for name in ("_resolve_model", "random_curvature", "r_to_s"):
            monkeypatch.setattr(cli, name, refuse)
        for command in commands:
            for bound in (cap + 1, 10**1200):
                code, out, err = run(capsys, *command, "--bound", str(bound))
                assert (code, out) == (2, "")
                assert err == f"error: --bound {bound} is over the cap of {cap}\n"


class TestNoConversionsOnTheCheckPath:
    """``check`` reads a file straight into the integer image and never
    builds a Fraction view of a tensor or rescales a Fraction array."""

    @pytest.mark.parametrize("form", ["R", "S"])
    @pytest.mark.parametrize(
        "model_flags",
        [("sphere", "--N", "4"), ("sphere", "--signature", "3,1"), ("flat", "--N", "4")],
        ids=["sphere", "lorentzian", "flat"],
    )
    def test_check_converts_nothing(self, capsys, tmp_path, monkeypatch, form, model_flags):
        path = tmp_path / "benenti.json"
        run(capsys, "generate", "benenti", "--model", *model_flags, "--seed", "4",
            "--out", str(path))
        if form == "S":
            R, metadata = io.load_tensor(path)
            io.save_tensor(path, r_to_s(R), metadata=metadata)
        calls = []
        for name in ("_fraction_view", "_rescale"):
            original = getattr(tensor_module, name)
            monkeypatch.setattr(
                tensor_module, name,
                lambda *args, name=name, original=original: calls.append(name) or original(*args),
            )
        for extra in ((), ("--json",)):
            code, out, _ = run(capsys, "check", str(path), "--model", *model_flags, *extra)
            assert code == 0 and out
        assert calls == []
        # The counters see the conversions they count.
        assert Tensor.from_nested([1, 2]).array is not None
        assert calls == ["_rescale", "_fraction_view"]


class TestTensorFileLimits:
    def test_wide_values_exit_2(self, capsys, tmp_path):
        # A valid 400 KB file whose integer image has a 13 230-bit scale;
        # check() on it took about 27 s before the cap.
        path = tmp_path / "wide.json"
        io.save_tensor(path, wide_curvature(4, 200, seed=0))
        for command in ("check", "oracle"):
            code, _, err = run(capsys, command, str(path), "--model", "sphere", "--N", "4")
            assert code == 2
            assert err.startswith("error:") and "more than 256 bits" in err

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
    def test_an_endless_device_exits_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(io, "_MAX_FILE_BYTES", 4096)
        good = tmp_path / "metric.json"
        io.save_tensor(good, metric_rep(sphere(3)))
        for argv, message in (
            (["/dev/zero", "--model", "sphere", "--N", "3"], "error: tensor file /dev/zero is over the cap of 4096 bytes"),
            ([str(good), "--model", "/dev/zero"], "error: model descriptor '/dev/zero' is over the cap of 4096 bytes"),
        ):
            for command in ("check", "oracle"):
                code, out, err = run(capsys, command, *argv)
                assert code == 2 and not out
                assert err == message + "\n"

    def test_a_regular_file_over_the_byte_cap_exits_2(self, capsys, tmp_path, monkeypatch):
        tensor_path, model_path = tmp_path / "metric.json", tmp_path / "model.json"
        io.save_tensor(tensor_path, metric_rep(sphere(3)))
        model_path.write_text('{"kind": "sphere", "N": 3}', encoding="utf-8")
        cap = tensor_path.stat().st_size
        monkeypatch.setattr(io, "_MAX_FILE_BYTES", cap)
        argv = [str(tensor_path), "--model", str(model_path)]
        assert run(capsys, "check", *argv)[0] == 0  # a file at the cap is read
        # Valid JSON one byte over the cap, in either file.
        for path in (tensor_path, model_path):
            text = path.read_text(encoding="utf-8")
            path.write_text(text + " " * (cap + 1 - len(text.encode())), encoding="utf-8")
            code, out, err = run(capsys, "check", *argv)
            assert code == 2 and not out
            assert err.startswith("error:") and f"over the cap of {cap} bytes" in err
            assert err.count("\n") == 1
            path.write_text(text, encoding="utf-8")

    def test_values_at_the_cap_are_checked(self, capsys, tmp_path):
        scaled = metric_rep(sphere(3)) * Fraction(2**256 - 1, 2**256 - 3)
        assert image_bits(scaled.tensor) == (256, 256)
        path = tmp_path / "at-cap.json"
        io.save_tensor(path, scaled)
        code, out, _ = run(capsys, "check", str(path), "--model", "sphere", "--N", "3")
        assert code == 0
        assert "integrable: yes" in out


@pytest.fixture
def fresh_parser():
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def _without_timing(text):
    """Drop the wall-clock lines and fields, which differ from run to run."""
    lines = [line for line in text.splitlines() if "elapsed" not in line]
    return "\n".join(lines)


class TestCachedParser:
    def _sequence(self, tmp_path):
        path = tmp_path / "family.json"
        cli.main(["generate", "family", "--N", "3", "--seed", "2", "--bound", "3",
                  "--out", str(path)])
        model = ["--model", "sphere", "--N", "3"]
        return [
            ["check", str(path), *model],
            ["oracle", str(path), *model, "--points", "2", "--bound", "3", "--json"],
            ["check", str(path), *model, "--bogus"],
            ["check", str(path), *model, "--form1", "hook-d", "--json"],
            ["check", str(path), *model],
            ["--help"],
            ["check", "--help"],
        ]

    def test_outputs_match_fresh_processes(self, capsys, tmp_path, monkeypatch, fresh_parser):
        # The parser is built at one terminal width and prints at another.
        monkeypatch.setenv("COLUMNS", "200")
        sequence = self._sequence(tmp_path)
        monkeypatch.setenv("COLUMNS", "80")
        capsys.readouterr()
        in_process = []
        for argv in sequence:
            code = cli.main(argv)
            captured = capsys.readouterr()
            in_process.append((code, _without_timing(captured.out), captured.err))
        env = dict(os.environ, COLUMNS="80")
        src = str(Path(killingtensor.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        fresh = []
        for argv in sequence:
            proc = subprocess.run(
                [sys.executable, "-m", "killingtensor.cli", *argv],
                capture_output=True, text=True, env=env, timeout=120,
            )
            fresh.append((proc.returncode, _without_timing(proc.stdout), proc.stderr))
        assert [row[0] for row in in_process] == [0, 0, 2, 0, 0, 0, 0]
        assert in_process[4] == in_process[0]
        assert "unrecognized arguments: --bogus" in in_process[2][2]
        assert in_process == fresh

    def test_parser_is_built_once(self, capsys, tmp_path, monkeypatch, fresh_parser):
        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        sequence = self._sequence(tmp_path)
        for argv in sequence:
            cli.main(argv)
        capsys.readouterr()
        assert builds == [1]

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()
