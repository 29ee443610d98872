"""End-to-end tests of the command-line interface (exit codes and output)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import killingtensor
from conftest import image_bits, sphere, wide_curvature
from killingtensor import CurvatureTensor, Tensor, cli, io, metric_rep, r_to_s
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
            assert "conflicts with model dimension" in err
        elif "--signature" in descriptor:
            assert "--signature expects integers" in err

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
