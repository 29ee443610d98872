"""Smoke test of the benchmark harness at N = 3 only.

Run from the root of a checkout:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int) -> str:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.1", "--trace", str(trace), "--dims", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(workload: str, trace: int) -> None:
    stdout = _run(workload, trace)
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        line = rf"^{re.escape(metric['name'])} = \S+ {re.escape(metric['unit'])}$"
        assert re.search(line, stdout, re.MULTILINE), metric["name"]
    assert re.search(r"^failed_frac = 0 ratio \(failed 0 of \d+ ops\)$", stdout, re.MULTILINE)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_wrong_expected_verdict_counts_as_failed(workload: str, tmp_path: Path) -> None:
    built = workloads.build(workload, 5, tmp_path, dims=(3,))
    built.resolve_references()
    wrong = built.strata[0][0]
    wrong.expected = not wrong.expected if isinstance(wrong.expected, bool) else ()
    loop = run.Loop(built)
    loop.run_round()
    assert len(loop.latencies_ms) == len(built.strata)
    assert len(loop.failures) == 1
    assert loop.failures[0].startswith(wrong.label + ": expected")
