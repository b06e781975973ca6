"""Tests of the benchmark itself (not collected by the package's suite).

    python3 -m pytest perfbench

The end-to-end tests run every workload in smoke mode (tiny windows).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SPEC = json.loads((BENCH / "spec.json").read_text())


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_is_the_contract_view_of_the_spec():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert bench["paths"] == ["perfbench"]
    assert bench["run_seconds"] == SPEC["run_seconds"]
    assert bench["workloads"] == [{"name": w["name"], "why": w["why"]} for w in SPEC["workloads"]]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert bench["end_to_end"] == [
        {k: m[k] for k in ("name", "unit", "better", "bound")} for m in SPEC["end_to_end"]
    ]
    assert bench["per_layer"] == [
        {k: m[k] for k in ("name", "unit", "better")} for m in SPEC["per_layer"]
    ]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run_is_correct_and_reports_every_end_to_end_metric(name):
    result = _result(_run("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


def test_traced_counts_repeat_exactly():
    args = ("--workload", "leftsym-frac", "--seed", "5", "--seconds", "1", "--trace", "1", "--smoke")
    first, second = _result(_run(*args)), _result(_run(*args))
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes")]
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}
    assert first["metrics"]["leftsym.mul_keys_calls"]["value"] > 0
    assert first["metrics"]["bimaps.assembly_s"]["value"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = _run("--workload", "solve-graded", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_inputs_depend_only_on_the_seed():
    build = lambda seed: workloads.build("check-exhaustive", seed, "w")  # noqa: E731
    assert build(7).files == build(7).files
    assert build(7).files != build(8).files
    assert [c.argv for c in build(7).commands] == [c.argv for c in build(8).commands]


def test_gaussian_text_round_trips():
    for value in [(Fraction(1, 2), Fraction(-3, 5)), (Fraction(-4, 3), Fraction(1, 2))]:
        assert workloads.parse_gauss(workloads.gauss_text(value)) == value
    assert workloads.parse_gauss("(1/2+i)") == (Fraction(1, 2), Fraction(1))
    assert workloads.parse_gauss("-i") == (0, -1)
    assert workloads.parse_gauss("3/2i") == (0, Fraction(3, 2))
    assert workloads.parse_gauss("-3") == (-3, 0)
    assert workloads.parse_element("(1+i)*L(-1) + 2*L(3) - 1/2*I(-2) - C1") == {
        "L(-1)": (1, 1), "L(3)": (2, 0), "I(-2)": (Fraction(-1, 2), 0), "C1": (-1, 0),
    }


def test_checks_reject_wrong_outputs():
    header = "hvalgebra 0.1.0\ncommand: x\n"
    dim = workloads.check_dimension(2)
    assert dim(0, header + "dimension: 2\n") is None
    assert dim(0, header + "dimension: 3\n") is not None
    assert dim(2, header + "dimension: 2\n") is not None
    assert workloads.check_dimension(6, at_least=True)(0, header + "dimension: 7\n") is None
    assert workloads.check_dimension(6, at_least=True)(0, header + "dimension: 5\n") is not None

    central = workloads.check_report(False, 4, central_only=True)
    failing = header + "status: fail\nchecked: 4\nskipped: 0\n"
    assert central(1, failing + "counterexample: (L(1), L(2), L(3)) [first-slot] residual = 2*C2\n") is None
    assert central(1, failing + "counterexample: (L(1), L(2), L(3)) [first-slot] residual = I(6)\n")
    assert central(1, failing) is not None  # a failure must show a counterexample
    assert central(1, header + "status: fail\nchecked: 5\nskipped: 0\ncounterexample: () [x] residual = C1\n")

    x = {"L(3)": (Fraction(1, 2), Fraction(1, 3))}
    outer = ((Fraction(1), Fraction(1)), (Fraction(-2), Fraction(0)), (Fraction(0), Fraction(1, 3)))
    good = header + "status: decomposed\nad((1/2+1/3i)*L(3)) + (1+i)*d1 + (-2)*d2 + (1/3i)*d3\n"
    assert workloads.check_decomposition(x, outer)(0, good) is None
    assert workloads.check_decomposition(x, outer)(0, good.replace("(-2)*d2", "(2)*d2"))
    assert workloads.check_decomposition(x, outer)(0, good.replace("L(3)", "L(2)"))
