"""Self-tests of the benchmark.

    python3 -m pytest bench -q

They run every workload at its tiny size, so they take seconds, not minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def _bench(workload: str, trace: int) -> dict:
    proc = _run(
        "bench/run.py", "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--size", "tiny",
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _worker(workload: str, mode: str) -> dict:
    proc = _run(
        "bench/worker.py", "--workload", workload, "--seed", "7", "--mode", mode, "--size", "tiny"
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_each_workload_emits_every_metric(workload, trace):
    result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_runs_give_identical_outcomes(workload):
    passes = [_worker(workload, mode) for mode in ("plain", "spans", "counts")]
    assert len({p["outcomes_sha256"] for p in passes}) == 1
    assert len({tuple(p["labels"]) for p in passes}) == 1
    assert "layers" not in passes[0] and passes[1]["layers"] and passes[2]["layers"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_op_order_but_not_op_mix(workload):
    first = [op.label for op in workloads.make_ops(workload, 1)[0]]
    second = [op.label for op in workloads.make_ops(workload, 2)[0]]
    again = [op.label for op in workloads.make_ops(workload, 1)[0]]
    assert first == again
    assert first != second
    assert Counter(first) == Counter(second)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_oracle_counts_a_missing_outcome_as_failed(workload):
    ops, _ = workloads.make_ops(workload, 3, "tiny")
    for op in ops:
        status, _ = op.check(None, RuntimeError("no outcome"))
        assert status == workloads.FAIL, op.label


def test_oracle_rejects_a_wrong_profile():
    ops, _ = workloads.make_ops("boundary-search", 3, "tiny")
    op = next(op for op in ops if op.label.startswith("diag-theorem E:6"))
    code, report, text = op.run()
    assert op.check((code, report, text), None)[0] == workloads.OK
    report["payload"]["profile"][0] += 1
    text = json.dumps(report)
    assert op.check((code, report, text), None)[0] == workloads.FAIL


def test_all_zero_t_is_reported_as_the_known_gap_not_hidden():
    ops, _ = workloads.make_ops("catalog-ingest", 3, "tiny")
    (op,) = [op for op in ops if op.label.endswith("t-zero")]
    try:
        result, error = op.run(), None
    except Exception as exc:  # the fixed program rejects the document
        result, error = None, exc
    status, _ = op.check(result, error)
    assert status == (workloads.GAP if error is None else workloads.OK)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(
        "bench/run.py", "--workload", "module-stream", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
