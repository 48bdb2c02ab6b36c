"""Self-tests of the benchmark at smoke size.

    python3 -m pytest perfbench/tests -q

Everything is written below .bench_build/perfbench-tests in the checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SCRATCH = ROOT / ".bench_build" / "perfbench-tests"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def scratch(request):
    path = SCRATCH / request.node.name.replace("[", "-").replace("]", "")
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_workload_tables_agree():
    assert run.WORKLOADS == tuple(workloads.WORKLOADS)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == spans.metric_names()
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_emitted_with_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_cold_repetitions_repeat_kernel_counts_and_csv_bytes(scratch):
    untraced = run.run_child("qbp_small", 5, scratch / "plain", False, True, 120)
    traced = [run.run_child("qbp_small", 5, scratch / f"traced{k}", True, True, 120)
              for k in range(2)]
    counts = []
    for k in range(2):
        layer = spans.derive(json.loads((scratch / f"traced{k}" / "spans.json").read_text()), 0.0)
        counts.append({n: v for n, v in layer.items()
                       if n.startswith("kernel.") and n.endswith(".calls")})
    assert counts[0]["kernel.eigh.calls"] > 0
    assert counts[0] == counts[1]
    assert untraced["digest"] == traced[0]["digest"] == traced[1]["digest"]


def test_gate_flags_corrupted_reference(scratch, monkeypatch):
    result = run.run_child("gibbs_lightcone", 0, scratch / "rep", False, True, 120)
    assert result["items"] and all(ok for _, ok, _ in result["items"])

    def failing(gate):
        return [label for label, ok, _ in gate(str(scratch / "rep")) if not ok]

    # a corrupted oracle reference fails every row it checks ...
    exact = workloads.oracles.ising_transfer_correlation
    with monkeypatch.context() as m:
        m.setattr(workloads.oracles, "ising_transfer_correlation",
                  lambda *a: exact(*a) * (1 + 1e-6))
        bad = failing(workloads.gibbs_lightcone_gate)
    rows = [label for label, _, _ in result["items"] if label.startswith("ising_oracle[")]
    assert rows and bad == rows

    # ... and a corrupted measured value fails exactly its own row
    path = scratch / "rep" / "clustering_ising" / "clustering_sweep.csv"
    lines = path.read_text().splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    fields = lines[header + 1].split(",")
    col = lines[header].split(",").index("cor_abs")
    fields[col] = repr(float(fields[col]) * (1 + 1e-6))
    lines[header + 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")

    bad = failing(workloads.gibbs_lightcone_gate)
    assert len(bad) == 1 and bad[0].startswith("ising_oracle[")


def test_scaling_uses_the_median_reading_of_the_run():
    reps = [{"calibration_cpu": [0.7, 1.0], "certify_cpu_s": 5.0, "setup_cpu_s": 1.0},
            {"calibration_cpu": [1.0, 0.9], "certify_cpu_s": 6.0, "setup_cpu_s": 2.0}]
    assert run.scale_to_reference(reps) == 0.9
    scale = (run.CALIBRATION_REF_S / 0.9) ** 0.5
    assert [r["certify_s"] for r in reps] == pytest.approx([5.0 * scale, 6.0 * scale])
    assert [r["setup_s"] for r in reps] == pytest.approx([1.0 * scale, 2.0 * scale])


def test_refuses_to_run_without_sources(scratch):
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    shutil.copytree(BENCH, scratch / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = bench("--workload", "qbp_small", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=scratch)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
