"""Acceptance gate: every certified criterion at its fixed tolerance.

The full suite runs once in a module fixture (printing one line per
criterion); the individual tests then assert each criterion's verdict.  The
determinism criterion is additionally exercised in its literal form: two
consecutive acceptance runs with the same config must produce byte-identical
CSV bodies.
"""

import csv
import math

import pytest

from gibbschain import csvio
from gibbschain.config import ExperimentConfig
from gibbschain.experiments import run_experiment


@pytest.fixture(scope="module")
def acceptance_run(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("acceptance_run1")
    cfg = ExperimentConfig(experiment="acceptance", output_dir=str(outdir))
    manifest = run_experiment(cfg, output_dir=str(outdir))
    return manifest, outdir


def _criterion_check(manifest, number):
    hits = [c for c in manifest.checks if c[0].startswith(f"criterion_{number:02d}_")]
    main = [c for c in hits if not c[0].endswith("_runtime")]
    assert len(main) == 1, f"criterion {number} missing from the manifest"
    label, passed, detail = main[0]
    assert passed, f"{label} failed: {detail}"
    for label, passed, detail in hits:
        if label.endswith("_runtime"):
            assert passed, f"{label} over budget: {detail}"


def test_no_runtime_errors(acceptance_run):
    manifest, _ = acceptance_run
    assert manifest.errors == []


@pytest.mark.parametrize("number", range(1, 14))
def test_criterion(acceptance_run, number):
    manifest, _ = acceptance_run
    _criterion_check(manifest, number)


def test_acceptance_outputs_written(acceptance_run):
    manifest, outdir = acceptance_run
    names = {name for name, _, _ in manifest.files}
    assert {"acceptance.csv", "acceptance_detail.csv"} <= names
    assert (outdir / "manifest.txt").exists()
    assert manifest.all_passed


def test_acceptance_csv_lists_every_criterion_in_order(acceptance_run):
    _, outdir = acceptance_run
    with open(outdir / "acceptance.csv", newline="") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert [(int(r["criterion"]), r["title"]) for r in rows] == [
        (1, "filter_normalization"), (2, "qbp_reconstruction"), (3, "bp_window_locality"),
        (4, "lr_certification"), (5, "subset_evolution"), (6, "block_interaction"),
        (7, "truncation_bounds"), (8, "operator_lemmas"), (9, "disconnected_traces"),
        (10, "commuting_clustering"), (11, "correlation_length"), (12, "gamma_machinery"),
        (13, "determinism"),
    ]


def test_acceptance_detail_rows_have_five_fields(acceptance_run):
    # labels such as n=10,beta=0.5,r=7 hold commas; quoting keeps each one field
    _, outdir = acceptance_run
    with open(outdir / "acceptance_detail.csv", newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    assert rows[0] == ["criterion", "label", "measured", "bound", "ok"]
    assert len(rows) > 1 and all(len(row) == 5 for row in rows)
    assert any("," in row[1] for row in rows)


def test_every_acceptance_row_can_fail(acceptance_run):
    # a row with an infinite bound or a measured value that is not a number
    # checks nothing of its own, nor does a vacuous row, whose measured 0 is exact
    _, outdir = acceptance_run
    with open(outdir / "acceptance_detail.csv", newline="") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    loose = [row["label"] for row in rows
             if not (math.isfinite(float(row["measured"])) and math.isfinite(float(row["bound"])))
             or row["label"].endswith("vacuous")]
    assert rows and loose == []


def test_acceptance_rerun_byte_identical(acceptance_run, tmp_path_factory):
    _, first_dir = acceptance_run
    outdir = tmp_path_factory.mktemp("acceptance_run2")
    cfg = ExperimentConfig(experiment="acceptance", output_dir=str(outdir))
    manifest = run_experiment(cfg, output_dir=str(outdir))
    assert manifest.all_passed
    for name in ("acceptance.csv", "acceptance_detail.csv"):
        b1 = csvio.csv_body_bytes(first_dir / name)
        b2 = csvio.csv_body_bytes(outdir / name)
        assert b1 == b2, f"{name} bodies differ between consecutive runs"
