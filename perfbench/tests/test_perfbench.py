"""Self-test of the benchmark: tiny runs, the oracle, and repeatable counts.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import harness
import scenarios as sc
from conftest import BENCH, ROOT

WORKLOADS = ("grid-n128", "scan-n64", "verify-n8")

# Count metrics: exact functions of the seed, never of timing.
COUNT_SUFFIXES = (
    ".calls_per_unit", "samples_per_arc", ".false_certificates", ".false_rejections",
    ".out_bytes_per_unit", ".csv_bad_tokens_per_unit", ".precondition_raised",
    ".singular_raised", ".repeat_frac", ".flops_per_unit",
)


def tiny_run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_untraced_run_reports_every_end_to_end_metric(workload):
    result = tiny_run(workload, 3, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert [(k, m["unit"]) for k, m in result["metrics"].items()] == list(harness.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly_for_one_seed(workload):
    first, second = tiny_run(workload, 5, 1), tiny_run(workload, 5, 1)
    assert [(k, m["unit"]) for k, m in first["metrics"].items()] == harness.per_layer_names()
    counts = [k for k in first["metrics"] if k.endswith(COUNT_SUFFIXES)]
    assert len(counts) > 30
    for key in counts:
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key


def test_scan_counts_false_certificates_as_failed_units():
    result = tiny_run("scan-n64", 2, 0)
    assert result["failed"] > 0
    assert result["metrics"]["ok_frac"]["value"] == pytest.approx(1 - result["failed"] / result["attempted"])


def test_oracle_scores_the_sampling_repro_as_false_certificate(tmp_path):
    """seed 1, first 60 columns of random_unitary(rng, 64), a unitary constant
    parameter, arc (0.1, 0.3), 16 samples: certified although atoms lie inside."""
    from isoresolvent import cli
    from isoresolvent.isometry import IsometricOperator
    from isoresolvent.sampling import random_unitary, random_unitary_parameter

    rng = np.random.default_rng(1)
    u = random_unitary(rng, 64)
    domain, image = np.eye(64, dtype=complex)[:, :60], u[:, :60]
    c = random_unitary_parameter(rng, IsometricOperator(64, domain, image))
    # The unitary extension V + C, assembled here without the package.
    t = image @ domain.conj().T + c.dst.basis @ c.matrix @ c.src.basis.conj().T
    path, out = str(tmp_path / "repro.json"), str(tmp_path / "report.json")
    sc.write_json(path, sc.scenario_doc(domain, image, 0j, c.matrix))

    arc = (0.1, 0.3)
    code = cli.main([path, "gap-scan", "--arc", "0.1", "0.3", "--samples", "16", "--out", out])
    with open(out) as fh:
        report = json.load(fh)
    atoms = sc.atoms_inside(sc.obstruction_angles(t), arc)
    assert atoms == 3
    assert sc.score_gap_scan(code, report, atoms).kind == "false_certificate"


def test_fails_without_package_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-n8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
