"""Smoke runs of the example scripts as subprocesses."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_accuracy_sweep_tabulates_every_cell():
    out = run_script("accuracy_sweep.py", "--instances", "2")
    rows = [line.split() for line in out.splitlines()]
    cells = [row for row in rows if len(row) == 7 and row[1].isdigit()]
    assert len(cells) == 16
    assert {(float(r[0]), int(r[1])) for r in cells} == {
        (a, T) for a in (0.25, 0.5, 1.0, 2.0) for T in (4, 8, 12, 16)}


def test_reflection_demo_shows_unit_jump():
    out = run_script("reflection_demo.py", "--size", "3")
    jump = [line for line in out.splitlines()
            if line.startswith("jump at s = 6:")]
    assert len(jump) == 1
    assert abs(float(jump[0].split()[5]) - 1.0) <= 1e-9


def test_stage_times_records_every_stage(tmp_path):
    out = tmp_path / "stages.json"
    for label in ("first", "second"):
        run_script("stage_times.py", "--label", label, "--output", str(out),
                   "--sizes", "4", "--instances", "1")
    runs = json.loads(out.read_text())["runs"]
    assert set(runs) == {"first", "second"}
    cells = runs["second"]["cells"]
    assert [(c["N"], c["amplitude"]) for c in cells] == [(4, 0.1), (4, 0.3)]
    for cell in cells:
        assert cell["rejected"] == 0
        # eigenvectors is a difference of two times, so only its
        # presence is checked
        assert all(isinstance(ms, float) for ms in cell["stage_ms"].values())
        assert set(cell["stage_ms"]) == {
            "build_hamiltonian", "eigenvalues", "eigenvectors",
            "kernel_from_spectral", "invert_spectral"}
        assert cell["max_abs_err"] <= 1e-6


def test_stage_times_roundtrip_pipeline(tmp_path):
    out = tmp_path / "stages.json"
    run_script("stage_times.py", "--pipeline", "roundtrip", "--label", "only",
               "--output", str(out), "--sizes", "3", "--instances", "1")
    run = json.loads(out.read_text())["runs"]["only"]
    assert run["pipeline"] == "roundtrip"
    cells = run["cells"]
    assert [(c["T"], c["amplitude"]) for c in cells] == [(3, 0.1), (3, 0.3)]
    stages = {"response_kernel", "characterize_response",
              "invert_factorization", "invert_krein",
              "roundtrip_report[25]", "roundtrip_report[500]"}
    for cell in cells:
        for key in ("stage_ms", "max_abs_err", "failed"):
            assert set(cell[key]) == stages
        assert all(isinstance(ms, float) for ms in cell["stage_ms"].values())
        assert not any(cell["failed"].values())
        errors = dict(cell["max_abs_err"])
        assert errors.pop("response_kernel") is None
        assert errors.pop("characterize_response") is None
        assert all(err <= 1e-6 for err in errors.values())
