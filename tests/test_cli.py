"""Command-line interface: exit codes, output formats, determinism."""

import argparse
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helpers
from lattice_bc import cli, files
from lattice_bc.bc_ops import connecting_matrix, response_kernel
from lattice_bc.cli import main, roundtrip_report
from lattice_bc.inversion import DET_TOL

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
KERNEL = str(GOLDEN / "kernel_t16.json")


def write_doc(path, kind, values, meta=None):
    doc = files.problem_document(kind, values, meta)
    files.write_text(files.dumps_json(doc), str(path))
    return str(path)


def run_in_subprocess(*argv):
    """lattice-bc in a separate interpreter, with the default warning
    filters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "lattice_bc.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


@pytest.fixture
def pot_file(tmp_path):
    return write_doc(tmp_path / "pot.json", "potential", [1.0, 0.0])


class TestForward:
    def test_free_delta_diagonal(self, tmp_path, capsys):
        pot = write_doc(tmp_path / "p.json", "potential", [0.0, 0.0, 0.0])
        ctl = write_doc(tmp_path / "c.json", "control", [1.0, 0.0, 0.0, 0.0])
        out = tmp_path / "field.csv"
        assert main(["forward", "--potential", pot, "--control", ctl,
                     "--output", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "n,0,1,2,3,4"
        table = np.array([[float(x) for x in ln.split(",")[1:]]
                          for ln in lines[1:]])
        expect = np.zeros((5, 5))
        expect[0, 0] = 1.0
        for n in range(1, 5):
            expect[n, n] = 1.0
        assert np.array_equal(table, expect)
        assert "trace:" in capsys.readouterr().out

    def test_trace_echo(self, pot_file, tmp_path, capsys):
        ctl = write_doc(tmp_path / "c.json", "control", [1.0, 0.0, 0.0])
        out = tmp_path / "field.csv"
        assert main(["forward", "--potential", pot_file, "--control", ctl,
                     "--output", str(out)]) == 0
        echoed = capsys.readouterr().out
        assert echoed.strip() == "trace: 1 -1 1"

    def test_interval_mode(self, tmp_path, capsys):
        pot = write_doc(tmp_path / "p.json", "potential", [2.0])
        ctl = write_doc(tmp_path / "c.json", "control", [1.0, 0.0, 0.0])
        out = tmp_path / "field.csv"
        assert main(["forward", "--potential", pot, "--control", ctl,
                     "--interval-n", "1", "--output", str(out)]) == 0
        echoed = capsys.readouterr().out
        assert echoed.strip() == "trace: 1 -2 3"

    def test_missing_file_exits_2(self, pot_file, capsys):
        assert main(["forward", "--potential", pot_file,
                     "--control", "/nonexistent/c.json"]) == 2
        assert "error:" in capsys.readouterr().err


class TestResponse:
    def test_two_site_alternating(self, pot_file, capsys):
        assert main(["response", "--potential", pot_file,
                     "--order", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "kernel"
        assert doc["values"] == [1, -1, 1, -1]
        assert doc["meta"]["order"] == 3

    def test_single_site_squares(self, tmp_path, capsys):
        pot = write_doc(tmp_path / "p.json", "potential", [0.5])
        assert main(["response", "--potential", pot, "--order", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["values"] == [1, -0.5, 0.25]

    def test_negative_zero_keeps_its_sign(self, tmp_path):
        # the kernel of a zero potential holds -0.0 at r_1; the file
        # writes it as -0.0, which JSON reads back with its sign bit
        pot = write_doc(tmp_path / "p.json", "potential", [0.0, 0.0])
        out = tmp_path / "k.json"
        assert main(["response", "--potential", pot, "--order", "4",
                     "--output", str(out)]) == 0
        assert "[1, -0.0, 0, 0, 0]" in out.read_text()
        want = response_kernel(np.zeros(2), 4)
        assert np.signbit(want[1])
        got = files.load_problem(str(out), "kernel")
        assert got.tobytes() == want.tobytes()

    def test_wrong_kind_rejected(self, tmp_path, capsys):
        ker = write_doc(tmp_path / "k.json", "kernel", [1.0, 0.0])
        assert main(["response", "--potential", ker, "--order", "1"]) == 2
        assert capsys.readouterr().err == (
            "error: potential file has kind 'kernel', expected one of "
            "('potential',)\n")


class TestConnect:
    def test_kernel_route(self, tmp_path):
        rng = np.random.default_rng(90)
        T = 5
        b = rng.uniform(-0.5, 0.5, T - 1)
        r = response_kernel(b, 2 * T - 2)
        ker = write_doc(tmp_path / "k.json", "kernel", r)
        out = tmp_path / "C.csv"
        assert main(["connect", "--kernel", ker, "--horizon", str(T),
                     "--output", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        got = np.array([[float(x) for x in ln.split(",")[1:]]
                        for ln in lines[1:]])
        assert np.array_equal(got, connecting_matrix(r, T))

    def test_wave_route_and_verify(self, tmp_path, capsys):
        pot = write_doc(tmp_path / "p.json", "potential",
                        [0.25, -0.3, 0.1, 0.4])
        out = tmp_path / "C.csv"
        assert main(["connect", "--potential", pot, "--horizon", "5",
                     "--via-waves", "--verify", "--output", str(out)]) == 0
        err = capsys.readouterr().err
        assert "route deviation:" in err
        dev = float(err.split(":")[1])
        assert dev <= 1e-10

    @pytest.mark.parametrize("route", ["--verify", "--via-waves"])
    def test_short_potential_is_zero_padded(self, tmp_path, route):
        # both routes pad b = (0.3) with zeros, so they take it as the
        # kernel route alone does
        pot = write_doc(tmp_path / "p.json", "potential", [0.3])
        kernel = run_in_subprocess("connect", "--potential", pot,
                                   "--horizon", "4")
        proc = run_in_subprocess("connect", "--potential", pot,
                                 "--horizon", "4", route)
        assert (kernel.returncode, kernel.stderr) == (0, "")
        assert proc.returncode == 0
        if route == "--verify":
            assert proc.stdout == kernel.stdout
            label, dev = proc.stderr.split(":")
            assert label == "route deviation" and float(dev) <= 1e-14
        else:
            assert proc.stderr == ""
            assert np.allclose(np.loadtxt(io.StringIO(proc.stdout),
                                          delimiter=",", skiprows=1),
                               np.loadtxt(io.StringIO(kernel.stdout),
                                          delimiter=",", skiprows=1),
                               rtol=0.0, atol=1e-14)

    def test_requires_exactly_one_input(self, pot_file, tmp_path, capsys):
        ker = write_doc(tmp_path / "k.json", "kernel", [1.0, 0.0, 0.0])
        assert main(["connect", "--kernel", ker, "--potential", pot_file,
                     "--horizon", "2"]) == 2
        assert main(["connect", "--horizon", "2"]) == 2


class TestInvert:
    def test_trivial_kernel(self, tmp_path, capsys):
        ker = write_doc(tmp_path / "k.json", "kernel", [1.0, 0.0, 0.0])
        assert main(["invert", "--kernel", ker, "--horizon", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "potential"
        assert doc["values"] == [0]
        assert doc["meta"]["method"] == "factorization"

    def test_single_site_all_methods(self, tmp_path, capsys):
        ker = write_doc(tmp_path / "k.json", "kernel", [1.0, -1.0, 1.0])
        for method in ("factorization", "gelfand-levitan", "krein"):
            assert main(["invert", "--kernel", ker, "--horizon", "2",
                         "--method", method]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["values"] == pytest.approx([1.0], abs=1e-9)

    def test_inadmissible_exits_3(self, tmp_path, capsys):
        ker = write_doc(tmp_path / "k.json", "kernel", [1.0, 2.0, 0.0])
        assert main(["invert", "--kernel", ker, "--horizon", "2"]) == 3
        assert "inadmissible" in capsys.readouterr().err

    def test_degenerate_krein_exits_4(self, tmp_path, capsys):
        r = response_kernel(np.zeros(3), 6)
        ker = write_doc(tmp_path / "k.json", "kernel", r)
        assert main(["invert", "--kernel", ker, "--horizon", "4",
                     "--method", "krein"]) == 4
        assert "trace vanishes" in capsys.readouterr().err

    def test_krein_boundary_data_flags(self, tmp_path, capsys):
        b = np.array([2.2, 2.4, 2.3])
        r = response_kernel(b, 6)
        ker = write_doc(tmp_path / "k.json", "kernel", r)
        assert main(["invert", "--kernel", ker, "--horizon", "4",
                     "--method", "krein", "--alpha", "1.0",
                     "--beta", "1.0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["values"] == pytest.approx(list(b), abs=1e-8)

    @pytest.mark.parametrize("extra", [
        ["--alpha", "0.3"], ["--beta", "1.2"],
        ["--method", "factorization", "--alpha", "0"],
        ["--method", "gelfand-levitan", "--alpha", "1", "--beta", "1"],
    ])
    def test_boundary_data_without_krein_exit_2(self, tmp_path, capsys,
                                                extra):
        ker = write_doc(tmp_path / "k.json", "kernel", [1.0, -1.0, 1.0])
        assert main(["invert", "--kernel", ker] + extra) == 2
        assert capsys.readouterr() == (
            "", "error: --alpha and --beta apply only to --method krein\n")

    def test_krein_default_boundary_data_are_the_config_defaults(
            self, tmp_path, capsys):
        r = response_kernel(np.array([0.3, -0.2, 0.5]), 6)
        ker = write_doc(tmp_path / "k.json", "kernel", r)
        outputs = []
        for extra in ([], ["--alpha", "0", "--beta", "1"], ["--alpha", "0"],
                      ["--beta", "1"]):
            assert main(["invert", "--kernel", ker, "--method", "krein"]
                        + extra) == 0
            outputs.append(capsys.readouterr())
        assert outputs == [outputs[0]] * 4

    def test_negative_zero_alpha_reaches_krein(self, tmp_path, capsys):
        # -0.0 is its own trace value y_0 in the library
        r = response_kernel(np.array([0.3, -0.2, 0.5]), 6)
        ker = write_doc(tmp_path / "k.json", "kernel", r)
        with mock.patch.object(cli, "invert_krein",
                               wraps=cli.invert_krein) as solver:
            assert main(["invert", "--kernel", ker, "--method", "krein",
                         "--alpha", "-0.0"]) == 0
        config = solver.call_args.args[2]
        assert np.signbit(config.alpha) and config.beta == 1.0

    @pytest.mark.parametrize("values", [[1.0, -0.3, 0.1, 0.2],
                                        [1.0, -1.0, 1.0]],
                             ids=["inadmissible", "admissible"])
    def test_vanishing_boundary_data_exit_2_whatever_the_kernel(
            self, tmp_path, values):
        # the Krein datum is checked before the kernel's verdict
        ker = write_doc(tmp_path / "k.json", "kernel", values)
        proc = run_in_subprocess("invert", "--kernel", ker, "--method",
                                 "krein", "--alpha", "0", "--beta", "0")
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", "error: alpha and beta must not both vanish\n")

    def test_default_horizon_is_max_covered(self, tmp_path, capsys):
        b = np.array([0.3, -0.2, 0.5])
        r = response_kernel(b, 6)  # covers horizon 4
        ker = write_doc(tmp_path / "k.json", "kernel", r)
        assert main(["invert", "--kernel", ker]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["meta"]["horizon"] == 4
        assert doc["values"] == pytest.approx(list(b), abs=1e-9)


class TestCharacterize:
    def test_admissible_exit_0(self, tmp_path, capsys):
        b = np.array([0.4, -0.1])
        r = response_kernel(b, 4)
        ker = write_doc(tmp_path / "k.json", "kernel", r)
        assert main(["characterize", "--kernel", ker, "--horizon", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["admissible"] is True
        assert doc["first_failing_order"] is None
        assert doc["minor_values"] == pytest.approx([1.0] * 3, abs=1e-9)

    def test_inadmissible_exit_3(self, tmp_path, capsys):
        ker = write_doc(tmp_path / "k.json", "kernel", [1.0, 2.0, 0.0])
        assert main(["characterize", "--kernel", ker, "--horizon", "2"]) == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["admissible"] is False
        assert doc["first_failing_order"] == 2
        assert doc["minor_values"][1] == pytest.approx(-3.0, abs=1e-12)

    def test_zero_pivot_is_a_verdict(self, tmp_path, capsys):
        # the order-2 block is exactly singular: the verdict covers
        # orders 1..2 and stays serializable
        ker = write_doc(tmp_path / "k.json", "kernel", [1, 1, 0, 0, 0])
        assert main(["characterize", "--kernel", ker, "--horizon", "3"]) == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["admissible"] is False
        assert doc["first_failing_order"] == 2
        assert doc["minor_values"] == [1, 0]
        assert doc["pivot_values"] == [1, 0]

    def test_det_tolerance_flag(self, tmp_path, capsys):
        b = np.array([0.4, -0.1])
        r = response_kernel(b, 4)
        r[2] += 1e-6
        ker = write_doc(tmp_path / "k.json", "kernel", r)
        assert main(["characterize", "--kernel", ker, "--horizon", "3"]) == 3
        capsys.readouterr()
        assert main(["characterize", "--kernel", ker, "--horizon", "3",
                     "--tol-det", "1e-3"]) == 0

    @pytest.mark.parametrize("command", ["characterize", "invert",
                                         "roundtrip"])
    def test_det_tol_of_one_exits_2(self, command, capsys):
        # at det_tol = 1 a zero minor would pass as a unit one
        args = {"roundtrip": ["--instances", "1", "--horizon", "2"]}.get(
            command, ["--kernel", KERNEL])
        assert main([command, *args, "--tol-det", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: det_tol must be below 1, so that unit minors "
                       "mean a positive definite matrix\n")

    @pytest.mark.parametrize("args, error", [
        (["invert", "--kernel", KERNEL, "--horizon", "0"],
         "det_tol must be below 1, so that unit minors mean a positive "
         "definite matrix"),
        (["characterize", "--kernel", KERNEL, "--horizon", "0"],
         "det_tol must be below 1, so that unit minors mean a positive "
         "definite matrix"),
        (["roundtrip", "--instances", "-1", "--horizon", "4"],
         "instances must be nonnegative"),
    ], ids=["invert", "characterize", "roundtrip"])
    def test_first_checked_error_is_reported(self, args, error, capsys):
        # with --tol-det 2 bad too: the verdict checks det_tol before
        # the horizon, and the report checks the counts before det_tol
        assert main([*args, "--tol-det", "2"]) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")


class TestSpectral:
    def test_single_site(self, tmp_path, capsys):
        pot = write_doc(tmp_path / "p.json", "potential", [0.8])
        assert main(["spectral", "--potential", pot, "--size", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "spectral"
        assert doc["values"] == [[-0.8, 1]]

    def test_spectral_invert_free(self, tmp_path, capsys):
        sfile = tmp_path / "s.json"
        files.write_text(files.dumps_json(
            {"kind": "spectral", "values": [[-1.0, 2.0], [1.0, 2.0]],
             "meta": {}}), str(sfile))
        assert main(["spectral-invert", "--spectral", str(sfile)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["values"] == pytest.approx([0.0, 0.0], abs=1e-9)

    def test_cli_spectral_round_trip(self, tmp_path, capsys):
        rng = np.random.default_rng(91)
        b = rng.uniform(-0.25, 0.25, 7)
        pot = write_doc(tmp_path / "p.json", "potential", b)
        sfile = tmp_path / "s.json"
        assert main(["spectral", "--potential", pot,
                     "--output", str(sfile)]) == 0
        assert main(["spectral-invert", "--spectral", str(sfile)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["values"] == pytest.approx(list(b), abs=1e-6)

    @pytest.mark.parametrize("command, flag, kind, values", [
        ("spectral", "--potential", "potential", '[{"a": 1}, 2]'),
        ("spectral", "--potential", "potential", '["1.5", 2]'),
        ("spectral", "--potential", "potential", '[true, 2]'),
        ("spectral-invert", "--spectral", "spectral", '[[0.5, {"x": 1}]]'),
        ("spectral-invert", "--spectral", "spectral",
         '[[-1.0, "2"], [1.0, 2.0]]'),
    ])
    def test_non_number_entries_exit_2(self, tmp_path, capsys, command, flag,
                                       kind, values):
        path = tmp_path / "bad.json"
        path.write_text(f'{{"kind": "{kind}", "values": {values}}}')
        assert main([command, flag, str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_coupling_far_from_one_exits_2(self, tmp_path):
        # unit mass, but the Lanczos coupling is 5, not 1
        sfile = tmp_path / "s.json"
        sfile.write_text('{"kind": "spectral", "values": [[0, 2], [10, 2]]}')
        proc = run_in_subprocess("spectral-invert", "--spectral", str(sfile))
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", "error: spectral data give Lanczos couplings far from 1: "
                   "not the data of a unit-coupled Jacobi matrix\n")

    @pytest.mark.parametrize("meta", ["[]", "1"])
    def test_non_object_meta_on_stdin_exits_2(self, capsys, meta):
        text = ('{"kind": "spectral", "values": [[-1.0, 2.0], [1.0, 2.0]], '
                f'"meta": {meta}}}')
        with mock.patch("sys.stdin", io.StringIO(text)):
            assert main(["spectral-invert", "--spectral", "-"]) == 2
        assert capsys.readouterr() == ("", "error: meta must be an object\n")

    def test_bad_mass_rejected(self, tmp_path, capsys):
        sfile = tmp_path / "s.json"
        files.write_text(files.dumps_json(
            {"kind": "spectral", "values": [[-1.0, 2.0], [1.0, 3.0]],
             "meta": {}}), str(sfile))
        assert main(["spectral-invert", "--spectral", str(sfile)]) == 2


class TestRoundtrip:
    def test_empty_report(self, capsys):
        assert main(["roundtrip", "--instances", "0", "--horizon", "4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["instances"] == 0
        assert doc["methods"]["krein"]["successes"] == 0
        assert doc["methods"]["krein"]["max_abs_error"] is None
        assert doc["characterization"]["admissible_count"] == 0

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        args = ["roundtrip", "--instances", "20", "--horizon", "12",
                "--amplitude", "2.0", "--seed", "31415"]
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_report(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["roundtrip", "--instances", "10", "--horizon", "6",
                     "--seed", "1", "--output", str(a)]) == 0
        assert main(["roundtrip", "--instances", "10", "--horizon", "6",
                     "--seed", "2", "--output", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_accuracy_at_moderate_amplitude(self, capsys):
        assert main(["roundtrip", "--instances", "60", "--horizon", "12",
                     "--amplitude", "0.5", "--seed", "7"]) == 0
        doc = json.loads(capsys.readouterr().out)
        char = doc["characterization"]
        assert char["admissible_count"] == 60
        assert char["inadmissible_instances"] == []
        bounds = {"krein": 1e-6, "factorization": 1e-7,
                  "gelfand_levitan": 1e-7}
        for method, bound in bounds.items():
            entry = doc["methods"][method]
            total = entry["successes"] + len(entry["failures"])
            assert total == 60
            if entry["successes"]:
                assert entry["max_abs_error"] <= bound

    def test_structure_at_full_amplitude(self, capsys):
        # at amplitude 2 the report stays structurally sound; accuracy
        # bounds at this scale are exercised at moderate amplitude
        assert main(["roundtrip", "--instances", "15", "--horizon", "8",
                     "--amplitude", "2.0", "--seed", "5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        for method in ("krein", "factorization", "gelfand_levitan"):
            entry = doc["methods"][method]
            assert entry["successes"] + len(entry["failures"]) == 15
            for failure in entry["failures"]:
                assert failure["error"] in ("DegenerateTrace",
                                            "SingularConnecting",
                                            "SingularLeadingMinor")

    def test_bad_arguments_exit_2(self, capsys):
        assert main(["roundtrip", "--instances", "-1",
                     "--horizon", "4"]) == 2
        assert capsys.readouterr().err == (
            "error: instances must be nonnegative\n")
        # a bad count is reported before bad tolerances
        assert main(["roundtrip", "--instances", "-1", "--horizon", "4",
                     "--tol-det", "-1"]) == 2
        assert capsys.readouterr().err == (
            "error: instances must be nonnegative\n")
        assert main(["roundtrip", "--instances", "2", "--horizon", "0"]) == 2
        assert capsys.readouterr().err == (
            "error: --horizon is required and must be positive\n")
        assert main(["roundtrip", "--instances", "2", "--horizon", "4",
                     "--amplitude", "nan"]) == 2
        assert capsys.readouterr().err == (
            "error: amplitude must be finite and nonnegative\n")

    def test_amplitude_whose_range_overflows_exits_2(self, capsys):
        # the draws span 2a, which overflows for a > max / 2
        for amplitude in ("1e308", "8.99e307"):
            assert main(["roundtrip", "--instances", "2", "--horizon", "4",
                         "--amplitude", amplitude]) == 2
            assert capsys.readouterr().err == (
                "error: amplitude must be finite and nonnegative\n")
            with pytest.raises(ValueError, match="amplitude must be finite"):
                roundtrip_report(0, 2, 4, float(amplitude))

    def test_kernel_that_overflows_exits_2_without_warnings(self):
        proc = run_in_subprocess("roundtrip", "--instances", "2",
                                 "--horizon", "3", "--amplitude", "1e200")
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", "error: kernel contains non-finite entries\n")
        # in process, pytest turns RuntimeWarning into an error
        with pytest.raises(ValueError, match="kernel contains non-finite"):
            roundtrip_report(0, 2, 3, 1e200)

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2 ** 32 - 1), instances=st.integers(0, 13),
           T=st.integers(1, 40), amplitude=st.floats(0.0, 3.0),
           block=st.integers(1, 5))
    def test_blocked_report_is_one_at_a_time_report(self, seed, instances, T,
                                                    amplitude, block):
        # a small block puts several block edges inside a cheap report
        with mock.patch.object(cli, "_BLOCK", block):
            report = roundtrip_report(seed, instances, T, amplitude)
        reference = helpers.reference_roundtrip_report(seed, instances, T,
                                                       amplitude)
        assert files.dumps_json(report) == files.dumps_json(reference)

    @given(b_hat=st.lists(st.one_of(st.floats(-4.0, 4.0), st.sampled_from(
               (0.0, -0.0, 1.0, float("nan"), float("inf"), -float("inf")))),
               max_size=12),
           data=st.data())
    def test_tally_is_the_one_at_a_time_rule(self, b_hat, data):
        # NaN, inf and ties, which the reports themselves rarely reach:
        # the solvers' outcomes are drawn, and at amplitude 0 and T = 2
        # each error is |b-hat| exactly
        M = len(b_hat)
        failed = data.draw(st.lists(st.booleans(), min_size=M, max_size=M))
        failing = data.draw(st.lists(st.integers(0, 2), min_size=M,
                                     max_size=M))
        block = data.draw(st.integers(1, M + 1))
        want = {"successes": 0, "max_abs_error": None, "failures": []}
        for i, (value, fail) in enumerate(zip(b_hat, failed)):
            if fail:
                want["failures"].append({"instance": i, "error": "Failed"})
            else:
                want["successes"] += 1
                err = abs(value)
                if (want["max_abs_error"] is None
                        or err > want["max_abs_error"]):
                    want["max_abs_error"] = err
        blocks = []

        def outcomes(r, T, det_tol):
            lo = sum(blocks)
            blocks.append(r.shape[0])
            hi = lo + r.shape[0]
            solved = (np.array([b_hat[lo:hi]]),
                      np.where(failed[lo:hi], "Failed", ""))
            return np.array(failing[lo:hi]), dict.fromkeys(
                ("krein", "factorization", "gelfand_levitan"), solved)

        with mock.patch.object(cli, "_BLOCK", block), \
                mock.patch.object(cli, "_block_outcomes", outcomes):
            report = roundtrip_report(0, M, 2, 0.0)
        assert blocks == [min(block, M - lo) for lo in range(0, M, block)]
        for name in ("krein", "factorization", "gelfand_levitan"):
            assert repr(report["methods"][name]) == repr(want)
        inadmissible = [i for i, order in enumerate(failing) if order]
        assert report["characterization"] == {
            "admissible_count": M - len(inadmissible),
            "inadmissible_instances": inadmissible}

    def test_report_crossing_two_blocks(self):
        # at T = 16, amplitude 2 some instances raise in each solver
        M = 2 * cli._BLOCK + 3
        report = roundtrip_report(7, M, 16, 2.0)
        assert report["methods"]["krein"]["failures"]
        assert report["methods"]["factorization"]["failures"]
        assert files.dumps_json(report) == files.dumps_json(
            helpers.reference_roundtrip_report(7, M, 16, 2.0))

    def test_report_function_checks_its_arguments(self):
        bad = [((-1, 2, 4, 0.3), "seed must be a nonnegative integer"),
               ((None, 2, 4, 0.3), "seed must be a nonnegative integer"),
               ((True, 2, 4, 0.3), "seed must be a nonnegative integer"),
               ((1.5, 2, 4, 0.3), "seed must be a nonnegative integer"),
               ((0, -1, 4, 0.3), "instances must be nonnegative"),
               ((0, True, 4, 0.3), "instances must be nonnegative"),
               ((0, 2.0, 4, 0.3), "instances must be nonnegative"),
               ((0, 2, 0, 0.3), "horizon is required and must be positive"),
               ((0, 2, True, 0.3), "horizon is required and must be positive"),
               ((0, 2, 4, float("nan")), "amplitude must be finite"),
               ((0, 2, 4, float("inf")), "amplitude must be finite"),
               ((0, 2, 4, -0.1), "amplitude must be finite")]
        for args, message in bad:
            with pytest.raises(ValueError, match=message):
                roundtrip_report(*args)
        for det_tol, message in ((1.0, "det_tol must be below 1"),
                                 (-1e-9, "det_tol must be finite"),
                                 (float("nan"), "det_tol must be finite")):
            with pytest.raises(ValueError, match=message):
                roundtrip_report(0, 0, 4, 0.3, det_tol=det_tol)
        # the counts and the amplitude are checked before det_tol
        for args, message in bad:
            with pytest.raises(ValueError, match=message):
                roundtrip_report(*args, det_tol=2.0)
        # the seed is checked before the counts
        with pytest.raises(ValueError, match="seed must be"):
            roundtrip_report("x", -1, 0, -0.1)
        assert roundtrip_report(0, np.int64(2), np.int64(3), 0.3)[
            "characterization"]["admissible_count"] == 2
        assert (roundtrip_report(np.uint8(5), 3, 4, 0.3)
                == roundtrip_report(5, 3, 4, 0.3))

    def test_negative_seed_exits_2(self, capsys):
        assert main(["roundtrip", "--instances", "2", "--horizon", "4",
                     "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be a nonnegative integer\n"

    def test_output_is_the_report_function(self, capsys):
        assert main(["roundtrip", "--instances", "12", "--horizon", "10",
                     "--amplitude", "0.8", "--seed", "3",
                     "--tol-det", "1e-6"]) == 0
        report = roundtrip_report(3, 12, 10, 0.8, det_tol=1e-6)
        assert capsys.readouterr().out == files.dumps_json(report) + "\n"


class TestDeeplyNestedInput:
    TEXT = ('{"kind": "kernel", "values": ' + "[" * 100_000 + "]" * 100_000
            + "}")

    def test_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text(self.TEXT)
        assert main(["characterize", "--kernel", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: invalid JSON:")

    def test_stdin_exits_2(self, capsys):
        with mock.patch("sys.stdin", io.StringIO(self.TEXT)):
            assert main(["invert", "--kernel", "-"]) == 2
        assert capsys.readouterr().err.startswith("error: invalid JSON:")


class TestNonFiniteResults:
    """Commands whose arithmetic overflows exit 2, or 4 for eigendata,
    with one error line and no numpy warning."""

    POTENTIAL = '{"kind": "potential", "values": [1e200, 1e200, 1e200]}'

    @pytest.mark.parametrize("args, error", [
        (["response", "--potential", "{pot}", "--order", "6"],
         "cannot serialize non-finite number"),
        (["connect", "--potential", "{pot}", "--horizon", "3",
          "--via-waves"], "cannot serialize non-finite number"),
        (["connect", "--potential", "{pot}", "--horizon", "3", "--verify"],
         "kernel contains non-finite entries"),
        (["forward", "--potential", "{pot}", "--control", "{ctl}"],
         "cannot serialize non-finite number"),
        (["spectral-invert", "--spectral", "{spec}"],
         "spectral data give no orthonormal Lanczos basis in float range"),
    ], ids=["response", "connect-via-waves", "connect-verify", "forward",
            "spectral-invert"])
    def test_exits_2_with_one_error_line(self, tmp_path, args, error):
        paths = {"pot": tmp_path / "p.json", "ctl": tmp_path / "c.json",
                 "spec": tmp_path / "s.json"}
        paths["pot"].write_text(self.POTENTIAL)
        paths["ctl"].write_text(
            '{"kind": "control", "values": [1, 2, 3, 4, 5]}')
        # unit mass, so only the Lanczos norm, which overflows, is wrong
        paths["spec"].write_text(
            '{"kind": "spectral", "values": [[1e300, 2.0], [1.5e300, 2.0]]}')
        proc = run_in_subprocess(
            *(a.format(**{k: str(v) for k, v in paths.items()})
              for a in args))
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", f"error: {error}\n")

    @pytest.mark.parametrize("values", ["[1.7976931348623157e308, 0.0]",
                                        "[1e308, -1e308, 0.0]",
                                        "[1.7e308, 1.7e308, 1.0]"])
    def test_spectral_exits_4_with_one_error_line(self, tmp_path, values):
        pot = tmp_path / "p.json"
        pot.write_text(f'{{"kind": "potential", "values": {values}}}')
        proc = run_in_subprocess("spectral", "--potential", str(pot))
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            4, "", "error: non-finite eigendata at eigenvalue index 0\n")


class TestGoldenBytes:
    """The CLI's output is the checked-in output of these commands, byte
    for byte: a check against bits that move in the library and in a
    reference computed with it alike.  The files hold the bits of the
    x87 80-bit long double, which the moment recursion runs in."""

    CASES = {
        "kernel_t16.json": [
            "response", "--potential", str(GOLDEN / "potential_t16.json"),
            "--order", "30"],
        "characterize_t16.json": ["characterize", "--kernel", KERNEL],
        "invert_factorization_t16.json": [
            "invert", "--kernel", KERNEL, "--method", "factorization"],
        "invert_gelfand_levitan_t16.json": [
            "invert", "--kernel", KERNEL, "--method", "gelfand-levitan"],
        "invert_krein_t16.json": [
            "invert", "--kernel", KERNEL, "--method", "krein"],
        "invert_krein_alpha_t16.json": [
            "invert", "--kernel", KERNEL, "--method", "krein",
            "--alpha", "0.3", "--beta", "1.2"],
        # every solver fails on some of these instances
        "roundtrip_s7_m131_t16_a2.json": [
            "roundtrip", "--seed", "7", "--instances", "131",
            "--horizon", "16", "--amplitude", "2.0"],
        "roundtrip_s0_m25_t64_a03.json": [
            "roundtrip", "--seed", "0", "--instances", "25",
            "--horizon", "64", "--amplitude", "0.3"],
    }

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant != 63,
                        reason="long double is not the x87 80-bit type")
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_output_is_the_golden_file(self, name, capsys):
        assert main(self.CASES[name]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out == (GOLDEN / name).read_text()


# the settable values of each subcommand: every flag only where it is read
OPTIONS = {
    "forward": {"--output", "--potential", "--control", "--interval-n"},
    "response": {"--output", "--potential", "--order"},
    "connect": {"--output", "--kernel", "--potential", "--horizon",
                "--via-waves", "--verify"},
    "invert": {"--output", "--tol-det", "--kernel", "--horizon",
               "--method", "--alpha", "--beta"},
    "characterize": {"--output", "--tol-det", "--kernel", "--horizon"},
    "spectral": {"--output", "--potential", "--size"},
    "spectral-invert": {"--output", "--spectral"},
    "roundtrip": {"--output", "--tol-det", "--instances", "--horizon",
                  "--amplitude", "--seed"},
}

# arguments that parse for each subcommand; no file is opened
REQUIRED = {
    "forward": ["--potential", "p", "--control", "c"],
    "response": ["--potential", "p", "--order", "1"],
    "connect": [],
    "invert": ["--kernel", "k"],
    "characterize": ["--kernel", "k"],
    "spectral": ["--potential", "p"],
    "spectral-invert": ["--spectral", "s"],
    "roundtrip": ["--instances", "1", "--horizon", "2"],
}


def subparsers():
    parser = cli.build_parser()
    action, = (a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return action.choices


class TestOptionSurface:
    def test_each_subcommand_has_only_the_flags_it_reads(self):
        assert {name: {a.option_strings[-1] for a in p._actions
                       if not isinstance(a, argparse._HelpAction)}
                for name, p in subparsers().items()} == OPTIONS
        assert sum(map(len, OPTIONS.values())) == 35

    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_unread_flags_exit_2(self, command, capsys):
        # without the flag the same arguments parse
        cli.build_parser().parse_args([command] + REQUIRED[command])
        removed = {"--seed", "--tol-det", "--tol-pivot",
                   "--tol-eig"} - OPTIONS[command]
        # reported under the subcommand's own usage line
        p = subparsers()[command]
        for flag in sorted(removed):
            with pytest.raises(SystemExit) as exc:
                main([command] + REQUIRED[command] + [flag, "1"])
            assert exc.value.code == 2
            assert capsys.readouterr().err == (
                p.format_usage()
                + f"{p.prog}: error: unrecognized arguments: {flag} 1\n")

    @pytest.mark.parametrize("command, args", [
        ("characterize", ["--kernel", "k", "--tol", "1e-3"]),
        ("invert", ["--kernel", "k", "--tol", "1e-3"]),
        ("spectral", ["--potential", "p", "--tol", "1e-3"]),
        ("spectral", ["--potential", "p", "--s", "4"]),
        ("roundtrip", ["--instances", "1", "--horizon", "2", "--se", "4"]),
    ])
    def test_abbreviated_flags_exit_2(self, command, args, capsys):
        # a prefix would otherwise mean whichever flag it matches today
        with pytest.raises(SystemExit) as exc:
            main([command] + args)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(args[-2:])}" in (
            capsys.readouterr().err)

    def test_unrecognized_flag_shows_the_subcommand_usage(self):
        proc = run_in_subprocess("invert", "--kernel", "k.json",
                                 "--tol", "1e-3")
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert lines[0].startswith("usage: lattice-bc invert [-h]")
        assert "--tol-det TOL_DET" in proc.stderr
        assert lines[-1] == ("lattice-bc invert: error: unrecognized "
                             "arguments: --tol 1e-3")

    def test_tolerance_default_is_det_tol(self):
        checked = 0
        for name, p in subparsers().items():
            if "--tol-det" in OPTIONS[name]:
                assert p.get_default("tol_det") is DET_TOL, name
                checked += 1
        assert checked == 3

    def test_readme_synopsis_names_each_subcommand_flags(self):
        text = (ROOT / "README.md").read_text()
        section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
        synopsis = section.split("```", 2)[1]
        named = {}
        for line in synopsis.strip().splitlines():
            _, command, rest = line.split(None, 2)
            named[command] = set(re.findall(r"--[a-z][a-z-]*", rest))
        # --output is on every subcommand, named once below the synopsis
        assert "`--output PATH`" in section
        assert named == {name: flags - {"--output"}
                         for name, flags in OPTIONS.items()}


class TestStdinOutput:
    def test_stdout_default(self, pot_file, capsys):
        assert main(["response", "--potential", pot_file,
                     "--order", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["values"] == [1, -1]
