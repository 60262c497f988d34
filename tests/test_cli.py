"""Command-line interface: exit codes, output formats, determinism."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helpers
from lattice_bc import cli, files
from lattice_bc.bc_ops import connecting_matrix, response_kernel
from lattice_bc.cli import main, roundtrip_report
from lattice_bc.core import Tolerances


def write_doc(path, kind, values, meta=None):
    doc = files.problem_document(kind, values, meta)
    files.write_text(files.dumps_json(doc), str(path))
    return str(path)


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

    def test_wrong_kind_rejected(self, tmp_path, capsys):
        ker = write_doc(tmp_path / "k.json", "kernel", [1.0, 0.0])
        assert main(["response", "--potential", ker, "--order", "1"]) == 2


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

    def test_report_crossing_two_blocks(self):
        # at T = 16, amplitude 2 some instances raise in each solver
        M = 2 * cli._BLOCK + 3
        report = roundtrip_report(7, M, 16, 2.0)
        assert report["methods"]["krein"]["failures"]
        assert report["methods"]["factorization"]["failures"]
        assert files.dumps_json(report) == files.dumps_json(
            helpers.reference_roundtrip_report(7, M, 16, 2.0))

    def test_report_function_checks_its_arguments(self):
        bad = [((0, -1, 4, 0.3), "instances must be nonnegative"),
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
        with pytest.raises(ValueError, match="tol must be a Tolerances"):
            roundtrip_report(0, 0, 4, 0.3, tol=1e-9)
        assert roundtrip_report(0, np.int64(2), np.int64(3), 0.3)[
            "characterization"]["admissible_count"] == 2

    def test_output_is_the_report_function(self, capsys):
        assert main(["roundtrip", "--instances", "12", "--horizon", "10",
                     "--amplitude", "0.8", "--seed", "3",
                     "--tol-det", "1e-6"]) == 0
        report = roundtrip_report(3, 12, 10, 0.8, Tolerances(det_tol=1e-6))
        assert capsys.readouterr().out == files.dumps_json(report) + "\n"


class TestStdinOutput:
    def test_stdout_default(self, pot_file, capsys):
        assert main(["response", "--potential", pot_file,
                     "--order", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["values"] == [1, -1]
