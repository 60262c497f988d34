"""Problem-file serialization: exact float round-trips, validation."""

import itertools
import json
import re

import numpy as np
import pytest

from lattice_bc import files
from lattice_bc.spectral import SpectralData

# an integer that JSON allows and a double cannot hold
BIG = "1" + "0" * 400


class TestJsonEmitter:
    def test_floats_round_trip_exactly(self):
        values = [0.1, 1.0 / 3.0, -0.0, 1e-300, 12345.6789e55, 2.0 ** -52]
        text = files.dumps_json({"kind": "control", "values": values,
                                 "meta": {}})
        back = json.loads(text)
        assert [float(v) for v in back["values"]] == values

    def test_seventeen_digit_rendering(self):
        assert files._format_float(0.1) == "0.10000000000000001"

    def test_deterministic_bytes(self):
        doc = {"kind": "kernel", "values": [1.0, -0.25], "meta": {"order": 1}}
        assert files.dumps_json(doc) == files.dumps_json(dict(doc))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            files.dumps_json({"x": float("inf")})

    def test_nested_structures(self):
        doc = {"a": [True, None, 3], "b": {"c": []}}
        assert json.loads(files.dumps_json(doc)) == doc


class TestParsing:
    def test_vector_round_trip(self, tmp_path):
        path = tmp_path / "pot.json"
        doc = files.problem_document("potential", [0.5, -1.5], {"note": "x"})
        files.write_text(files.dumps_json(doc), str(path))
        values = files.load_problem(str(path), "potential")
        assert np.array_equal(values, [0.5, -1.5])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            files.parse_problem('{"kind": "mystery", "values": [1]}',
                                "potential")

    def test_malformed_json_rejected(self):
        with pytest.raises(ValueError):
            files.parse_problem("{nope", "potential")

    @pytest.mark.parametrize("depth", [1000, 100_000])
    def test_deeply_nested_json_rejected(self, depth):
        text = ('{"kind": "kernel", "values": ' + "[" * depth + "]" * depth
                + "}")
        with pytest.raises(ValueError):
            files.parse_problem(text, "kernel")

    def test_kernel_head_validated(self):
        with pytest.raises(ValueError):
            files.parse_problem(
                '{"kind": "kernel", "values": [0.5, 1.0], "meta": {}}',
                "kernel")

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            files.parse_problem(
                '{"kind": "control", "values": [1.0, "NaN"], "meta": {}}',
                "control")

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            files.parse_problem('{"kind": "potential", "values": []}',
                                "potential")

    @pytest.mark.parametrize("kind, values", [
        ("potential", '[{"a": 1}, 2]'),
        ("potential", '["1.5"]'),
        ("control", '[true, 1.0]'),
        ("kernel", '[1, null]'),
        ("potential", '[[1.0, 2.0]]'),
        ("potential", '1.5'),
        ("potential", '[1e999999]'),
        ("potential", f'[{BIG}]'),
        ("spectral", '[[0.5, {"x": 1}]]'),
        ("spectral", '[["-1", 2.0], [1.0, 2.0]]'),
        ("spectral", '[[-1.0, 2.0], [1.0, false]]'),
        ("spectral", '[[-1.0, 2.0, 0.0], [1.0, 2.0]]'),
        ("spectral", '[-1.0, 2.0]'),
        ("spectral", f'[[-{BIG}, 2.0], [1.0, 2.0]]'),
    ], ids=lambda v: v.replace(BIG, "BIG"))
    def test_entries_must_be_numbers(self, kind, values):
        # only JSON numbers, in the shape the kind requires: no strings,
        # booleans, null, objects, extra nesting or out-of-range integers
        with pytest.raises(ValueError):
            files.parse_problem(f'{{"kind": "{kind}", "values": {values}}}',
                                kind)

    def test_integers_are_numbers(self):
        values = files.parse_problem(
            '{"kind": "kernel", "values": [1, -2, 0.5]}', "kernel")
        assert np.array_equal(values, [1.0, -2.0, 0.5])
        sd = files.parse_problem(
            '{"kind": "spectral", "values": [[-1, 2], [1, 2.0]]}', "spectral")
        assert np.array_equal(sd.eigenvalues, [-1.0, 1.0])
        assert np.array_equal(sd.norming, [2.0, 2.0])

    # one valid payload per kind, so that only the kind can be at fault
    VALID = {"potential": "[0.5, -1.5]", "control": "[1.0, 0.0]",
             "kernel": "[1.0, 0.25, 0.5]",
             "spectral": "[[-1.0, 2.0], [1.0, 2.0]]"}

    @pytest.mark.parametrize("declared, expected",
                             list(itertools.permutations(files.KINDS, 2)))
    def test_kind_mismatch_rejected(self, declared, expected):
        text = (f'{{"kind": "{declared}", '
                f'"values": {self.VALID[declared]}}}')
        message = (f"{expected} file has kind {declared!r}, "
                   f"expected one of {(expected,)}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            files.parse_problem(text, expected)

    @pytest.mark.parametrize("meta", ["[]", "1"])
    def test_meta_must_be_an_object(self, meta):
        text = ('{"kind": "spectral", "values": [[-1.0, 2.0], [1.0, 2.0]], '
                f'"meta": {meta}}}')
        with pytest.raises(ValueError, match="^meta must be an object$"):
            files.parse_problem(text, "spectral")


class TestSpectralFiles:
    def test_round_trip(self):
        sd = SpectralData(eigenvalues=[-1.25, 0.5], norming=[1.6, 8.0 / 3.0])
        doc = files.spectral_problem(sd)
        back = files.parse_problem(files.dumps_json(doc), "spectral")
        assert np.array_equal(back.eigenvalues, sd.eigenvalues)
        assert np.array_equal(back.norming, sd.norming)

    @pytest.mark.parametrize("pairs", [
        # doubles that need all 17 digits
        [[-1.0 / 3.0, 3.0000000000000004], [0.1, 2.9999999999999996],
         [2.0 ** 0.5, 3.0], [1e300, 1e17]],
        [[-1.0, 2.0], [-0.0, 4.0], [1.0, 4.0]],
    ], ids=["seventeen-digits", "negative-zero"])
    def test_loaded_pairs_are_the_written_bits(self, tmp_path, pairs):
        path = tmp_path / "s.json"
        doc = files.problem_document("spectral", pairs)
        files.write_text(files.dumps_json(doc), str(path))
        sd = files.load_problem(str(path), "spectral")
        written = np.array(pairs)
        assert sd.eigenvalues.tobytes() == written[:, 0].tobytes()
        assert sd.norming.tobytes() == written[:, 1].tobytes()

    def test_mass_validated(self):
        text = ('{"kind": "spectral", "values": [[-1.0, 2.0], [1.0, 3.0]], '
                '"meta": {}}')
        with pytest.raises(ValueError):
            files.parse_problem(text, "spectral")

    def test_ordering_validated(self):
        text = ('{"kind": "spectral", "values": [[1.0, 2.0], [-1.0, 2.0]], '
                '"meta": {}}')
        with pytest.raises(ValueError):
            files.parse_problem(text, "spectral")

    def test_positivity_validated(self):
        text = ('{"kind": "spectral", "values": [[-1.0, -2.0], [1.0, 2.0]], '
                '"meta": {}}')
        with pytest.raises(ValueError):
            files.parse_problem(text, "spectral")


class TestCsv:
    def test_field_layout(self):
        table = np.array([[1.0, 0.0], [0.25, -0.5]])
        text = files.field_csv(table)
        lines = text.strip().split("\n")
        assert lines[0] == "n,0,1"
        assert lines[1].startswith("0,1,0")
        assert lines[2].split(",")[0] == "1"
        parsed = [float(x) for x in lines[2].split(",")[1:]]
        assert parsed == [0.25, -0.5]

    def test_matrix_layout(self):
        text = files.matrix_csv(np.eye(2))
        lines = text.strip().split("\n")
        assert lines[0] == "i,1,2"
        assert lines[1] == "1,1,0"
        assert lines[2] == "2,0,1"


class TestWriteText:
    def test_overwrite_leaves_exactly_the_new_bytes(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_bytes(b"x" * 5000 + b"\n")
        files.write_text('{"a": 1}', str(path))
        assert path.read_bytes() == b'{"a": 1}\n'
        # a longer rewrite after a shorter one keeps nothing stale
        files.write_text("y" * 20 + "\n", str(path))
        assert path.read_bytes() == b"y" * 20 + b"\n"

    def test_creates_a_missing_file(self, tmp_path):
        path = tmp_path / "new.csv"
        files.write_text("n,0\n0,1", str(path))
        assert path.read_bytes() == b"n,0\n0,1\n"

    def test_non_ascii_text_is_utf8(self, tmp_path):
        path = tmp_path / "note.json"
        files.write_text('{"note": "ρ_k"}\n', str(path))
        assert path.read_bytes() == '{"note": "ρ_k"}\n'.encode("utf-8")

    def test_dev_null(self):
        files.write_text("ignored", "/dev/null")

    def test_errors_name_the_path(self, tmp_path):
        with pytest.raises(IsADirectoryError, match=r"\[Errno 21\]"):
            files.write_text("x", str(tmp_path))
        missing = tmp_path / "nope" / "out.json"
        with pytest.raises(FileNotFoundError, match=r"\[Errno 2\]"):
            files.write_text("x", str(missing))

    def test_roundtrip_report_bytes(self, tmp_path):
        from lattice_bc.cli import main, roundtrip_report
        path = tmp_path / "report.json"
        path.write_text("stale " * 4000)
        argv = ["roundtrip", "--instances", "7", "--horizon", "6",
                "--seed", "3", "--output", str(path)]
        assert main(argv) == 0
        expected = files.dumps_json(roundtrip_report(3, 7, 6, 1.0)) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")
