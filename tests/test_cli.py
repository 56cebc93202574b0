import json
import math
import os
import struct
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import random_gram_matrix
from phaseobs import PhaseMatrix, PhaseWindow, cli, distribution, observable, spectral
from phaseobs.cli import main
from phaseobs.hardy import _pair_floats, _pairs

SQ2 = 1 / math.sqrt(2)


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def canonical8(tmp_path):
    return write_json(tmp_path / "canonical8.json", {"kind": "canonical", "dim": 8})


@pytest.fixture
def canonical2(tmp_path):
    return write_json(tmp_path / "canonical2.json", {"kind": "canonical", "dim": 2})


@pytest.fixture
def plus_state(tmp_path):
    return write_json(
        tmp_path / "plus.json", {"coeffs": [[SQ2, 0.0], [SQ2, 0.0]]}
    )


class TestValidate:
    def test_valid_builtin(self, canonical8, capsys):
        assert main(["validate", "--matrix", canonical8]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["valid"] is True
        assert report["issues"] == []

    def test_invalid_explicit_exits_2(self, tmp_path, capsys):
        bad = write_json(
            tmp_path / "bad.json",
            {
                "kind": "explicit",
                "dim": 2,
                "entries": [
                    [[1.0, 0.0], [2.0, 0.0]],
                    [[2.0, 0.0], [1.0, 0.0]],
                ],
            },
        )
        assert main(["validate", "--matrix", bad]) == 2
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["valid"] is False
        assert any(i["property"] == "psd" for i in report["issues"])
        diag = json.loads(captured.err)
        assert diag["code"] == "invalid-matrix"

    def test_missing_file_exits_1(self, tmp_path, capsys):
        assert main(["validate", "--matrix", str(tmp_path / "nope.json")]) == 1
        assert json.loads(capsys.readouterr().err)["code"] == "error"

    def test_usage_error_exits_1(self, capsys):
        assert main(["validate"]) == 1
        assert json.loads(capsys.readouterr().err)["code"] == "usage"


class TestDensity:
    def test_fringe_csv(self, canonical2, plus_state, tmp_path):
        out = tmp_path / "density.csv"
        assert main(
            [
                "density",
                "--matrix",
                canonical2,
                "--state",
                plus_state,
                "--grid",
                "8",
                "--out",
                str(out),
            ]
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "theta,value"
        theta0, value0 = lines[1].split(",")
        assert float(theta0) == 0.0
        assert float(value0) == pytest.approx(2.0, abs=1e-12)

    def test_small_grid_values(self, canonical2, plus_state, tmp_path):
        out = tmp_path / "density4.csv"
        main(
            [
                "density",
                "--matrix",
                canonical2,
                "--state",
                plus_state,
                "--grid",
                "4",
                "--out",
                str(out),
            ]
        )
        values = [float(l.split(",")[1]) for l in out.read_text().splitlines()[1:]]
        np.testing.assert_allclose(values, [2.0, 1.0, 0.0, 1.0], atol=1e-12)

    def test_trivial_constant(self, tmp_path, plus_state):
        mat = write_json(tmp_path / "trivial.json", {"kind": "trivial", "dim": 2})
        out = tmp_path / "flat.csv"
        main(["density", "--matrix", mat, "--state", plus_state,
              "--grid", "16", "--out", str(out)])
        values = [float(l.split(",")[1]) for l in out.read_text().splitlines()[1:]]
        np.testing.assert_allclose(values, np.ones(16), atol=1e-12)


class TestCommands:
    def test_window_prob_inline_window(self, canonical2, plus_state, capsys):
        assert main(
            [
                "window-prob",
                "--matrix",
                canonical2,
                "--state",
                plus_state,
                "--window",
                f"0:{math.pi}",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["probability"] == pytest.approx(0.5, abs=1e-12)

    def test_kraus_round_trip(self, canonical8, tmp_path):
        out = tmp_path / "kraus.json"
        assert main(["kraus", "--matrix", canonical8, "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["rows"]
        assert len(rows) == 1
        flat = [complex(re, im) for re, im in rows[0]]
        np.testing.assert_allclose(flat, np.ones(8), atol=1e-9)

    def test_kernel_check(self, canonical2, plus_state, tmp_path):
        out = tmp_path / "kernel.csv"
        assert main(
            [
                "kernel-check",
                "--matrix",
                canonical2,
                "--state",
                plus_state,
                "--grid",
                "512",
                "--out",
                str(out),
            ]
        ) == 0
        rows = out.read_text().splitlines()[1:]
        for row in rows:
            assert float(row.split(",")[3]) < 1e-6

    def test_moment_spectrum(self, canonical2, tmp_path):
        out = tmp_path / "moment.csv"
        assert main(["moment", "--matrix", canonical2, "--out", str(out)]) == 0
        values = [float(l.split(",")[1]) for l in out.read_text().splitlines()[1:]]
        np.testing.assert_allclose(values, [math.pi - 1, math.pi + 1], atol=1e-10)

    def test_localize(self, canonical2, capsys):
        assert main(
            ["localize", "--matrix", canonical2, "--window", f"0:{math.pi}"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lambda_max"] == pytest.approx(0.5 + 1 / math.pi, abs=1e-12)
        assert len(payload["maximizer"]["coeffs"]) == 2

    def test_sweep_truncations(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(
            [
                "sweep",
                "--matrix",
                "canonical",
                "--dim",
                "8",
                "--window",
                f"0:{math.pi}",
                "--truncations",
                "2,4,8",
                "--out",
                str(out),
            ]
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "S,lambda_max"
        lams = [float(l.split(",")[1]) for l in lines[1:]]
        assert lams == sorted(lams)

    def test_sweep_parses_explicit_matrix_once(self, tmp_path, monkeypatch):
        matrix = random_gram_matrix(np.random.default_rng(9), 6)
        path = write_json(tmp_path / "gram.json", matrix.to_dict())
        loads = []
        load = cli._load_json
        monkeypatch.setattr(cli, "_load_json", lambda p: loads.append(p) or load(p))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--matrix", path, "--window", f"0:{math.pi}",
                     "--truncations", "2,4,6", "--out", str(out)]) == 0
        assert loads == [path]
        # the reference parses the file again for each truncation
        window = PhaseWindow(((0.0, math.pi),))
        rows = []
        for dim in (2, 4, 6):
            cut = PhaseMatrix.from_dict(load(path)).truncated(dim)
            loc = spectral._localization(cut, window, maximizer=False)
            rows.append((dim, cli._localization_fields(loc)["lambda_max"]))
        assert out.read_text() == cli._csv("S,lambda_max", rows)

    def test_sweeps_take_no_eigenvectors(self, tmp_path, monkeypatch):
        solves = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: solves.append(a) or eigh(a))
        matrix = random_gram_matrix(np.random.default_rng(10), 8)
        path = write_json(tmp_path / "gram.json", matrix.to_dict())
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep", "--matrix", path, "--window", "0:1,2:4",
                     "--truncations", "2,8", "--out", out]) == 0
        assert main(["sweep", "--matrix", "exponential", "--dim", "16",
                     "--window", f"0:{math.pi}", "--q-sweep", "0.2,0.7", "--out", out]) == 0
        assert solves == []
        assert main(["localize", "--matrix", path, "--window", "0:1,2:4", "--out", out]) == 0
        assert len(solves) == 1

    def test_sweep_q_values(self, tmp_path):
        out = tmp_path / "qsweep.csv"
        assert main(
            [
                "sweep",
                "--matrix",
                "exponential",
                "--q",
                "0.5",
                "--dim",
                "4",
                "--window",
                f"0:{math.pi}",
                "--q-sweep",
                "0.0,0.5,1.0",
                "--out",
                str(out),
            ]
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "q,lambda_max"
        lams = [float(l.split(",")[1]) for l in lines[1:]]
        assert lams[0] == pytest.approx(0.5, abs=1e-12)
        assert lams == sorted(lams)

    def test_q_sweep_needs_no_q(self, tmp_path):
        out = tmp_path / "qsweep.csv"
        assert main(
            [
                "sweep",
                "--matrix",
                "exponential",
                "--dim",
                "4",
                "--window",
                "0:3.14",
                "--q-sweep",
                "0.0,0.5",
                "--out",
                str(out),
            ]
        ) == 0
        assert out.read_text().splitlines()[0] == "q,lambda_max"

    def test_q_sweep_rejects_other_matrices(self, canonical8, tmp_path, capsys):
        out = tmp_path / "qsweep.csv"
        for matrix in ("canonical", canonical8):
            assert main(["sweep", "--matrix", matrix, "--dim", "16", "--window",
                         f"0:{math.pi}", "--q-sweep", "0.5,0.9", "--out", str(out)]) == 1
            diag = json.loads(capsys.readouterr().err)
            assert diag["code"] == "error" and "--matrix exponential" in diag["message"]
        assert not out.exists()

    def test_sample_deterministic(self, canonical2, plus_state, tmp_path):
        out1, out2 = tmp_path / "s1.txt", tmp_path / "s2.txt"
        for out in (out1, out2):
            assert main(
                [
                    "sample",
                    "--matrix",
                    canonical2,
                    "--state",
                    plus_state,
                    "--samples",
                    "200",
                    "--seed",
                    "13",
                    "--out",
                    str(out),
                ]
            ) == 0
        assert out1.read_bytes() == out2.read_bytes()
        draws = [float(x) for x in out1.read_text().split()]
        assert len(draws) == 200
        assert all(0.0 <= x < 2 * math.pi for x in draws)

    def test_memory_error_exits_1(
        self, canonical2, plus_state, monkeypatch, capsys
    ):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(distribution, "sample", exhausted)
        argv = ["sample", "--matrix", canonical2, "--state", plus_state, "--samples", "10"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["code"] == "memory"

    def test_cdf_emitter(self, canonical2, plus_state, tmp_path):
        out = tmp_path / "cdf.csv"
        assert main(
            [
                "cdf",
                "--matrix",
                canonical2,
                "--state",
                plus_state,
                "--grid",
                "8",
                "--out",
                str(out),
            ]
        ) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 10  # header + 9 grid points closing at 2*pi
        values = [float(l.split(",")[1]) for l in lines[1:]]
        assert lines[1] == "0.0,0.0"
        assert values[-1] == pytest.approx(1.0, abs=1e-12)
        assert values == sorted(values)

    def test_inputs_not_mutated(self, canonical2, plus_state, tmp_path):
        before = (open(canonical2).read(), open(plus_state).read())
        main(["density", "--matrix", canonical2, "--state", plus_state,
              "--grid", "8", "--out", str(tmp_path / "o.csv")])
        after = (open(canonical2).read(), open(plus_state).read())
        assert before == after

    def test_json_outputs_reparse(self, canonical2, tmp_path):
        out = tmp_path / "loc.json"
        main(["localize", "--matrix", canonical2,
              "--window", f"0:{math.pi}", "--out", str(out)])
        first = out.read_text()
        payload = json.loads(first)
        assert json.loads(json.dumps(payload)) == payload


class TestExactGap:
    def test_dense_fields(self, canonical2, capsys):
        assert main(["localize", "--matrix", canonical2, "--window", f"0:{math.pi}"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "dense"
        assert payload["gap"] == repr(1.0 - payload["lambda_max"])

    def test_canonical_32_exact_decimal(self, tmp_path):
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        for out in outs:
            assert main(["localize", "--matrix", "canonical", "--dim", "32",
                         "--window", f"0:{math.pi}", "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        payload = json.loads(outs[0].read_text())
        lam, gap = Decimal(payload["lambda_max"]), Decimal(payload["gap"])
        assert payload["method"] == "prolate"
        assert lam < 1 and gap > 0
        assert lam + gap == 1
        assert abs(gap - Decimal("1.4805157e-23")) < Decimal("1e-30")
        assert len(payload["maximizer"]["coeffs"]) == 32

    def test_sweep_exact_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--matrix", "canonical", "--dim", "64",
                     "--window", f"0:{math.pi}", "--truncations", "2,16,32,64",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "S,lambda_max"
        lams = [Decimal(line.split(",")[1]) for line in lines[1:]]
        assert float(lams[0]) == pytest.approx(0.5 + 1 / math.pi, abs=1e-12)
        assert all(a < b for a, b in zip(lams, lams[1:]))
        assert all(lam < 1 for lam in lams)

    def test_two_arcs_refused(self, tmp_path, capsys):
        out = tmp_path / "loc.json"
        assert main(["localize", "--matrix", "canonical", "--dim", "64",
                     "--window", "0:1,2:4", "--out", str(out)]) == 2
        diag = json.loads(capsys.readouterr().err)
        assert diag["code"] == "precision"
        assert "S=64" in diag["message"]
        assert not out.exists()


MALFORMED_PAIRS = {
    "three-element pair": [[SQ2, 0.0, 0.0], [SQ2, 0.0, 0.0]],
    "ragged row": [[SQ2, 0.0], [SQ2]],
}


class TestMalformedPairs:
    @pytest.mark.parametrize("coeffs", MALFORMED_PAIRS.values(), ids=MALFORMED_PAIRS)
    def test_state_file(self, canonical2, coeffs, tmp_path, capsys):
        state = write_json(tmp_path / "bad_state.json", {"coeffs": coeffs})
        argv = ["density", "--matrix", canonical2, "--state", state]
        assert main(argv) == 1
        assert json.loads(capsys.readouterr().err)["code"] == "error"

    @pytest.mark.parametrize("row", MALFORMED_PAIRS.values(), ids=MALFORMED_PAIRS)
    @pytest.mark.parametrize("command", ["validate", "kraus"])
    def test_explicit_matrix(self, command, row, tmp_path, capsys):
        entries = [[[1.0, 0.0], [0.0, 0.0]], row]
        mat = write_json(
            tmp_path / "bad_matrix.json",
            {"kind": "explicit", "dim": 2, "entries": entries},
        )
        assert main([command, "--matrix", mat]) == 1
        assert json.loads(capsys.readouterr().err)["code"] == "error"


class TestExtremeStates:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("coeffs", [[[1e200, 0.0], [1e200, 0.0]], [[1e-320, 0.0]]],
                             ids=["1e200", "1e-320"])
    def test_normalized(self, coeffs, tmp_path, capsys):
        state = write_json(tmp_path / "state.json", {"coeffs": coeffs})
        argv = ["cdf", "--matrix", "canonical", "--dim", "2", "--state", state]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[-1] == "6.283185307179586,1.0"

    def test_zero_vector_exits_1(self, tmp_path, capsys):
        state = write_json(tmp_path / "state.json", {"coeffs": [[0.0, -0.0], [0.0, 0.0]]})
        argv = ["cdf", "--matrix", "canonical", "--dim", "2", "--state", state]
        assert main(argv) == 1
        assert "zero vector" in json.loads(capsys.readouterr().err)["message"]


# one bad token per case, each spliced where a number (or a string) goes
BAD_JSON = {
    "NaN": b"NaN",
    "Infinity": b"Infinity",
    "-Infinity": b"-Infinity",
    "1e400": b"1e400",
    "bom": None,
    "non-utf8": None,
}
BAD_FILES = {
    "state": (b'{"coeffs": [[X, 0.0], [1.0, 0.0]], "note": "N"}',
              ["density", "--matrix", "canonical", "--dim", "2", "--state", "{}"]),
    "matrix": (b'{"kind": "explicit", "dim": 1, "entries": [[[X, 0.0]]], "note": "N"}',
               ["validate", "--matrix", "{}"]),
    "window": (b'{"arcs": [[0.0, X]], "note": "N"}',
               ["window-prob", "--matrix", "canonical", "--dim", "2",
                "--state", "STATE", "--window", "{}"]),
}


class TestDecoderEdges:
    """Input JSON is strict: a non-finite or overflowing number, a byte order
    mark or invalid UTF-8 exits 1 with one JSON diagnostic line."""

    @pytest.mark.parametrize("token", BAD_JSON, ids=BAD_JSON)
    @pytest.mark.parametrize("kind", BAD_FILES)
    def test_rejected(self, kind, token, plus_state, tmp_path, capsys):
        template, argv = BAD_FILES[kind]
        text = template.replace(b"X", BAD_JSON[token] or b"0.5")
        if token == "bom":
            text = b"\xef\xbb\xbf" + text
        if token == "non-utf8":
            text = text.replace(b'"N"', b'"\xff\xfe"')
        path = tmp_path / f"{kind}.json"
        path.write_bytes(text)
        argv = [str(path) if a == "{}" else plus_state if a == "STATE" else a for a in argv]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and "Traceback" not in captured.err
        assert json.loads(lines[0])["code"] == "error"

    @pytest.mark.parametrize("kind", BAD_FILES)
    def test_template_accepted(self, kind, plus_state, tmp_path, capsys):
        # the same files with a plain number and an ASCII note are read
        template, argv = BAD_FILES[kind]
        path = tmp_path / f"{kind}.json"
        path.write_bytes(template.replace(b"X", b"1.0"))
        argv = [str(path) if a == "{}" else plus_state if a == "STATE" else a for a in argv]
        assert main(argv) == 0


def bits(values):
    return struct.pack(f"<{len(values)}d", *values)


class TestCodec:
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=50))
    @example([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
              1e308, -1e308, 1.7976931348623157e308, 1e-05, 1e16, 0.1])
    def test_doubles_round_trip(self, values):
        for pretty in (False, True):
            text = cli._dumps({"values": values}, pretty=pretty)
            assert text.endswith("}\n")
            assert bits(json.loads(text)["values"]) == bits(values)

    def test_numpy_scalars(self):
        payload = {"a": np.float64(0.1), "b": np.float32(0.5), "c": np.int64(3)}
        assert json.loads(cli._dumps(payload)) == {"a": 0.1, "b": 0.5, "c": 3}

    @pytest.mark.parametrize("spec", ["gram", "exponential"])
    def test_kraus_output_is_to_dict(self, spec, tmp_path):
        if spec == "gram":
            matrix = random_gram_matrix(np.random.default_rng(11), 12)
            argv = ["--matrix", write_json(tmp_path / "gram.json", matrix.to_dict())]
        else:
            matrix = PhaseMatrix.exponential(0.9, 12)
            argv = ["--matrix", "exponential", "--q", "0.9", "--dim", "12"]
        out = tmp_path / "kraus.json"
        assert main(["kraus", *argv, "--out", str(out)]) == 0
        expected = observable.kraus_decompose(PhaseMatrix.from_dict(matrix.to_dict()))
        assert json.loads(out.read_bytes()) == expected.to_dict()

    @pytest.mark.parametrize("spec", ["gram", "trivial", "canonical", "blocks",
                                      "complex-blocks"])
    def test_kraus_output_bytes_are_to_dict(self, spec, tmp_path):
        # ties: blocks has eigenvalue 2 three times, complex-blocks each of
        # a Gram(3) matrix's eigenvalues twice
        rng = np.random.default_rng(15)
        if spec in ("trivial", "canonical"):
            dim = 6 if spec == "trivial" else 5
            argv = ["--matrix", spec, "--dim", str(dim)]
            matrix = PhaseMatrix.from_dict({"kind": spec, "dim": dim})
        else:
            entries = {
                "gram": lambda: random_gram_matrix(rng, 24).entries,
                "blocks": lambda: np.kron(np.eye(3), np.ones((2, 2))),
                "complex-blocks": lambda: np.kron(np.eye(2),
                                                  random_gram_matrix(rng, 3).entries),
            }[spec]()
            path = write_json(tmp_path / "m.json", PhaseMatrix(entries).to_dict())
            argv = ["--matrix", path]
            matrix = PhaseMatrix.from_dict(json.loads(Path(path).read_text()))
        out = tmp_path / "kraus.json"
        assert main(["kraus", *argv, "--out", str(out)]) == 0
        family = observable.kraus_decompose(matrix)
        assert out.read_bytes() == orjson.dumps(family.to_dict()) + b"\n"

    def test_pair_floats_encode_as_pairs(self):
        z = np.array([[complex(-0.0, 5e-324), complex(1e16, -0.0), complex(0.1, -1e-320)],
                      [complex(-1e16, 2.5), complex(0.0, -0.0), complex(1e-05, 3e16)]])
        for arr in (z, z[0], z.T):
            assert (cli._dumps({"rows": _pair_floats(arr)}).encode()
                    == orjson.dumps({"rows": _pairs(arr)}) + b"\n")
            assert (orjson.dumps(_pairs(arr))
                    == orjson.dumps(np.stack([arr.real, arr.imag], -1).tolist()))

    @pytest.mark.parametrize("command", ["validate", "window-prob", "kraus", "localize"])
    def test_json_outputs_byte_identical(self, command, plus_state, tmp_path):
        matrix = random_gram_matrix(np.random.default_rng(12), 2)
        argv = [command, "--matrix", write_json(tmp_path / "gram.json", matrix.to_dict())]
        if command == "window-prob":
            argv += ["--state", plus_state]
        if command in ("window-prob", "localize"):
            argv += ["--window", "0:1,2:4"]
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        for out in outs:
            assert main([*argv, "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert isinstance(json.loads(outs[0].read_bytes()), dict)


def test_cli_import_loads_no_optional_modules():
    # mpmath and decimal are imported only on the exact path and scipy only by
    # the tests; loading any of them at start-up slows every invocation
    code = (
        "import sys, phaseobs.cli; "
        "print([m for m in ('mpmath', 'scipy', 'decimal') if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=Path(__file__).resolve().parent.parent,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "[]"
