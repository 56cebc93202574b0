import gc
import hashlib
import io
import json
import math
import os
import re
import stat
import struct
import subprocess
import sys
import tracemalloc
import zlib
from decimal import Decimal
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import TWO_PI, random_gram_matrix, random_state
from phaseobs import (PhaseMatrix, PhaseWindow, _matrixfile, cli, distribution, observable,
                      spectral)
from phaseobs.cli import main
from phaseobs.hardy import _pair_floats, _pairs

SQ2 = 1 / math.sqrt(2)


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def reference_csv(header, rows):
    """The per-cell CSV formatter the CLI's writer replaced, kept as its
    oracle: ints and strings as str spells them, every other cell as
    repr(float(x))."""
    lines = [header]
    lines.extend(",".join(str(x) if isinstance(x, (int, str)) else repr(float(x))
                          for x in row) for row in rows)
    return "\n".join(lines) + "\n"


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
                "--out",
                str(out),
            ]
        ) == 0
        rows = out.read_text().splitlines()[1:]
        for row in rows:
            assert float(row.split(",")[3]) < 1e-6

    def test_kernel_check_checks_the_density_residue(self, plus_state, tmp_path,
                                                     monkeypatch, capsys):
        # the density column is `density_grid`'s, after its residue check: for
        # PLUS this unchecked matrix has density 1 + cos(theta) - 2e-9
        # exp(i theta), a residue of 2e-9, past the density's 1e-10 and within
        # the sandwich's own 1e-8
        skew = np.array([[1.0, 0.5], [0.5 - 4e-9, 1.0]], dtype=complex)
        monkeypatch.setattr(cli, "_load_matrix",
                            lambda args: PhaseMatrix._adopt("explicit", entries=skew))
        out = tmp_path / "kernel.csv"
        assert main(["kernel-check", "--matrix", "unused.json", "--state", plus_state,
                     "--out", str(out)]) == 2
        diag = json.loads(capsys.readouterr().err)
        assert diag["code"] == "validation"
        assert diag["message"].startswith("density has imaginary residue ")
        assert not out.exists()

    def test_kernel_check_takes_no_grid(self, canonical2, plus_state, tmp_path, capsys):
        # the sandwich of a band-limited state is exact on any grid past its
        # band, so the command has no grid to choose
        out = tmp_path / "kernel.csv"
        assert main(["kernel-check", "--matrix", canonical2, "--state", plus_state,
                     "--grid", "4096", "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err)["code"] == "usage"
        assert not out.exists()

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
        load = _matrixfile._load_json
        monkeypatch.setattr(_matrixfile, "_load_json", lambda p: loads.append(p) or load(p))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--matrix", path, "--window", f"0:{math.pi}",
                     "--truncations", "2,4,6", "--out", str(out)]) == 0
        assert loads == [path]
        # the reference parses the file again for each truncation
        window = PhaseWindow(((0.0, math.pi),))
        rows = []
        for dim in (2, 4, 6):
            cut = PhaseMatrix.from_dict(load(path)).truncated(dim)
            loc = spectral.localization(cut, window, maximizer=False)
            rows.append((dim, cli._localization_fields(loc)["lambda_max"]))
        assert out.read_text() == reference_csv("S,lambda_max", rows)

    def test_builtin_truncation_above_dim_exits_1(self, tmp_path, capsys):
        path = write_json(tmp_path / "exp8.json", PhaseMatrix.exponential(0.9, 8).to_dict())
        out = tmp_path / "sweep.csv"
        messages = []
        for source in (["exponential", "--q", "0.9", "--dim", "8"], [path]):
            assert main(["sweep", "--matrix", *source,
                         "--window", f"0:{math.pi}", "--truncations", "4,16,32",
                         "--out", str(out)]) == 1
            diag = json.loads(capsys.readouterr().err)
            assert diag["code"] == "error"
            messages.append(diag["message"])
        assert messages == ["truncation 16 outside [1, 8]"] * 2
        assert not out.exists()

    def test_builtin_sweep_matches_per_size_matrices(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--matrix", "exponential", "--q", "0.9", "--dim", "64",
                     "--window", f"0:{math.pi}", "--truncations", "1,2,7,16,64",
                     "--out", str(out)]) == 0
        # the reference builds the builtin afresh at each size
        window = PhaseWindow(((0.0, math.pi),))
        rows = []
        for dim in (1, 2, 7, 16, 64):
            loc = spectral.localization(PhaseMatrix.exponential(0.9, dim), window,
                                        maximizer=False)
            rows.append((dim, cli._localization_fields(loc)["lambda_max"]))
        assert out.read_text() == reference_csv("S,lambda_max", rows)

    def test_views_give_the_bytes_of_copies(self, tmp_path):
        # truncations are views of their parent's entries and builtins are
        # adopted without a copy; the public constructor's contiguous copies
        # give the same bytes
        window = PhaseWindow(((0.0, math.pi),))
        gram = random_gram_matrix(np.random.default_rng(18), 24)
        sources = {
            "exponential": (PhaseMatrix.exponential(0.9, 256),
                            ["--matrix", "exponential", "--q", "0.9", "--dim", "256"]),
            "gram": (gram, ["--matrix", write_json(tmp_path / "gram.json", gram.to_dict())]),
        }
        out = tmp_path / "out.csv"
        for full, argv in sources.values():
            dims = (1, 2, 7, full.dim // 2 - 1, full.dim - 1, full.dim)
            assert main(["sweep", *argv, "--window", f"0:{math.pi}", "--truncations",
                         ",".join(map(str, dims)), "--out", str(out)]) == 0
            rows = []
            for dim in dims:
                copy = PhaseMatrix(full.entries[:dim, :dim])
                assert copy.entries.flags.c_contiguous
                loc = spectral.localization(copy, window, maximizer=False)
                rows.append((dim, cli._localization_fields(loc)["lambda_max"]))
            assert out.read_text() == reference_csv("S,lambda_max", rows)
            assert main(["moment", *argv, "--out", str(out)]) == 0
            copy = PhaseMatrix(full.entries)
            assert out.read_text() == reference_csv(
                "index,eigenvalue", enumerate(spectral.moment_spectrum(copy)))

    def test_sweeps_take_no_eigenvectors(self, tmp_path, monkeypatch):
        solves = []  # eigenvector work: eigh, or the solves of inverse iteration
        for name in ("eigh", "solve"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda *a, real=real, name=name:
                                solves.append(name) or real(*a))
        matrix = random_gram_matrix(np.random.default_rng(10), 8)
        path = write_json(tmp_path / "gram.json", matrix.to_dict())
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep", "--matrix", path, "--window", "0:1,2:4",
                     "--truncations", "2,8", "--out", out]) == 0
        assert main(["sweep", "--matrix", "exponential", "--dim", "16",
                     "--window", f"0:{math.pi}", "--q-sweep", "0.2,0.7", "--out", out]) == 0
        assert solves == []
        assert main(["localize", "--matrix", path, "--window", "0:1,2:4", "--out", out]) == 0
        assert solves == ["solve"]  # its maximizer by inverse iteration, with no eigh

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


class TestOptionRanges:
    @pytest.mark.parametrize("argv, message", [
        (["density", "--grid", "1"], "--grid must be >= 2"),
        (["cdf", "--grid", "1"], "--grid must be >= 2"),
        (["density", "--dim", "0"], "--dim must be >= 1"),
        (["sample", "--samples", "5", "--seed", "-1"],
         "--seed must be a 64-bit unsigned integer"),
        (["sample", "--samples", "5", "--seed", str(2**64)],
         "--seed must be a 64-bit unsigned integer"),
        (["sample", "--samples", "-1"], "--samples must be non-negative"),
    ])
    def test_out_of_range_exits_1(self, argv, message, canonical2, plus_state,
                                  tmp_path, capsys):
        out = tmp_path / "out.txt"
        full = [argv[0], "--matrix", canonical2, "--state", plus_state, *argv[1:],
                "--out", str(out)]
        assert main(full) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        diag = json.loads(captured.err)
        assert diag["code"] == "error"
        assert diag["message"] == message
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["density", "--grid", "2"],
        ["cdf", "--grid", "2"],
        ["sample", "--samples", "0", "--seed", str(2**64 - 1)],
    ])
    def test_range_ends_accepted(self, argv, canonical2, plus_state, tmp_path):
        out = tmp_path / "out.txt"
        assert main([argv[0], "--matrix", canonical2, "--state", plus_state,
                     *argv[1:], "--out", str(out)]) == 0

    @pytest.mark.parametrize("argv", [
        ["validate", "--matrix", "exponential", "--dim", "4", "--q", "-inf"],
        ["validate", "--matrix", "exponential", "--dim", "4", "--q", "-1e-3"],
        ["window-prob", "--matrix", "canonical", "--dim", "2", "--state", "{plus}",
         "--window", "-1:2"],
        ["sweep", "--matrix", "exponential", "--dim", "4", "--window", "0:1",
         "--q-s", "-1e-3"],
    ])
    def test_value_may_start_with_a_dash(self, argv, plus_state, tmp_path, capsys):
        # a value that argparse would read as an option is taken as the value,
        # by its full option name or a unique prefix, as in --option=value
        argv = [arg.format(plus=plus_state) for arg in argv]
        joined = [*argv[:-2], f"{argv[-2]}={argv[-1]}"]
        results = []
        for form in (argv, joined):
            results.append((main([*form, "--out", str(tmp_path / "out")]),
                            capsys.readouterr().err))
        assert results[0] == results[1]
        assert results[0][0] == 1 and json.loads(results[0][1])["code"] != "usage"

    def test_help_is_not_a_value(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--matrix", "canonical", "-h"])
        assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage:")


class TestExitContracts:
    """Each refusal exits with its code and message and leaves no output."""

    @pytest.mark.parametrize("argv, status, code, message", [
        (["validate", "--matrix", "canonical"], 1, "error",
         "builtin matrix 'canonical' requires --dim"),
        (["validate", "--matrix", "exponential", "--dim", "4"], 1, "error",
         "exponential matrix requires --q"),
        (["sweep", "--matrix", "exponential", "--q", "0.9", "--dim", "8",
          "--window", "0:1", "--truncations", "4", "--q-sweep", "0.5"], 1, "error",
         "use either --truncations or --q-sweep, not both"),
        (["sweep", "--matrix", "exponential", "--window", "0:1", "--q-sweep", "0.5"],
         1, "error", "--q-sweep requires --dim"),
        (["sweep", "--matrix", "exponential", "--q", "0.9", "--dim", "8",
          "--window", "0:1"], 1, "error", "sweep requires --truncations or --q-sweep"),
        (["kernel-check", "--matrix", "canonical", "--dim", "2", "--state", "{wide}"],
         1, "error", "state band limit exceeds matrix dimension"),
        (["kraus", "--matrix", "{bad}"], 2, "validation", "not a phase matrix: psd (1)"),
        (["localize", "--matrix", "{bad}", "--window", "0:1"], 2, "validation",
         "not a phase matrix: psd (1)"),
        (["density", "--matrix", "{bad}", "--state", "{plus}"], 2, "validation",
         "not a phase matrix: psd (1)"),
        (["validate", "--matrix", "canonical", "--dim", "4", "--q", "0.3"], 1, "error",
         "matrix kind 'canonical' takes no q"),
        (["localize", "--matrix", "trivial", "--dim", "4", "--q", "0.3", "--window", "0:1"],
         1, "error", "matrix kind 'trivial' takes no q"),
    ])
    def test_refusal(self, argv, status, code, message, plus_state, tmp_path, capsys):
        files = {
            "plus": plus_state,
            "wide": write_json(tmp_path / "wide.json",
                               {"coeffs": [[0.5, 0.0]] * 4}),
            "bad": write_json(tmp_path / "bad.json", {
                "kind": "explicit", "dim": 2,
                "entries": [[[1.0, 0.0], [2.0, 0.0]], [[2.0, 0.0], [1.0, 0.0]]]}),
        }
        out = tmp_path / "out.txt"
        assert main([arg.format(**files) for arg in argv] + ["--out", str(out)]) == status
        captured = capsys.readouterr()
        assert captured.out == ""
        diag = json.loads(captured.err)
        assert (diag["code"], diag["message"]) == (code, message)
        assert not out.exists()


EYE2 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]


class TestMatrixFields:
    """A matrix file's dim is a JSON integer, equal to the rows of an
    explicit matrix's entries where given, and its q a JSON number; q is
    read only for exponential and entries only for explicit, and either
    field under another kind is refused."""

    @pytest.mark.parametrize("command", ["validate", "kraus", "localize"])
    @pytest.mark.parametrize("spec, message", [
        ({"kind": "explicit", "dim": 5, "entries": EYE2},
         "matrix dim 5 does not match entries (2, 2)"),
        ({"kind": "explicit", "dim": 2.0, "entries": EYE2},
         "matrix dim must be an integer, not 2.0"),
        ({"kind": "canonical", "dim": 2.7}, "matrix dim must be an integer, not 2.7"),
        ({"kind": "canonical", "dim": True}, "matrix dim must be an integer, not True"),
        ({"kind": "trivial", "dim": "8"}, "matrix dim must be an integer, not '8'"),
        ({"kind": "exponential", "dim": 4, "q": "0.5"}, "matrix q must be a number, not '0.5'"),
        ({"kind": "exponential", "dim": 4, "q": False}, "matrix q must be a number, not False"),
        ({"kind": "exponential", "dim": 4.5, "q": 0.5}, "matrix dim must be an integer, not 4.5"),
        ({"kind": "canonical", "dim": 2, "entries": [[[5, 0]]], "q": "x"},
         "matrix kind 'canonical' takes no q"),
        ({"kind": "canonical", "dim": 2, "entries": EYE2}, "matrix kind 'canonical' takes no entries"),
        ({"kind": "explicit", "dim": 1, "entries": [[[1, 0]]], "q": 0.5},
         "matrix kind 'explicit' takes no q"),
        ({"kind": "trivial", "dim": 3, "q": 0.2}, "matrix kind 'trivial' takes no q"),
        ({"kind": "exponential", "dim": 3, "q": 0.2, "entries": [[[1, 0]]]},
         "matrix kind 'exponential' takes no entries"),
        ([1], "a matrix must be a JSON object, not list"),
    ])
    def test_refused(self, command, spec, message, tmp_path, capsys):
        argv = [command, "--matrix", write_json(tmp_path / "matrix.json", spec)]
        if command == "localize":
            argv += ["--window", "0:1"]
        out = tmp_path / "out.txt"
        assert main([*argv, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"code": "error", "message": message, "detail": None}
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "kraus", "localize", "sweep"])
    @pytest.mark.parametrize("options, named", [
        (["--dim", "2"], "--dim"),
        (["--q", "0.5"], "--q"),
        (["--q", "0.9", "--dim", "8"], "--dim"),
    ])
    def test_builtin_options_with_file_refused(self, command, options, named, tmp_path,
                                               capsys):
        # --dim and --q shape a builtin; given with a matrix file they would
        # be ignored
        argv = [command, "--matrix",
                write_json(tmp_path / "matrix.json", {"kind": "explicit", "entries": EYE2}),
                *options]
        if command in ("localize", "sweep"):
            argv += ["--window", "0:1"]
        if command == "sweep":
            argv += ["--truncations", "1,2"]
        out = tmp_path / "out.txt"
        assert main([*argv, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "code": "error", "detail": None,
            "message": f"{named} is for builtin matrices; a matrix file sets its own"}
        assert not out.exists()

    @pytest.mark.parametrize("spec", [
        {"kind": "explicit", "entries": EYE2},
        {"kind": "explicit", "dim": 2, "entries": EYE2},
        {"kind": "exponential", "dim": 2, "q": 0},
        {"kind": "trivial", "dim": 2},
    ])
    def test_accepted(self, spec, tmp_path, capsys):
        assert main(["validate", "--matrix", write_json(tmp_path / "matrix.json", spec)]) == 0
        assert json.loads(capsys.readouterr().out) == {"valid": True, "dim": 2, "issues": []}

    @pytest.mark.parametrize("role, doc, message", [
        ("state", {"note": 1}, "state has no 'coeffs' field"),
        ("window", [[0.0, 1.0]], "a window must be a JSON object, not list"),
        ("window", {"arcs": None}, "arcs must be a list of finite [lo, hi] pairs"),
        ("matrix", {"kind": "canonical"}, "matrix has no 'dim' field"),
        ("matrix", {"kind": "explicit"}, "matrix has no 'entries' field"),
    ], ids=["state-without-coeffs", "window-list", "null-arcs", "canonical-without-dim",
            "explicit-without-entries"])
    def test_missing_or_ill_typed_field_named(self, role, doc, message, plus_state, tmp_path,
                                              capsys):
        # a missing key or a wrong container once left a bare KeyError or
        # TypeError text, such as 'coeffs'
        files = {"matrix": write_json(tmp_path / "m.json", {"kind": "canonical", "dim": 2}),
                 "state": plus_state, "window": "0:1"}
        files[role] = write_json(tmp_path / "doc.json", doc)
        out = tmp_path / "out.txt"
        argv = ["window-prob", "--matrix", files["matrix"], "--state", files["state"],
                "--window", files["window"], "--out", str(out)]
        assert main(argv) == 1
        assert json.loads(capsys.readouterr().err) == {"code": "error", "message": message,
                                                       "detail": None}
        assert not out.exists()


class TestLoadJson:
    # main leaves the caller's cyclic collector as it found it, whatever the
    # exit

    @pytest.fixture
    def exits(self, tmp_path, plus_state):
        """argv for exits 0, 1 (a decode error) and 2 (a validation failure)."""
        bad = tmp_path / "bad.json"
        bad.write_text('{"coeffs": [[NaN, 0.0]]}')
        not_psd = write_json(tmp_path / "not_psd.json", {
            "kind": "explicit", "dim": 2,
            "entries": [[[1.0, 0.0], [2.0, 0.0]], [[2.0, 0.0], [1.0, 0.0]]]})
        state = ["--state", plus_state, "--grid", "4"]
        return {
            0: ["density", "--matrix", "canonical", "--dim", "2", *state],
            1: ["density", "--matrix", "canonical", "--dim", "2", "--state", str(bad)],
            2: ["density", "--matrix", not_psd, *state],
        }

    def test_collector_restored_after_decode_error(self, exits, monkeypatch, capsys):
        for status, argv in exits.items():
            assert gc.isenabled()
            assert main(argv) == status
            assert gc.isenabled()
        # an exception main does not map to an exit code restores it as well
        def broken(args):
            raise RuntimeError("broken handler")

        monkeypatch.setattr(cli, "cmd_density", broken)
        with pytest.raises(RuntimeError):
            main(exits[0])
        assert gc.isenabled()

    def test_collector_left_disabled(self, exits, monkeypatch, capsys):
        seen = []
        handler = cli.cmd_density
        monkeypatch.setattr(cli, "cmd_density",
                            lambda args: seen.append(gc.isenabled()) or handler(args))
        gc.disable()
        try:
            for status, argv in exits.items():
                assert main(argv) == status
                assert not gc.isenabled()
            assert seen == [False] * 3
        finally:
            gc.enable()


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
    # the bad token sits in a middle row, which the row reader decodes alone
    "matrix-rows": (b'{"kind": "explicit", "dim": 4, "entries": ['
                    b'[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], '
                    b'[[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]], '
                    b'[[0.0, 0.0], [0.0, 0.0], [X, 0.0], [0.0, 0.0]], '
                    b'[[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]], "note": "N"}',
                    ["kraus", "--matrix", "{}"]),
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
        # the message of the whole-file decode, wherever the token sits
        with pytest.raises(orjson.JSONDecodeError) as whole:
            orjson.loads(text)
        assert json.loads(lines[0]) == {"code": "error", "message": str(whole.value),
                                        "detail": None}

    @pytest.mark.parametrize("kind", BAD_FILES)
    def test_template_accepted(self, kind, plus_state, tmp_path, capsys):
        # the same files with a plain number and an ASCII note are read
        template, argv = BAD_FILES[kind]
        path = tmp_path / f"{kind}.json"
        path.write_bytes(template.replace(b"X", b"1.0"))
        argv = [str(path) if a == "{}" else plus_state if a == "STATE" else a for a in argv]
        assert main(argv) == 0


JSON_SPACE = st.text(" \t\n\r", max_size=3)
# strings that hold a row seam, and the reader's nonce plain and \u-escaped
SEAM_STRINGS = ["]], [[", "x ] ] , [ [ y", "]],[[1.0, 2.0]],[["]
NONCES = [orjson.dumps(_matrixfile._NONCE), b'"\\u' + b"%04x" % ord(_matrixfile._NONCE[0])
          + _matrixfile._NONCE[1:].encode() + b'"']


@st.composite
def matrix_files(draw):
    """The bytes of a matrix file: any JSON whitespace between tokens, keys
    in any order, extra keys whose strings hold row seams or the nonce,
    duplicate `entries` keys, 1 to 8 rows, ragged rows, string and null
    leaves and 4-level grids."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    depth = draw(st.sampled_from([3, 3, 3, 4]))
    # one file in three has odd leaves or ragged rows, and then only some
    odd, ragged = draw(st.integers(0, 2)) == 0, draw(st.integers(0, 2)) == 0
    number = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.integers(-2**53, 2**53))
    odd_leaf = st.sampled_from([None, "1.5", "x", True, b'"\\u0031"'])

    def rarely(flag):
        return flag and draw(st.integers(0, 4)) == 0

    def pair():
        size = draw(st.sampled_from([0, 1, 3])) if rarely(ragged) else 2
        node = [draw(odd_leaf if rarely(odd) else number) for _ in range(size)]
        return [node] if depth == 4 else node

    def row():
        size = draw(st.integers(0, 5)) if rarely(ragged) else cols
        return [pair() for _ in range(size)]

    entries = [row() for _ in range(rows)]
    if rarely(odd):
        entries.insert(draw(st.integers(0, rows)), [b"NONCE"])
    items = [("kind", "explicit"), ("dim", rows), ("entries", entries)]
    extras = st.sampled_from(["note", "note", "seams", "entries", "nonce"])
    for key in draw(st.lists(extras, max_size=2)):
        value = {"note": "N", "seams": draw(st.sampled_from(SEAM_STRINGS)),
                 "entries": [[[1.0, 0.0]]], "nonce": [b"NONCE"]}[key]
        items.insert(draw(st.integers(0, len(items))), (key, value))

    def dump(node):
        space = draw(JSON_SPACE)
        if isinstance(node, list):
            inner = b",".join(dump(x) for x in node) if node else draw(JSON_SPACE).encode()
            return space.encode() + b"[" + inner + b"]" + draw(JSON_SPACE).encode()
        if node == b"NONCE":
            node = draw(st.sampled_from(NONCES))
        elif not isinstance(node, bytes):
            node = orjson.dumps(node)
        return space.encode() + node + draw(JSON_SPACE).encode()

    body = b",".join(dump(key) + b":" + dump(value) for key, value in items)
    return b"{" + body + b"}"


class TestRowReader:
    """An explicit matrix file read a row at a time gives the whole-file
    decode's entries bit for bit, and every other key as it is."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("rows") / "matrix.json"

    @settings(max_examples=300, deadline=None)
    @given(data=matrix_files())
    @example(data=b'{"entries": [[[1.0, 2.0]], [[3.0, 4.0]], [[5.0, 6.0]]]}')
    @example(data=b'{"entries": [[[1.0, 2.0]], [[3.0, 4.0]]], "entries": [[[1.0, 0.0]]]}')
    @example(data=b'{"entries": [[[1.0, 0.0]]], "entries": [[[1.0, 2.0]], [[3.0, 4.0]]]}')
    # the marker lands in "a"; a file element equal to it must not pass for it
    @example(data=b'{"a": [[[1.0, 2.0]], [[3.0, 4.0]]], "entries": [[[1.0, 2.0]], ['
             + NONCES[0] + b'], [[5.0, 6.0]]]}')
    @example(data=b'{"a": [[[1.0, 2.0]], [[3.0, 4.0]]], "entries": [[[1.0, 2.0]], ['
             + NONCES[1] + b'], [[5.0, 6.0]]]}')
    @example(data=b'{"entries": [[[[1.0, 2.0]], [[3.0, 4.0]]], [[[5.0, 6.0]], [[7.0, 8.0]]]]}')
    @example(data=b'{"entries": [[[1.0, 2.0]], [[3.0, 4.0]], [[5.0]], [[7.0, 8.0]]]}')
    @example(data=b'{"entries": [[[1.0, 2.0]], [[3.0, 4.0], [5.0, 6.0]], [[7.0, 8.0]]]}')
    @example(data=b'{"entries": [[[1.0, 2.0]], [[null, "1.5"]], [[7.0, 8.0]]], "n": "]], [["}')
    def test_matches_whole_file_decode(self, path, data):
        path.write_bytes(data)
        try:
            whole = orjson.loads(data)
        except orjson.JSONDecodeError as exc:
            with pytest.raises(orjson.JSONDecodeError, match=re.escape(str(exc))):
                _matrixfile._load_json(path)
            return
        got = _matrixfile._load_json(path)
        assert got.keys() == whole.keys()
        assert all(got[key] == whole[key] for key in whole if key != "entries")
        try:
            expected = np.ascontiguousarray(whole["entries"], dtype=float)
        except (TypeError, ValueError):
            assert got["entries"] == whole["entries"]
            return
        decoded = np.ascontiguousarray(got["entries"], dtype=float)
        assert decoded.shape == expected.shape
        assert decoded.tobytes() == expected.tobytes()

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=matrix_files())
    @example(data=b'{"entries": [[[1.0, 2.0]], [[3.0, 4.0]], [[5.0, 6.0]]]}')
    @example(data=b'{"entries": [[[]], [[]]], "dim": 18446744073709551615, "n": [-0.0, 1e-320]}')
    def test_cache_hit_gives_the_decode(self, path, data, monkeypatch):
        # every file the row reader accepts is stored on a miss, and a hit
        # gives the row reader's document back: the same keys in the same
        # order, the same values and the same entries bit for bit
        expected = _matrixfile._entries_by_row(data)
        if expected is None:
            return
        path.write_bytes(data)
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_CACHE_MIN_BYTES", 0)
            _matrixfile._load_json(path)
            assert Path(_matrixfile._cache_entry(data)).is_file()
            # a hit decodes nothing
            patch.setattr(_matrixfile, "_entries_by_row", None)
            got = _matrixfile._load_json(path)
        assert list(got) == list(expected)
        assert all(got[key] == expected[key] for key in expected if key != "entries")
        assert got["entries"].dtype == expected["entries"].dtype
        assert got["entries"].shape == expected["entries"].shape
        assert got["entries"].tobytes() == expected["entries"].tobytes()
        assert got["entries"].flags.writeable

    @pytest.mark.parametrize("dumps", [
        json.dumps, orjson.dumps, lambda doc: json.dumps(doc, indent=2),
        lambda doc: json.dumps(doc, separators=("\n,\r\n", ":\t"))])
    def test_common_layouts_read_by_row(self, dumps, path):
        matrix = random_gram_matrix(np.random.default_rng(17), 7)
        doc = {"dim": 7, "entries": _pairs(matrix.entries), "kind": "explicit"}
        data = dumps(doc)
        got = _matrixfile._entries_by_row(data if isinstance(data, bytes) else data.encode())
        assert got is not None
        assert got["entries"].tobytes() == _pair_floats(matrix.entries).tobytes()
        assert {**got, "entries": None} == {**doc, "entries": None}


class TestMatrixCache:
    """A matrix file of at least `_CACHE_MIN_BYTES` is decoded once and then
    read from its cache entry; every output is the same either way, and no
    cache failure shows."""

    @pytest.fixture
    def gram(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_CACHE_MIN_BYTES", 0)
        matrix = random_gram_matrix(np.random.default_rng(23), 24)
        return write_json(tmp_path / "gram.json", matrix.to_dict())

    @staticmethod
    def entries():
        return sorted(Path(_matrixfile._cache_dir()).iterdir())

    @staticmethod
    def decodes(monkeypatch):
        """The list of documents the row reader decodes from now on."""
        calls, decode = [], _matrixfile._entries_by_row
        monkeypatch.setattr(_matrixfile, "_entries_by_row",
                            lambda data: calls.append(data) or decode(data))
        return calls

    @pytest.mark.parametrize("argv", [
        ["validate"], ["kraus"], ["localize", "--window", f"0:{math.pi}"],
        ["sweep", "--window", "0.5:4", "--truncations", "1,5,24"],
    ], ids=["validate", "kraus", "localize", "sweep"])
    def test_miss_and_hit_write_the_same_bytes(self, argv, gram, tmp_path, monkeypatch, capsys):
        decodes = self.decodes(monkeypatch)
        outputs = []
        for run in ("miss", "hit", "uncached"):
            if run == "uncached":
                monkeypatch.setattr(cli, "_CACHE_MIN_BYTES", 2**62)
            out = tmp_path / f"{run}.out"
            assert main([argv[0], "--matrix", gram, *argv[1:], "--out", str(out)]) == 0
            assert capsys.readouterr() == ("", "")
            outputs.append(out.read_bytes())
        assert len(decodes) == 2 and len(self.entries()) == 1
        assert outputs[0] and outputs[0] == outputs[1] == outputs[2]

    @staticmethod
    def seal(header, payload):
        """An entry whose check line matches its header and payload."""
        return b"%08x\n" % zlib.crc32(header + payload) + header + payload

    @pytest.mark.parametrize("damage", [
        lambda c, h, p: TestMatrixCache.seal(h, p[:-1]),
        lambda c, h, p: TestMatrixCache.seal(h, p[:-8]),
        lambda c, h, p: TestMatrixCache.seal(h, p + b"\0" * 8),
        lambda c, h, p: TestMatrixCache.seal(h[:-2], b""),
        lambda c, h, p: TestMatrixCache.seal(b"{not json\n", p),
        lambda c, h, p: TestMatrixCache.seal(h.replace(b"[24,24,2]", b"[48,24,2]"), p),
        lambda c, h, p: TestMatrixCache.seal(h.replace(b"[24,24,2]", b"[-24,-24,2]"), p),
        lambda c, h, p: TestMatrixCache.seal(h.replace(b"[24,24,2]", b"[24,24,2.0]"), p),
        lambda c, h, p: TestMatrixCache.seal(h.replace(b"[24,24,2]", b"{}"), p),
        lambda c, h, p: TestMatrixCache.seal(h.replace(b'"entries":', b'"shape":'), p),
        lambda c, h, p: TestMatrixCache.seal(b"[1]\n", p),
        lambda c, h, p: b"",
        # the length is right, the bytes are not the ones written
        lambda c, h, p: c + h + bytes(len(p)),
        lambda c, h, p: c + h + p[:100] + bytes([p[100] ^ 1]) + p[101:],
        lambda c, h, p: c + h.replace(b'"dim":24', b'"dim":25') + p,
        lambda c, h, p: b"%08x\n" % (int(c, 16) ^ 1) + h + p,
        lambda c, h, p: c[:-1] + b" \n" + h + p,
        lambda c, h, p: h + p,
    ], ids=["short-1", "short-8", "long", "cut-header", "bad-header", "more-rows", "negative",
            "float-shape", "dict-shape", "no-shape", "list-header", "empty", "zeroed",
            "flipped-bit", "edited-header", "wrong-check", "spaced-check", "no-check"])
    def test_damaged_entry_is_a_miss_and_rewritten(self, damage, gram, monkeypatch):
        expected = _matrixfile._load_json(gram)
        [entry] = self.entries()
        intact = entry.read_bytes()
        check, header, payload = intact.split(b"\n", 2)
        header += b"\n"
        assert header == b'{"kind":"explicit","dim":24,"entries":[24,24,2]}\n'
        assert intact == self.seal(header, payload)
        assert payload == expected["entries"].astype("<f8").tobytes()
        entry.write_bytes(damage(check + b"\n", header, payload))
        decodes = self.decodes(monkeypatch)
        got = _matrixfile._load_json(gram)
        assert len(decodes) == 1
        assert got.keys() == expected.keys() and got["dim"] == 24
        assert got["entries"].tobytes() == expected["entries"].tobytes()
        assert entry.read_bytes() == intact

    def test_document_too_deep_to_store(self, tmp_path, monkeypatch):
        # orjson decodes deeper nesting than it encodes: such a document is
        # read as usual and not stored
        monkeypatch.setattr(cli, "_CACHE_MIN_BYTES", 0)
        deep = b"[" * 300 + b"]" * 300
        path = tmp_path / "deep.json"
        path.write_bytes(b'{"kind": "explicit", "note": ' + deep
                         + b', "entries": ' + orjson.dumps(EYE2) + b"}")
        decodes = self.decodes(monkeypatch)
        for _ in range(2):
            doc = _matrixfile._load_json(path)
            assert doc["entries"].tobytes() == np.array(EYE2, dtype=float).tobytes()
        assert len(decodes) == 2
        assert not Path(_matrixfile._cache_dir()).exists() or not self.entries()

    def test_entry_that_is_a_directory_is_a_miss(self, gram, tmp_path, capsys):
        # neither read nor rewritten, and not reported
        expected = _matrixfile._load_json(gram)
        [entry] = self.entries()
        entry.unlink()
        entry.mkdir()
        out = tmp_path / "kraus.json"
        assert main(["kraus", "--matrix", gram, "--out", str(out)]) == 0
        assert capsys.readouterr() == ("", "")
        assert _matrixfile._load_json(gram)["entries"].tobytes() == expected["entries"].tobytes()
        assert entry.is_dir() and out.read_bytes()

    def test_refused_refresh_keeps_the_hit(self, gram, monkeypatch):
        # a read-only or foreign-owned cache refuses the LRU touch: the
        # entry is still served, not decoded again and not rewritten
        expected = _matrixfile._load_json(gram)
        [entry] = self.entries()
        intact = entry.read_bytes()

        def refuse(*args, **kwargs):
            raise PermissionError(13, "Operation not permitted", str(entry))

        monkeypatch.setattr(os, "utime", refuse)
        decodes = self.decodes(monkeypatch)
        got = _matrixfile._load_json(gram)
        assert len(decodes) == 0
        assert got.keys() == expected.keys()
        assert got["entries"].tobytes() == expected["entries"].tobytes()
        assert entry.read_bytes() == intact

    @pytest.mark.parametrize("blocked", ["file", "read-only"])
    def test_unwritable_cache_changes_nothing(self, blocked, gram, tmp_path, monkeypatch, capsys):
        out = tmp_path / "reference.json"
        assert main(["kraus", "--matrix", gram, "--out", str(out)]) == 0
        reference = out.read_bytes()
        home = tmp_path / "blocked"
        if blocked == "file":
            # the cache directory would sit below a regular file
            home.write_bytes(b"")
        else:
            home.mkdir(mode=0o500)
        monkeypatch.setenv("XDG_CACHE_HOME", str(home))
        try:
            for run in range(2):
                assert main(["kraus", "--matrix", gram, "--out", str(out)]) == 0
                assert capsys.readouterr() == ("", "")
                assert out.read_bytes() == reference
        finally:
            home.chmod(0o700)
        if blocked == "file" or os.geteuid() != 0:
            assert not Path(_matrixfile._cache_dir()).exists()

    def test_changed_digit_is_a_miss(self, gram, monkeypatch):
        first = _matrixfile._load_json(gram)
        data = Path(gram).read_bytes()
        # the first diagonal entry's 1.0 becomes 1.5
        at = data.index(b"1.0, 0.0]") + 2
        Path(gram).write_bytes(data[:at] + b"5" + data[at + 1:])
        decodes = self.decodes(monkeypatch)
        second = _matrixfile._load_json(gram)
        assert len(decodes) == 1 and len(self.entries()) == 2
        changed = np.flatnonzero(first["entries"] != second["entries"])
        assert changed.size == 1 and second["entries"].flat[changed[0]] == 1.5

    def test_least_recently_used_entries_evicted(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_CACHE_MIN_BYTES", 0)
        paths = [write_json(tmp_path / f"m{i}.json",
                            {"kind": "explicit", "entries": [[[float(i), 0.0]], [[1.0, 0.0]]]})
                 for i in range(10)]
        digests = [Path(_matrixfile._cache_entry(Path(p).read_bytes())).name for p in paths]
        for i, path in enumerate(paths[:8]):
            _matrixfile._load_json(path)
            # distinct, old mtimes: a file system's clock may tick coarser
            # than these loads
            stamp = (1_000_000_000 + i) * 10**9
            os.utime(Path(_matrixfile._cache_dir(), digests[i]), ns=(stamp, stamp))
        # a hit makes the oldest entry the most recently used
        decodes = self.decodes(monkeypatch)
        assert _matrixfile._load_json(paths[0])["entries"][0, 0, 0] == 0.0
        assert decodes == []
        for path in paths[8:]:
            _matrixfile._load_json(path)
        assert [entry.name for entry in self.entries()] == sorted(
            digests[i] for i in (0, 3, 4, 5, 6, 7, 8, 9))

    def test_new_entry_kept_on_a_coarse_clock(self, tmp_path, monkeypatch):
        # eight entries stamped in the future still leave the new one stored
        monkeypatch.setattr(cli, "_CACHE_MIN_BYTES", 0)
        paths = [write_json(tmp_path / f"m{i}.json",
                            {"kind": "explicit", "entries": [[[float(i), 0.0]], [[1.0, 0.0]]]})
                 for i in range(9)]
        for path in paths[:8]:
            _matrixfile._load_json(path)
        stamp = (2**33) * 10**9
        for entry in self.entries():
            os.utime(entry, ns=(stamp, stamp))
        _matrixfile._load_json(paths[8])
        assert len(self.entries()) == 8
        assert Path(_matrixfile._cache_entry(Path(paths[8]).read_bytes())).is_file()

    def test_byte_bound(self, tmp_path, monkeypatch):
        # room for three of these 2 x 2 entries: the least recently used
        # beyond them are deleted, and an entry above the bound is not stored
        monkeypatch.setattr(cli, "_CACHE_MIN_BYTES", 0)
        paths = [write_json(tmp_path / f"m{i}.json",
                            {"kind": "explicit", "entries": [[[float(i), 0.0]] * 2] * 2})
                 for i in range(5)]
        _matrixfile._load_json(paths[0])
        [entry] = self.entries()
        monkeypatch.setattr(_matrixfile, "_CACHE_BYTES", 3 * entry.stat().st_size + 1)
        for i, path in enumerate(paths):
            _matrixfile._load_json(path)
            # distinct, old mtimes, as in the test above
            stamp = (1_000_000_000 + i) * 10**9
            os.utime(_matrixfile._cache_entry(Path(path).read_bytes()), ns=(stamp, stamp))
        assert [entry.name for entry in self.entries()] == sorted(
            Path(_matrixfile._cache_entry(Path(p).read_bytes())).name for p in paths[2:])
        big = write_json(tmp_path / "big.json",
                         {"kind": "explicit", "entries": [[[9.0, 0.0]] * 8] * 8})
        decodes = self.decodes(monkeypatch)
        for _ in range(2):
            assert _matrixfile._load_json(big)["entries"].shape == (8, 8, 2)
        assert len(decodes) == 2 and len(self.entries()) == 3

    def test_key_is_blake2b_256_of_the_bytes(self, gram):
        data = Path(gram).read_bytes()
        _matrixfile._load_json(gram)
        [entry] = self.entries()
        assert entry.name == hashlib.blake2b(data, digest_size=32).hexdigest()
        assert str(entry) == _matrixfile._cache_entry(data)

    def test_no_blake2_no_cache(self, gram, tmp_path, monkeypatch, capsys):
        # an interpreter built without its own BLAKE2 decodes every time
        out = tmp_path / "reference.json"
        assert main(["kraus", "--matrix", gram, "--out", str(out)]) == 0
        reference = out.read_bytes()
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "unused"))
        monkeypatch.setitem(sys.modules, "_blake2", None)
        assert main(["kraus", "--matrix", gram, "--out", str(out)]) == 0
        assert capsys.readouterr() == ("", "")
        assert out.read_bytes() == reference
        assert not (tmp_path / "unused").exists()

    def test_small_files_skip_the_cache(self, tmp_path):
        path = write_json(tmp_path / "m.json", {"kind": "explicit", "entries": EYE2})
        assert Path(path).stat().st_size < cli._CACHE_MIN_BYTES
        _matrixfile._load_json(path)
        assert not Path(_matrixfile._cache_dir()).exists()

    def test_directory_private_and_location(self, gram, tmp_path, monkeypatch):
        home = tmp_path / "home"
        for xdg in (str(tmp_path / "xdg"), "relative/cache", None):
            if xdg is None:
                monkeypatch.delenv("XDG_CACHE_HOME")
            else:
                monkeypatch.setenv("XDG_CACHE_HOME", xdg)
            monkeypatch.setenv("HOME", str(home))
            expected = Path(xdg) if xdg and xdg.startswith("/") else home / ".cache"
            assert _matrixfile._cache_dir() == str(expected / "phaseobs")
        _matrixfile._load_json(gram)
        assert stat.S_IMODE((home / ".cache" / "phaseobs").stat().st_mode) == 0o700

    def test_no_home_no_cache(self, gram, tmp_path, monkeypatch, capsys):
        # without HOME and without a password entry `~` does not expand: the
        # cache is skipped rather than made below the working directory
        import pwd

        def unknown(uid):
            raise KeyError(uid)

        monkeypatch.delenv("XDG_CACHE_HOME")
        monkeypatch.delenv("HOME", raising=False)
        monkeypatch.setattr(pwd, "getpwuid", unknown)
        monkeypatch.chdir(tmp_path)
        assert os.path.expanduser("~") == "~"
        assert _matrixfile._cache_dir() is None
        out = tmp_path / "kraus.json"
        for _ in range(2):
            assert main(["kraus", "--matrix", gram, "--out", str(out)]) == 0
            assert capsys.readouterr() == ("", "")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["gram.json", "kraus.json"]


def bits(values):
    return struct.pack(f"<{len(values)}d", *values)


class TestCodec:
    @settings(deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=50))
    @example([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
              1e308, -1e308, 1.7976931348623157e308, 1e-05, 1e16, 0.1])
    def test_doubles_round_trip(self, values):
        for pretty in (False, True):
            data = cli._dumps({"values": values}, pretty=pretty)
            assert data.endswith(b"}\n")
            assert bits(json.loads(data)["values"]) == bits(values)

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

    @pytest.mark.parametrize("spec", ["gram", "trivial"])
    def test_kraus_stdout_bytes_are_to_dict(self, spec, tmp_path, capsys):
        # trivial(4) has rank 1: one row and no separator
        if spec == "gram":
            matrix = random_gram_matrix(np.random.default_rng(16), 9)
        else:
            matrix = PhaseMatrix.trivial(4)
        spec = {"kind": "explicit", "dim": matrix.dim, "entries": _pairs(matrix.entries)}
        assert main(["kraus", "--matrix", write_json(tmp_path / "m.json", spec)]) == 0
        family = observable.kraus_decompose(PhaseMatrix.from_dict(spec))
        assert capsys.readouterr().out.encode() == orjson.dumps(family.to_dict()) + b"\n"

    def test_pair_floats_encode_as_pairs(self):
        z = np.array([[complex(-0.0, 5e-324), complex(1e16, -0.0), complex(0.1, -1e-320)],
                      [complex(-1e16, 2.5), complex(0.0, -0.0), complex(1e-05, 3e16)]])
        for arr in (z, z[0], z.T):
            assert (cli._dumps({"rows": _pair_floats(arr)})
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


class TestWriter:
    @settings(deadline=None)
    @given(st.lists(st.floats(), max_size=50))
    @example([])
    @example([math.nan])
    @example([math.inf])
    @example([-math.inf])
    @example([0.0])
    @example([-0.0])
    @example([5e-324])
    @example([1e-05])
    @example([1e-04])
    @example([math.nextafter(1e-04, 0.0)])
    @example([1e16])
    @example([math.nextafter(1e16, 0.0)])
    @example([-1e16, -1e-05, 0.1, 3.0, 1e15, 123456789012345.67, 1.7976931348623157e308])
    def test_lines_spell_repr(self, values):
        lines = b"".join(cli._lines("x,y", values, values[::-1]))
        assert lines == "".join(["x,y\n", *(f"{x!r},{y!r}\n" for x, y in
                                             zip(values, values[::-1]))]).encode()

    def test_integer_cells(self):
        values = [0, 1, -7, 1024, 2**62]
        assert b"".join(cli._lines(None, values)) == "".join(f"{x}\n" for x in values).encode()
        assert b"".join(cli._lines("i", np.arange(3))) == b"i\n0\n1\n2\n"

    @pytest.mark.parametrize("command", ["density", "cdf", "kernel-check", "moment", "sweep",
                                         "sweep-canonical", "q-sweep", "sample", "sample-0"])
    def test_command_matches_reference_formatter(self, command, tmp_path):
        rng = np.random.default_rng(16)
        state = random_state(rng, 8, band_limit=5)
        argv_state = ["--state", write_json(tmp_path / "state.json", state.to_dict())]
        matrix = PhaseMatrix.exponential(0.9, 8)
        exp = ["--matrix", "exponential", "--q", "0.9", "--dim", "8"]
        half = PhaseWindow(((0.0, math.pi),))

        def sweep_rows(params, matrices):
            return [(param, cli._localization_fields(
                        spectral.localization(mat, half, maximizer=False))["lambda_max"])
                    for param, mat in zip(params, matrices)]

        if command == "density":
            argv = ["density", *exp, *argv_state, "--grid", "64"]
            values = distribution.density_grid(matrix, state, 64)
            expected = reference_csv("theta,value", [(TWO_PI * j / 64, values[j])
                                                     for j in range(64)])
        elif command == "cdf":
            argv = ["cdf", *exp, *argv_state, "--grid", "64"]
            thetas = TWO_PI * np.arange(65) / 64
            thetas[-1] = TWO_PI
            values = distribution.exact_cdf(matrix, state, thetas)
            expected = reference_csv("theta,value", zip(thetas, values))
        elif command == "kernel-check":
            argv = ["kernel-check", *exp, *argv_state]
            thetas = TWO_PI * np.arange(8) / 8
            sandwiches = distribution.kernel_apply(matrix, 5, state, thetas)
            directs = distribution.density(matrix, state, state, thetas).real
            expected = reference_csv("theta,density,kernel,abs_err", [
                (theta, direct, sandwich, abs(direct - sandwich))
                for theta, direct, sandwich in zip(thetas, directs, sandwiches)])
        elif command == "moment":
            argv = ["moment", *exp]
            expected = reference_csv("index,eigenvalue",
                                     enumerate(spectral.moment_spectrum(matrix)))
        elif command == "sweep":
            argv = ["sweep", *exp, "--window", f"0:{math.pi}", "--truncations", "1,2,5,8"]
            dims = (1, 2, 5, 8)
            expected = reference_csv("S,lambda_max",
                                     sweep_rows(dims, map(matrix.truncated, dims)))
        elif command == "sweep-canonical":
            argv = ["sweep", "--matrix", "canonical", "--dim", "40", "--window", f"0:{math.pi}",
                    "--truncations", "2,8,32,40"]
            dims = (2, 8, 32, 40)
            rows = sweep_rows(dims, (PhaseMatrix.canonical(dim) for dim in dims))
            # dense doubles and prolate decimal strings in one column
            assert {type(lam) for _, lam in rows} == {float, str}
            expected = reference_csv("S,lambda_max", rows)
        elif command == "q-sweep":
            qs = (1e-05, 0.3, 0.9)
            argv = ["sweep", "--matrix", "exponential", "--dim", "8", "--window", f"0:{math.pi}",
                    "--q-sweep", ",".join(map(repr, qs))]
            expected = reference_csv("q,lambda_max", sweep_rows(
                qs, (PhaseMatrix.exponential(q, 8) for q in qs)))
        else:
            count = 0 if command == "sample-0" else 500
            argv = ["sample", *exp, *argv_state, "--samples", str(count), "--seed", "3"]
            draws = distribution.sample(matrix, state, count, 3)
            expected = "".join(repr(float(x)) + "\n" for x in draws)
        out = tmp_path / "out.txt"
        assert main([*argv, "--out", str(out)]) == 0
        assert out.read_bytes() == expected.encode()
        if command == "sample-0":
            assert expected == ""


class TestColumnLines:
    """The writer spells each double of a column as repr does, without a
    bytes object per cell."""

    @settings(deadline=None)
    @given(st.lists(st.floats(), max_size=50))
    @example([])
    @example([1e-05, 0.5, math.nan, 2.0, -1e16])
    @example([0.25, 5e-324, 3.0])
    def test_matches_cells(self, values):
        expected = "".join(repr(x) + "\n" for x in values).encode()
        assert b"".join(cli._lines(None, np.array(values, dtype=float))) == expected

    def test_integers(self):
        assert b"".join(cli._lines(None, np.arange(3))) == b"0\n1\n2\n"

    def test_memory(self, tmp_path):
        # a bytes object per cell took 100 000 draws to 16.6 MB
        draws = np.random.default_rng(17).random(100_000) * TWO_PI
        draws[[0, 40_000, 99_999]] = [3e-05, 1e-09, 2e-06]  # spelled in exponent form
        out = tmp_path / "draws.txt"
        tracemalloc.start()
        try:
            cli._emit(cli._lines(None, draws), str(out))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert out.read_bytes() == "".join(repr(x) + "\n" for x in draws.tolist()).encode()


class TestBlocks:
    """The pointwise commands evaluate and write BLOCK rows at a time: the
    writer's memory does not grow with the number of rows, and no output
    byte depends on the blocking."""

    def test_csv_memory(self, tmp_path):
        # a bytes object per cell and one buffer of all lines took 10^6 rows
        # of two columns to 306 MB
        rows = 10**6
        a = np.random.default_rng(18).random(rows) * TWO_PI
        b = a * 1e-3
        # spelled in exponent form, at the ends of blocks
        a[[0, cli.BLOCK - 1, cli.BLOCK, rows - 1]] = [3e-05, 1e-09, 2e-06, 1e20]
        out = tmp_path / "rows.csv"
        tracemalloc.start()
        try:
            cli._emit(cli._lines("theta,value", a, b), str(out))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 8 * cli.BLOCK
        expected = "".join(["theta,value\n", *(f"{x!r},{y!r}\n" for x, y in
                                                zip(a.tolist(), b.tolist()))])
        assert out.read_bytes() == expected.encode()

    @pytest.mark.parametrize("block", [1, 7])
    def test_output_does_not_depend_on_the_block(self, block, canonical2, tmp_path,
                                                 monkeypatch):
        minus = write_json(tmp_path / "minus.json", {"coeffs": [[SQ2, 0.0], [-SQ2, 0.0]]})
        state = write_json(tmp_path / "state.json",
                           random_state(np.random.default_rng(19), 64).to_dict())
        exp = ["--matrix", "exponential", "--q", "0.9", "--dim", "64"]
        # 3150 = 7 * 450 rows before theta = 2*pi, which opens a block of its own
        runs = {
            "density": ["density", "--matrix", canonical2, "--state", minus, "--grid", "3150"],
            "cdf": ["cdf", "--matrix", canonical2, "--state", minus, "--grid", "3150"],
            "sample": ["sample", *exp, "--state", state, "--samples", "60", "--seed", "4"],
            "moment": ["moment", *exp],
        }

        def outputs():
            found = {}
            for name, argv in runs.items():
                out = tmp_path / f"{name}.txt"
                assert main([*argv, "--out", str(out)]) == 0
                found[name] = out.read_bytes()
            return found

        expected = outputs()
        lines = expected["density"].split(b"\n")
        # rows 6 and 7 (after the header) end and open a block of 7, in exponent form
        assert b"e-" in lines[7].split(b",")[1] and b"e-" in lines[8].split(b",")[1]
        assert expected["cdf"].endswith(b"\n6.283185307179586,1.0\n")
        monkeypatch.setattr(cli, "BLOCK", block)
        monkeypatch.setattr(distribution, "BLOCK", block)
        assert outputs() == expected


def test_cli_import_loads_no_optional_modules(tmp_path):
    # mpmath and decimal are imported only on the exact path, _matrixfile only
    # for a matrix file, _blake2 only for a matrix file large enough for the
    # cache, and scipy only by the tests; loading any of them at start-up
    # slows every invocation.  A command loads only its layers: validate and
    # kraus neither distribution nor spectral, the tabulations no spectral,
    # the spectral commands no distribution
    state = write_json(tmp_path / "state.json",
                       random_state(np.random.default_rng(3), 8).to_dict())
    exp = ["--matrix", "exponential", "--q", "0.9", "--dim", "8"]
    half = ["--window", f"0:{math.pi}"]
    neither = ("phaseobs.distribution", "phaseobs.spectral")
    large = write_json(tmp_path / "gram.json",
                       random_gram_matrix(np.random.default_rng(5), 160).to_dict())
    assert os.path.getsize(large) >= cli._CACHE_MIN_BYTES
    # a state file as large is decoded whole: never hashed, and no matrix layer
    big_state = write_json(tmp_path / "big_state.json",
                           random_state(np.random.default_rng(7), 24000).to_dict())
    assert os.path.getsize(big_state) >= cli._CACHE_MIN_BYTES
    big = ["--matrix", "exponential", "--q", "0.9", "--dim", "24000", "--state", big_state]
    runs = [
        ([], neither),
        (["validate", *exp], neither),
        (["kraus", *exp], neither),
        (["density", *exp, "--state", state], ("phaseobs.spectral",)),
        (["cdf", *exp, "--state", state], ("phaseobs.spectral",)),
        (["window-prob", *exp, "--state", state, *half], ("phaseobs.spectral",)),
        (["kernel-check", *exp, "--state", state], ("phaseobs.spectral",)),
        (["sample", *exp, "--state", state, "--samples", "10"], ("phaseobs.spectral",)),
        (["moment", *exp], ("phaseobs.distribution",)),
        (["localize", *exp, *half], ("phaseobs.distribution",)),
        (["sweep", *exp, *half, "--truncations", "4,8"], ("phaseobs.distribution",)),
        # a matrix file large enough for the cache is keyed without hashlib,
        # whose OpenSSL library would add 3.4 MB of resident memory
        (["validate", "--matrix", large], neither),
        (["density", *big], ("phaseobs.spectral",)),
        (["window-prob", *big, *half], ("phaseobs.spectral",)),
    ]
    code = (
        "import sys; from phaseobs import cli; argv = sys.argv[2:]; "
        "print(cli.main(argv) if argv else 0, "
        "[m for m in sys.argv[1].split(',') if m in sys.modules])"
    )
    for argv, layers in runs:
        # numpy.random, which sample loads, imports hashlib itself
        hashing = () if argv[:1] == ["sample"] else ("hashlib", "_hashlib", "_blake2")
        if argv[2:3] == [large]:
            hashing = ("hashlib", "_hashlib")
        matrix_file = () if argv[2:3] == [large] else ("phaseobs._matrixfile",)
        absent = ("mpmath", "scipy", "decimal", *hashing, *matrix_file, *layers)
        if argv:
            argv = [*argv, "--out", str(tmp_path / "out")]
        proc = subprocess.run(
            [sys.executable, "-c", code, ",".join(absent), *argv],
            cwd=Path(__file__).resolve().parent.parent,
            env=dict(os.environ, PYTHONPATH="src"),
            capture_output=True,
            text=True,
            check=True,
        )
        assert proc.stdout.strip() == "0 []", argv


def test_public_names_resolve():
    # the package imports its layers on first access; every public name is
    # there for `import *` and `dir`
    import phaseobs

    assert len(phaseobs.__all__) == len(set(phaseobs.__all__)) == 31
    names = {}
    exec("from phaseobs import *", names)
    assert set(phaseobs.__all__) <= set(names)
    assert set(phaseobs.__all__) <= set(dir(phaseobs))
    assert names["sample"] is distribution.sample
    with pytest.raises(AttributeError):
        phaseobs.no_such_name


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["bogus"], ["density"], ["density", "-h"], ["density", "cdf"],
    ["sample", "--matrix", "canonical", "--state", "s.json", "--samples", "x"],
    ["sweep", "--matrix", "m.json", "--window", "0:1", "--q-sweep", "0.5", "--bogus"],
    ["kraus", "--matrix", "canonical", "--dim", "4", "--out", "k.json"],
])
def test_one_subparser_parses_like_all(argv, capsys):
    # main builds only the sub-parser argv[0] names; its usage, help and
    # messages are those of the parser with every command
    def parsed(parser):
        try:
            return vars(parser.parse_args(argv))
        except cli._UsageError as exc:
            return str(exc)
        except SystemExit as exc:
            return exc.code, capsys.readouterr().out

    assert parsed(cli._build_parser(argv)) == parsed(cli._build_parser([]))


# stdout and stderr buffered, as a user's pipes are, so that what main_entry
# leaves unflushed is lost
_CHILD_ENV = {**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
              "PYTHONPATH": "src"}


def _cli_child(argv):
    """`python -m phaseobs.cli argv` in a child process, stdout and stderr
    piped, so that it leaves through `main_entry`."""
    return subprocess.run([sys.executable, "-m", "phaseobs.cli", *argv], capture_output=True,
                          cwd=Path(__file__).resolve().parent.parent, env=_CHILD_ENV)


class TestExitPath:
    """`main_entry` flushes stdout and stderr and leaves by `os._exit`."""

    @pytest.mark.parametrize("command", ["kraus", "sample", "cdf"])
    def test_stdout_matches_out_file(self, command, tmp_path):
        state = write_json(tmp_path / "state.json",
                           random_state(np.random.default_rng(7), 64).to_dict())
        exp = ["--matrix", "exponential", "--q", "0.9", "--dim", "64", "--state", state]
        argv = {"kraus": ["kraus", "--matrix", "canonical", "--dim", "300"],
                "sample": ["sample", *exp, "--samples", "20000", "--seed", "5"],
                "cdf": ["cdf", *exp]}[command]
        out = tmp_path / "out"
        to_file = _cli_child([*argv, "--out", str(out)])
        to_pipe = _cli_child(argv)
        assert (to_file.returncode, to_pipe.returncode) == (0, 0)
        assert to_file.stdout == to_file.stderr == to_pipe.stderr == b""
        assert to_pipe.stdout == out.read_bytes()
        assert out.read_bytes()

    @pytest.mark.parametrize("argv, status, code", [
        (["validate", "--matrix", "canonical", "--dim", "8"], 0, None),
        (["validate", "--matrix", "canonical"], 1, "error"),
        (["validate"], 1, "usage"),
        (["validate", "--matrix", "{bad}"], 2, "invalid-matrix"),
    ])
    def test_one_diagnostic_line(self, argv, status, code, tmp_path):
        bad = write_json(tmp_path / "bad.json", {
            "kind": "explicit", "dim": 2,
            "entries": [[[1.0, 0.0], [2.0, 0.0]], [[2.0, 0.0], [1.0, 0.0]]]})
        proc = _cli_child([arg.format(bad=bad) for arg in argv])
        assert proc.returncode == status
        lines = proc.stderr.splitlines()
        assert [json.loads(line)["code"] for line in lines] == ([code] if code else [])
        if status == 1:
            assert proc.stdout == b""
        else:
            assert json.loads(proc.stdout)["valid"] is (status == 0)

    def test_reader_closes_early(self, tmp_path):
        state = write_json(tmp_path / "state.json",
                           random_state(np.random.default_rng(7), 64).to_dict())
        proc = subprocess.Popen(
            [sys.executable, "-m", "phaseobs.cli", "sample", "--matrix", "exponential",
             "--q", "0.9", "--dim", "64", "--state", state, "--samples", "20000"],
            cwd=Path(__file__).resolve().parent.parent, env=_CHILD_ENV,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        lines = err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["code"] == "error"

    @staticmethod
    def _entry(code):
        return subprocess.run(
            [sys.executable, "-c", f"from phaseobs import cli\n{code}\ncli.main_entry()",
             "validate", "--matrix", "canonical", "--dim", "2"],
            cwd=Path(__file__).resolve().parent.parent, env=_CHILD_ENV,
            capture_output=True, text=True)

    def test_unmapped_exception_keeps_traceback(self):
        proc = self._entry("def broken(args): raise RuntimeError('unmapped')\n"
                           "cli.cmd_validate = broken")
        assert proc.returncode == 1
        assert "Traceback" in proc.stderr and "RuntimeError: unmapped" in proc.stderr

    def test_no_teardown(self):
        proc = self._entry("import atexit; atexit.register(print, 'teardown')")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["valid"] is True


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="reads the child's peak RSS by wait4")
def test_large_builtin_sample_memory(tmp_path):
    # a builtin's draws need no S x S array: at S = 4096 a dense copy of the
    # matrix is 268 MB and binning its weights took about 800 MB
    a = random_state(np.random.default_rng(940), 4096).coeffs
    state = write_json(tmp_path / "state.json", {"coeffs": np.stack([a.real, a.imag], -1).tolist()})
    out = tmp_path / "draws.txt"
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, str(root / "tests" / "peak_rss.py"), "80",
         sys.executable, "-m", "phaseobs.cli", "sample", "--matrix", "exponential", "--q", "0.9",
         "--dim", "4096", "--state", state, "--samples", "1000", "--out", str(out)],
        cwd=root, env=dict(os.environ, PYTHONPATH="src"), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert len(out.read_bytes().splitlines()) == 1000


@pytest.fixture(scope="module")
def gram512(tmp_path_factory):
    """A 512 x 512 explicit Gram matrix file written by `json.dumps`, like the
    benchmark's (12 MB)."""
    matrix = random_gram_matrix(np.random.default_rng(941), 512)
    return write_json(tmp_path_factory.mktemp("gram") / "gram512.json", matrix.to_dict())


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="reads the child's peak RSS by wait4")
@pytest.mark.parametrize("argv", [["kraus"], ["localize", "--window", f"0:{math.pi}"]],
                         ids=["kraus", "localize"])
def test_large_explicit_matrix_memory(argv, gram512, tmp_path):
    # the file is read a row at a time and Kraus rows are written a row at a
    # time: decoding it whole, and buffering the 11 MB Kraus output, took
    # both commands to about 102 MB, and whole-matrix temporaries in
    # validation and the Kraus rows to 57.  The first run decodes the file a
    # row at a time; the second run reads the file's cache entry and must
    # write the same bytes
    root = Path(__file__).resolve().parent.parent
    outputs = []
    for run in ("miss", "hit"):
        out = tmp_path / f"{run}.json"
        proc = subprocess.run(
            [sys.executable, str(root / "tests" / "peak_rss.py"), "60",
             sys.executable, "-m", "phaseobs.cli", *argv, "--matrix", gram512, "--out", str(out)],
            cwd=root, env=dict(os.environ, PYTHONPATH="src"), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outputs.append(out.read_bytes())
    assert isinstance(orjson.loads(outputs[0]), dict)
    assert outputs[0] == outputs[1]
    assert len(os.listdir(Path(os.environ["XDG_CACHE_HOME"], "phaseobs"))) == 1


def test_cache_hit_traces_less_than_the_file(gram512):
    # a hit reads the file into an anonymous mapping to hash it and then
    # holds the entry's float array, never the file's bytes on the heap
    expected = _matrixfile._load_json(gram512)
    tracemalloc.start()
    try:
        got = _matrixfile._load_json(gram512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got["entries"].tobytes() == expected["entries"].tobytes()
    assert peak < os.path.getsize(gram512)


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=["022", "077", "002"])
def test_output_mode_follows_umask(umask, tmp_path):
    # the atomic write gives its file the mode a plain open gives a new file
    out, plain = tmp_path / "valid.json", tmp_path / "plain.json"
    saved = os.umask(umask)
    try:
        assert main(["validate", "--matrix", "canonical", "--dim", "2", "--out", str(out)]) == 0
        plain.write_bytes(b"")
    finally:
        os.umask(saved)
    assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask
    assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)


def _blas_children(tmp_path, argv, threads):
    """Output bytes of `python -m phaseobs.cli argv` in a child process with
    `threads` BLAS threads."""
    out = tmp_path / f"out-{threads}.txt"
    env = dict(os.environ, PYTHONPATH="src", OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads), MKL_NUM_THREADS=str(threads))
    subprocess.run([sys.executable, "-m", "phaseobs.cli", *argv, "--out", str(out)],
                   cwd=Path(__file__).resolve().parent.parent, env=env, check=True)
    return out.read_bytes()


@pytest.mark.parametrize("argv, size", [
    (["localize", "--matrix", "exponential", "--q", "0.9", "--dim", "512",
      "--window", f"0:{math.pi}"], 512),
    (["moment", "--matrix", "exponential", "--q", "0.9", "--dim", "512"], 512),
])
def test_outputs_fixed_per_blas_thread_count(argv, size, tmp_path):
    # outputs are byte-identical only for a fixed BLAS thread count: across
    # counts the eigensolver's last bits may move, within its error bound
    one, again, two = (_blas_children(tmp_path, argv, n) for n in (1, 1, 2))
    assert one == again
    bound = 8 * size * np.finfo(float).eps
    if argv[0] == "localize":
        lams = [orjson.loads(out)["lambda_max"] for out in (one, two)]
        assert abs(lams[0] - lams[1]) <= bound
    else:
        spectra = [np.loadtxt(io.BytesIO(out), delimiter=",", skiprows=1)[:, 1]
                   for out in (one, two)]
        assert np.max(np.abs(spectra[0] - spectra[1])) <= bound


def test_cli_runs_one_blas_thread_by_default(tmp_path):
    # LAPACK's last bits move with the BLAS thread count, so the CLI sets one
    # thread unless the caller sets a count: a child with neither variable
    # writes the bytes of a child told to use one thread.  Importing `cli`
    # set both variables in this process too, so the children's environment
    # is built without them
    gram = random_gram_matrix(np.random.default_rng(512), 512)
    path = write_json(tmp_path / "gram512.json", gram.to_dict())
    unset = {key: value for key, value in os.environ.items()
             if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    out = tmp_path / "out.json"
    for argv in (["kraus", "--matrix", path],
                 ["localize", "--matrix", path, "--window", f"0:{math.pi}"]):
        outputs = []
        for env in (unset, dict(unset, OPENBLAS_NUM_THREADS="1")):
            subprocess.run([sys.executable, "-m", "phaseobs.cli", *argv, "--out", str(out)],
                           cwd=Path(__file__).resolve().parent.parent,
                           env=dict(env, PYTHONPATH="src"), check=True)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


def _fuzz_float():
    return st.one_of(st.floats(), st.floats(-1.0, 8.0), st.sampled_from([0.0, 1.0, TWO_PI]))


def _inline_window(ends):
    return ",".join(f"{lo!r}:{hi!r}" for lo, hi in zip(ends[::2], ends[1::2]))


# the options each command takes besides --matrix, --dim, --q and --out
FUZZ_OPTIONS = {
    "validate": (), "kraus": (), "moment": (),
    "density": ("state", "grid"), "cdf": ("state", "grid"), "kernel-check": ("state",),
    "window-prob": ("state", "window"), "localize": ("window",),
    "sweep": ("window", "truncations", "q-sweep"), "sample": ("state", "samples"),
}


@st.composite
def fuzz_argv(draw, files):
    """A command line: each option a command takes is given four times in
    five (--q with the exponential matrix), and any other one time in
    twenty; inline windows, grids, draws, truncations and q values are in
    range and not, each as --option=value or as two tokens, so that a value
    that starts with "-" reaches the parser both ways.  --dim stays at most
    64, --grid at most 4096 and --samples at most 1000, so that no example
    allocates much memory."""
    command = draw(st.sampled_from([*FUZZ_OPTIONS, "nope"]))
    matrix = draw(st.sampled_from(["canonical", "trivial", "exponential", files["matrix"]]))
    taken = ("dim", *FUZZ_OPTIONS.get(command, ()), *(("q",) if matrix == "exponential" else ()))

    def given_(option):
        return draw(st.integers(0, 19)) < (16 if option in taken else 1)

    def pair(option, value):
        return [f"--{option}={value}"] if draw(st.booleans()) else [f"--{option}", str(value)]

    argv = [command, "--matrix", matrix]
    if given_("dim"):
        argv += pair("dim", draw(st.integers(-1, 64)))
    if given_("q"):
        argv += pair("q", repr(draw(_fuzz_float())))
    if given_("state"):
        argv += pair("state", draw(st.sampled_from(files["states"])))
    if given_("window"):
        sorted_ends = st.lists(st.floats(0.0, TWO_PI), min_size=2, max_size=6).map(sorted)
        argv += pair("window", draw(st.one_of(
            sorted_ends.map(_inline_window),
            st.lists(_fuzz_float(), max_size=6).map(_inline_window),
            st.text(":,.-e0123456789naif", max_size=12))))
    if given_("grid"):
        argv += pair("grid", draw(st.integers(-1, 4096)))
    if given_("samples"):
        argv += pair("samples", draw(st.integers(-1, 1000)))
        argv += pair("seed", draw(st.integers(-1, 2**64)))
    if given_("truncations"):
        sizes = draw(st.lists(st.integers(-1, 64), max_size=4))
        argv += pair("truncations", draw(st.one_of(st.just(",".join(map(str, sizes))),
                                                   st.text(",0123456789x", max_size=8))))
    if given_("q-sweep"):
        argv += pair("q-sweep", ",".join(map(repr, draw(st.lists(_fuzz_float(), max_size=3)))))
    return argv


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(20)
    return {
        "matrix": write_json(folder / "gram.json", random_gram_matrix(rng, 6).to_dict()),
        "states": [write_json(folder / "plus.json", {"coeffs": [[SQ2, 0.0], [SQ2, 0.0]]}),
                   write_json(folder / "state8.json",
                              random_state(rng, 8, band_limit=5).to_dict()),
                   write_json(folder / "bad.json", {"coeffs": [[1.0]]}),
                   str(folder / "missing.json")],
    }


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_argv_keeps_the_exit_contract(data, fuzz_files, tmp_path, capsys):
    """Whatever the command line, `main` returns 0, 1 or 2 and raises
    nothing; a nonzero exit writes exactly one JSON line to stderr."""
    argv = data.draw(fuzz_argv(fuzz_files))
    capsys.readouterr()
    status = main([*argv, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert status in (0, 1, 2)
    if status:
        lines = err.splitlines()
        assert len(lines) == 1 and isinstance(json.loads(lines[0]), dict), err


# stand-ins that `_fuzz_doc_bytes` replaces by literals json.dumps cannot
# write: strict JSON refuses each of them
_LITERALS = {"@nan@": "NaN", "@big@": "1e400", "@inf@": "-Infinity"}


def _fuzz_json():
    """Any JSON value of a few levels, with the keys the three files use."""
    leaves = st.one_of(st.none(), st.booleans(), st.integers(-2, 16),
                       st.floats(-10.0, 10.0), st.sampled_from([*_LITERALS, "", "explicit"]))
    keys = st.sampled_from(["kind", "dim", "q", "entries", "coeffs", "arcs", "extra"])
    return st.recursive(leaves, lambda inner: st.lists(inner, max_size=4)
                        | st.dictionaries(keys, inner, max_size=4), max_leaves=16)


def _pair_grid(dims):
    """A nested list of [re, im] pairs over `dims`, any of its rows ragged."""
    if not dims:
        return st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2)
    rows = st.lists(_pair_grid(dims[1:]), min_size=dims[0], max_size=dims[0])
    return st.one_of(rows, st.lists(_pair_grid(dims[1:]), max_size=dims[0]))


@st.composite
def _fuzz_doc(draw, role):
    """A document for --state, --window or --matrix: the shape that file
    takes, with keys dropped or added and values of any type, or any JSON
    value at all.  Every dimension is at most 16."""
    dim = draw(st.integers(0, 16))
    shaped = {
        "state": st.fixed_dictionaries({"coeffs": _pair_grid([dim])}),
        "window": st.fixed_dictionaries({"arcs": st.lists(
            st.lists(st.floats(-1.0, 7.0), min_size=2, max_size=2), max_size=3)}),
        "matrix": st.one_of(
            st.fixed_dictionaries({"kind": st.sampled_from(["canonical", "trivial"]),
                                   "dim": st.just(dim)}),
            st.fixed_dictionaries({"kind": st.just("exponential"), "dim": st.just(dim),
                                   "q": st.floats(-0.5, 1.5)}),
            st.fixed_dictionaries({"kind": st.just("explicit"),
                                   "entries": _pair_grid([dim, dim])},
                                  optional={"dim": st.integers(0, 16)})),
    }[role]
    doc = draw(st.one_of(shaped, _fuzz_json()))
    if isinstance(doc, dict) and doc and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(doc)))
        doc = {k: v for k, v in doc.items() if k != key}
    if isinstance(doc, dict) and draw(st.booleans()):
        doc[draw(st.sampled_from(["kind", "dim", "q", "entries", "extra"]))] = draw(_fuzz_json())
    return doc


def _fuzz_doc_bytes(doc, bom: bool) -> bytes:
    text = json.dumps(doc)
    for stand_in, literal in _LITERALS.items():
        text = text.replace(f'"{stand_in}"', literal)
    return ("\ufeff" if bom else "").encode() + text.encode()


# the commands that read each kind of file, with the rest of their argv
_FILE_COMMANDS = {
    "state": [["density"], ["cdf"], ["window-prob", "--window", "0:1"], ["kernel-check"],
              ["sample", "--samples", "10"]],
    "window": [["window-prob"], ["localize"], ["sweep", "--truncations", "4,8"]],
    "matrix": [["validate"], ["kraus"], ["moment"], ["localize", "--window", "0:1"],
               ["density"], ["sweep", "--truncations", "2"]],
}


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_json_file_keeps_the_exit_contract(data, fuzz_files, tmp_path, capsys):
    """Whatever a --state, --window or --matrix file holds (wrong types or
    depths, empty arrays, NaN or 1e400, missing or extra keys, a byte order
    mark, a ragged grid), `main` returns 0, 1 or 2 and raises nothing; a
    nonzero exit writes exactly one JSON line to stderr."""
    role = data.draw(st.sampled_from(sorted(_FILE_COMMANDS)))
    path = tmp_path / f"{role}.json"
    bom = data.draw(st.integers(0, 7)) == 0
    path.write_bytes(_fuzz_doc_bytes(data.draw(_fuzz_doc(role)), bom))
    command, *rest = data.draw(st.sampled_from(_FILE_COMMANDS[role]))
    given_files = {"state": fuzz_files["states"][1], "window": "0:1",
                   "matrix": "canonical", role: str(path)}
    argv = [command, "--matrix", given_files["matrix"], *rest]
    if given_files["matrix"] == "canonical":
        argv += ["--dim", "16"]
    if command in ("density", "cdf", "window-prob", "kernel-check", "sample"):
        argv += ["--state", given_files["state"]]
    if command in ("window-prob", "localize", "sweep") and "--window" not in rest:
        argv += ["--window", given_files["window"]]
    capsys.readouterr()
    status = main([*argv, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert status in (0, 1, 2)
    assert "Traceback" not in err
    if status:
        lines = err.splitlines()
        assert len(lines) == 1 and isinstance(json.loads(lines[0]), dict), err
