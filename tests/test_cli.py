"""In-process exercise of the command line front end."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import k3cycles
from k3cycles import clifford, linalg, theta, transfer
from k3cycles.cli import _COMMANDS, _OUTPUT, EXIT_FILE, EXIT_INVALID, EXIT_OK, EXIT_USAGE, run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_json(capsys, *argv):
    code, out, err = invoke(capsys, *argv)
    assert code == EXIT_OK, err
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    return doc


def quintic_input(tmp_path):
    """A diagonal rank-4 form over Q(2cos(2pi/11)): a rank-20 trace lattice."""
    diag = [[-2, 2, -2, 0, -2], [1, 1, 1, 1, -1], [-3, 1, -2, 1, 1], [2, -2, 1, 0, -1]]
    zero = [0] * 5
    src = tmp_path / "quintic.json"
    src.write_text(json.dumps({
        "field": {"poly": [1, 3, -3, -4, 1, 1]},
        "gram": [[diag[i] if i == j else zero for j in range(4)] for i in range(4)],
    }))
    return src


def error_json(capsys, expected_code, *argv):
    code, out, err = invoke(capsys, *argv)
    assert code == expected_code
    assert out == "" and err.count("\n") == 1, (out, err)  # stderr is one JSON line
    doc = json.loads(err)
    assert doc["schema_version"] == 1
    assert set(doc["error"]) == {"type", "message"}
    return doc["error"]


SUBCOMMANDS = ("info", "count", "theta", "gauss", "milgram", "clifford", "ks", "transfer", "table")


class TestDispatch:
    def test_no_arguments(self, capsys):
        code, out, err = invoke(capsys)
        assert code == EXIT_USAGE
        assert "usage" in out
        assert json.loads(err)["error"]["type"] == "UnknownSubcommand"

    def test_unknown_subcommand(self, capsys):
        err = error_json(capsys, EXIT_USAGE, "frobnicate")
        assert err["type"] == "UnknownSubcommand"
        assert "frobnicate" in err["message"]

    def test_help(self, capsys):
        code, out, _ = invoke(capsys, "--help")
        assert code == EXIT_OK
        listed = [line for line in out.splitlines() if line.startswith("subcommands: ")]
        assert listed == ["subcommands: " + ", ".join(sorted(SUBCOMMANDS))]

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_subcommand_help(self, capsys, name):
        code, out, _ = invoke(capsys, name, "--help")
        assert code == EXIT_OK
        assert out.startswith(f"usage: k3cycles {name} ")
        listed = out.split()
        for flag, spec in [_OUTPUT, *_COMMANDS[name][1]]:
            assert flag in listed and spec["help"] in out, flag

    def test_bad_flags(self, capsys):
        err = error_json(capsys, EXIT_INVALID, "count", "--lattice", "E8")
        assert err["type"] == "InvalidArguments"

    def test_threads_is_not_an_option(self, capsys):
        err = error_json(capsys, EXIT_INVALID, "info", "--lattice", "K3", "--threads", "4")
        assert err["type"] == "InvalidArguments"

    def test_no_parser_modules_imported(self, tmp_path):
        # -S: a .pth file of site-packages may import anything
        script = (
            "import sys\n"
            "from k3cycles import cli\n"
            "rc = cli.run(['table', '--output', sys.argv[1]])\n"
            "print(rc, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
        )
        src = str(Path(k3cycles.__file__).parents[1])
        done = subprocess.run(
            [sys.executable, "-S", "-c", script, str(tmp_path / "table.csv")],
            capture_output=True, text=True, env={"PYTHONPATH": src}, timeout=60,
        )
        assert done.stdout == "0 []\n", done.stderr
        assert (tmp_path / "table.csv").read_text().startswith("d,m,N\n")

    def test_no_dataclass_modules_imported(self):
        # the records come from k3cycles._record, which needs none of these,
        # and annotations name collections.abc types, so typing stays out too
        script = (
            "import sys, k3cycles, k3cycles.cli\n"
            "heavy = {'dataclasses', 'inspect', 'ast', 'dis', 'tokenize', 'typing'}\n"
            "print(sorted(heavy & set(sys.modules)))\n"
        )
        src = str(Path(k3cycles.__file__).parents[1])
        done = subprocess.run(
            [sys.executable, "-S", "-c", script],
            capture_output=True, text=True, env={"PYTHONPATH": src}, timeout=60,
        )
        assert done.stdout == "[]\n", done.stderr


ONETWO = "ONETWO"  # replaced by the path of a JSON file with Gram diag(2, -2, -2)
FLAG_FORMS = [
    # (argv as written, the same argv spelled out): both print the same artifact
    (["count", "--lattice=A1", "--t=1/2", "--h=1/2"],
     ["count", "--lattice", "A1", "--t", "1/2", "--h", "1/2"]),
    (["theta", "--lat", "A1", "--bou", "8", "--ta", "-0.3", "0.9", "--check"],
     ["theta", "--lattice", "A1", "--bound", "8", "--tau", "-0.3", "0.9", "--check-transform"]),
    (["theta", "--lattice", "A1"], ["theta", "--lattice", "A1", "--bound", "10"]),
    (["count", "--lattice", "E8", "--t", "2", "--t", "4"],
     ["count", "--lattice", "E8", "--t", "4"]),
    (["gauss", "--lattice", "A1", "--c=4", "--a", "-1"],
     ["gauss", "--lattice", "A1", "--a", "-1", "--c", "4"]),
    (["ks", "--lattice", ONETWO, "--z1=0,1,0", "--z2", "0,0,1", "--mi", "0,1,0", "--pl", "1,0,0",
      "--minus=0,0,1"],
     ["ks", "--lattice", ONETWO, "--z1", "0,1,0", "--z2", "0,0,1", "--minus", "0,1,0", "--minus",
      "0,0,1", "--plus", "1,0,0"]),
    # a value may start with "-" and need not be a number
    (["count", "--lattice", "A1", "--t", "1/2", "--h", "-1/2"],
     ["count", "--lattice", "A1", "--t", "1/2", "--h=-1/2"]),
    (["ks", "--lattice", ONETWO, "--z1", "0,1,0", "--z2", "0,0,1", "--plus", "-1,0,0",
      "--minus", "0,1,0", "--minus", "0,0,1"],
     ["ks", "--lattice", ONETWO, "--z1", "0,1,0", "--z2", "0,0,1", "--plus=-1,0,0",
      "--minus", "0,1,0", "--minus", "0,0,1"]),
    (["clifford", "--lattice", "A1", "--element", "-e{1}", "--times", "-2 + e{1}", "--invert"],
     ["clifford", "--lattice", "A1", "--element=-e{1}", "--times=-2 + e{1}", "--invert"]),
]
BAD_FLAGS = [
    (["ks", "--lattice", ONETWO, "--z", "1"], "ambiguous flag '--z'"),
    (["clifford", "--lattice", "A1", "--element", "e{1}", "--invert=1"], "--invert takes 0 values"),
    (["gauss", "--lattice", "A1", "--a", "1/2", "--c", "2"], "bad value for --a: '1/2'"),
    (["theta", "--lattice", "A1", "--tau", "0.3"], "--tau takes 2 values"),
    (["theta", "--lattice", "A1", "--tau", "0.3", "--check-transform"], "--tau takes 2 values"),
    (["theta", "--lattice", "A1", "--tau=0.3", "0.9"], "--tau takes 2 values"),
    (["count", "--lattice", "E8", "--t"], "--t takes 1 value"),
    (["count", "--lattice", "--t", "2"], "--lattice takes 1 value"),
    (["info", "--lattice", "K3", "--threads", "4"], "unknown flag '--threads'"),
    (["info", "--lattice", "K3", "-x"], "unknown flag '-x'"),
    (["info", "--lattice", "K3", "K3"], "unknown flag 'K3'"),
    (["count", "--lattice", "E8", "--h", "1"], "missing --t"),
]


@pytest.fixture
def onetwo(tmp_path):
    path = tmp_path / "onetwo.json"
    path.write_text(json.dumps({"gram": [[2, 0, 0], [0, -2, 0], [0, 0, -2]]}))
    return lambda argv: [str(path) if w == ONETWO else w for w in argv]


class TestFlagReader:
    @pytest.mark.parametrize("written, spelled", FLAG_FORMS)
    def test_same_artifact_as_spelled_out(self, capsys, onetwo, written, spelled):
        code, out, err = invoke(capsys, *onetwo(written))
        assert code == EXIT_OK, err
        assert (code, out, err) == invoke(capsys, *onetwo(spelled))

    @pytest.mark.parametrize("argv, message", BAD_FLAGS)
    def test_rejected(self, capsys, onetwo, argv, message):
        err = error_json(capsys, EXIT_INVALID, *onetwo(argv))
        assert err == {"type": "InvalidArguments",
                       "message": f"bad arguments for {argv[0]!r}: {message}"}

    def test_leading_minus_coset(self, capsys):
        doc = invoke_json(capsys, "count", "--lattice", "A1", "--t", "1/2", "--h", "-1/2")
        assert doc["count"] == 2
        assert doc["h"] == ["-1/2"]

    def test_leading_minus_element(self, capsys):
        doc = invoke_json(capsys, "clifford", "--lattice", "A1", "--element", "-e{1}")
        assert doc["element"] == "-1*e{1}"
        assert doc["trace"] == "0"

    @pytest.mark.parametrize("argv", [
        ["count", "--lattice", "E8", "--help"],
        ["count", "-h", "--lattice"],
        ["count", "--he"],
        ["info", "--h"],  # a unique prefix of --help where no --h flag exists
    ])
    def test_help_anywhere(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == (EXIT_OK, "")
        assert out.startswith(f"usage: k3cycles {argv[0]} ")


class TestInfo:
    def test_k3(self, capsys):
        doc = invoke_json(capsys, "info", "--lattice", "K3")
        assert doc["signature"] == [3, 19]
        assert doc["even"] is True
        assert doc["det"] == 1
        assert doc["det_signed"] == -1
        assert doc["rank"] == 22
        assert doc["discriminant_group"] == []
        assert doc["name"] == "K3"

    def test_e8(self, capsys):
        doc = invoke_json(capsys, "info", "--lattice", "E8")
        assert doc["signature"] == [8, 0]
        assert doc["det"] == 1

    def test_json_file(self, capsys, tmp_path):
        path = tmp_path / "a1a1.json"
        path.write_text(json.dumps({"gram": [[2, 0], [0, 4]]}))
        doc = invoke_json(capsys, "info", "--lattice", str(path))
        assert doc["signature"] == [2, 0]
        assert doc["discriminant_group"] == [2, 4]
        assert doc["discriminant_order"] == 8

    def test_det_96_gram_is_fast(self, capsys, tmp_path):
        # the unreduced Smith form ran past 5 s on this Gram
        gram = [[-14, -26, -35, -70, 16], [-26, -50, -59, -130, 40],
                [-35, -59, -64, -150, 40], [-70, -130, -150, -336, 100],
                [16, 40, 40, 100, -50]]
        path = tmp_path / "det96.json"
        path.write_text(json.dumps({"gram": gram}))
        start = time.perf_counter()
        doc = invoke_json(capsys, "info", "--lattice", str(path))
        assert time.perf_counter() - start < 0.5
        assert doc["det_signed"] == -96
        assert doc["discriminant_group"] == [2, 4, 12]

    def test_rank_20_quintic_transfer_is_fast(self, capsys, tmp_path):
        src = quintic_input(tmp_path)
        out = tmp_path / "trace.json"
        code, _, err = invoke(capsys, "transfer", "--input", str(src), "--output", str(out))
        assert code == EXIT_OK, err
        start = time.perf_counter()
        doc = invoke_json(capsys, "info", "--lattice", str(out))
        assert time.perf_counter() - start < 1.0
        assert doc["rank"] == 20
        assert doc["discriminant_group"] == [11] * 11 + [22] * 4 + [4739733433226]
        assert doc["discriminant_order"] == doc["det"] == 11 ** 11 * 22 ** 4 * 4739733433226

    def test_missing_file(self, capsys):
        err = error_json(
            capsys, EXIT_FILE, "info", "--lattice", "/no/such/file.json"
        )
        assert err["type"] == "FileTrouble"

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        error_json(capsys, EXIT_INVALID, "info", "--lattice", str(path))

    def test_unknown_builtin_is_file_trouble(self, capsys):
        # names outside the builtin table are treated as paths
        err = error_json(capsys, EXIT_FILE, "info", "--lattice", "E9")
        assert err["type"] == "FileTrouble"

    def test_determinism(self, capsys):
        _, out1, _ = invoke(capsys, "info", "--lattice", "K3")
        _, out2, _ = invoke(capsys, "info", "--lattice", "K3")
        assert out1 == out2

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, out, _ = invoke(
            capsys, "info", "--lattice", "A1", "--output", str(path)
        )
        assert code == EXIT_OK
        assert out == ""
        assert json.loads(path.read_text())["signature"] == [1, 0]

    def test_unwritable_output(self, capsys):
        err = error_json(
            capsys,
            EXIT_FILE,
            "info",
            "--lattice",
            "A1",
            "--output",
            "/no/such/dir/out.json",
        )
        assert err["type"] == "FileTrouble"


class TestCount:
    def test_e8_roots(self, capsys):
        doc = invoke_json(capsys, "count", "--lattice", "E8", "--t", "2")
        assert doc["count"] == 240
        assert doc["t"] == "2"

    def test_negative_target(self, capsys):
        doc = invoke_json(capsys, "count", "--lattice", "A1", "--t", "-2")
        assert doc["count"] == 0

    def test_coset(self, capsys):
        doc = invoke_json(
            capsys, "count", "--lattice", "A1", "--t", "1/2", "--h", "1/2"
        )
        assert doc["count"] == 2
        assert doc["h"] == ["1/2"]

    def test_indefinite_rejected(self, capsys):
        err = error_json(capsys, EXIT_INVALID, "count", "--lattice", "H", "--t", "2")
        assert err["type"] == "IndefiniteLattice"

    def test_bad_target(self, capsys):
        error_json(capsys, EXIT_INVALID, "count", "--lattice", "A1", "--t", "two")


class TestTheta:
    def test_a1_series(self, capsys):
        doc = invoke_json(capsys, "theta", "--lattice", "A1", "--bound", "8")
        assert doc["weight"] == "1/2"
        assert doc["coeffs"] == [["0", "1"], ["2", "2"], ["8", "2"]]

    def test_shifted_series_reports_its_shift(self, capsys):
        # (x, x) = 2 (n + 1/2)^2 is 1/2 at n = 0 and n = -1, and 9/2 > 2 next
        doc = invoke_json(capsys, "theta", "--lattice", "A1", "--bound", "2", "--h", "1/2")
        assert doc["h"] == ["1/2"]
        assert doc["coeffs"] == [["1/2", "2"]]

    def test_value_and_transform(self, capsys):
        doc = invoke_json(
            capsys,
            "theta",
            "--lattice",
            "A1",
            "--bound",
            "40",
            "--tau",
            "0",
            "2",
            "--check-transform",
        )
        assert doc["tau"] == [0.0, 2.0]
        assert doc["theta_value_tol"] >= 0
        assert doc["transform_residual"] <= doc["transform_residual_tol"]

    def test_transform_needs_tau(self, capsys, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("swept before checking --tau")

        monkeypatch.setattr(theta, "theta_coeffs", no_sweep)
        err = error_json(capsys, EXIT_INVALID, "theta", "--lattice", "A1", "--check-transform")
        assert err == {"type": "ValueError", "message": "--check-transform needs --tau"}

    # tau = 5e-324 i is finite, but the transform residual overflows to NaN
    @pytest.mark.parametrize("tau, kind", [
        (("0", "inf"), "InvalidTau"),
        (("nan", "1"), "InvalidTau"),
        (("0", "5e-324"), "ValueError"),
    ])
    def test_non_finite_floats_are_errors(self, capsys, tau, kind):
        code, out, err = invoke(
            capsys, "theta", "--lattice", "A1", "--bound", "4", "--tau", *tau, "--check-transform"
        )
        assert code == EXIT_INVALID
        assert out == ""
        assert json.loads(err)["error"]["type"] == kind

    def test_unbounded_tail_is_an_error(self, capsys):
        # at Im tau = 1e-18 the tail bound is inf, which strict JSON refuses
        code, out, err = invoke(
            capsys, "theta", "--lattice", "A1", "--bound", "4", "--tau", "0", "1e-18"
        )
        assert code == EXIT_INVALID
        assert out == ""
        assert json.loads(err)["error"]["type"] == "ValueError"


class TestGaussMilgram:
    def test_gauss_value(self, capsys):
        doc = invoke_json(
            capsys, "gauss", "--lattice", "A1", "--a", "1", "--c", "2"
        )
        assert doc["rank"] == 1
        assert len(doc["value"]) == 2
        assert doc["value_tol"] == 1e-9

    def test_bad_modulus(self, capsys):
        err = error_json(
            capsys, EXIT_INVALID, "gauss", "--lattice", "A1", "--a", "1", "--c", "0"
        )
        assert err["type"] == "InvalidModulus"

    def test_milgram_a1(self, capsys):
        doc = invoke_json(capsys, "milgram", "--lattice", "A1")
        assert doc["signature_mod8"] == 1
        assert doc["agrees"] is True
        assert doc["error"] <= doc["error_tol"]

    def test_milgram_k3(self, capsys):
        doc = invoke_json(capsys, "milgram", "--lattice", "K3")
        assert doc["signature_mod8"] == (3 - 19) % 8
        assert doc["agrees"] is True

    def test_milgram_cap(self, capsys, tmp_path):
        path = tmp_path / "two21.json"
        n = 21
        path.write_text(json.dumps(
            {"gram": [[2 * (i == j) for j in range(n)] for i in range(n)]}
        ))
        start = time.perf_counter()
        err = error_json(capsys, EXIT_INVALID, "milgram", "--lattice", str(path))
        assert time.perf_counter() - start < 0.5
        assert err["type"] == "EnumerationLimitExceeded"


class TestClifford:
    def test_spinor_norm(self, capsys):
        # (1 + e1)(1 + e1) = 1 + 2 e1 + (e1, e1) with (e1, e1) = 2 in A1
        doc = invoke_json(capsys, "clifford", "--lattice", "A1", "--element", "1 + e{1}",
                          "--spinor-norm")
        assert doc["spinor_norm"] == "3*e{} + 2*e{1}"

    def test_square_of_generator(self, capsys):
        doc = invoke_json(
            capsys,
            "clifford",
            "--lattice",
            "A1",
            "--element",
            "e{1}",
            "--times",
            "e{1}",
        )
        assert doc["parity"] == "odd"
        assert doc["product"] == "2*e{}"

    def test_involution_and_scalar(self, capsys):
        doc = invoke_json(
            capsys,
            "clifford",
            "--lattice",
            "E8",
            "--element",
            "3*e{} + 2*e{1,2}",
            "--involution",
        )
        assert doc["parity"] == "even"
        assert doc["scalar_part"] == "3"
        # reversal sends e1e2 to e2e1 = -e1e2 (orthogonal generators)
        assert doc["involution"] == "3*e{} - 2*e{1,2}"

    def test_scalar_trace(self, capsys):
        doc = invoke_json(
            capsys, "clifford", "--lattice", "A1", "--element", "3*e{}"
        )
        assert doc["trace"] == "6"
        assert doc["parity"] == "even"

    def test_invert(self, capsys):
        doc = invoke_json(
            capsys,
            "clifford",
            "--lattice",
            "A1",
            "--element",
            "e{1}",
            "--invert",
        )
        assert doc["inverse"] == "1/2*e{1}"
        # rank 22 is above the inversion cap, but a scalar needs no solve
        doc = invoke_json(
            capsys, "clifford", "--lattice", "K3", "--element", "2", "--invert"
        )
        assert doc["inverse"] == "1/2*e{}"

    def test_invert_and_gspin_solve_once(self, capsys, monkeypatch):
        calls = []

        def counted(*args, solve=linalg.solve):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(linalg, "solve", counted)
        doc = invoke_json(
            capsys,
            "clifford",
            "--lattice",
            "H",
            "--element",
            "2*e{} + e{1,2}",
            "--invert",
            "--gspin",
        )
        assert len(calls) == 1
        assert len(calls[0][1]) == 2  # the even block of the 4 x 4 system
        assert doc["parity"] == "even"
        assert doc["inverse"] == "1/2*e{} - 1/8*e{1,2}"

    def test_zero_not_invertible(self, capsys):
        err = error_json(
            capsys,
            EXIT_INVALID,
            "clifford",
            "--lattice",
            "A1",
            "--element",
            "0*e{}",
            "--invert",
        )
        assert err["type"] == "NotInvertible"

    def test_parse_error(self, capsys):
        for text in ("e{1} e{1}", "1 2*e{1}", "2 3", "e{1,,2}", "e{,}", "e{2,}"):
            err = error_json(
                capsys, EXIT_INVALID, "clifford", "--lattice", "E8", "--element", text
            )
            assert err["type"] == "ValueError"


class TestKugaSatake:
    def test_default_splitting(self, capsys, tmp_path):
        path = tmp_path / "onetwo.json"
        path.write_text(
            json.dumps({"gram": [[2, 0, 0], [0, -2, 0], [0, 0, -2]]})
        )
        doc = invoke_json(
            capsys,
            "ks",
            "--lattice",
            str(path),
            "--z1",
            "0,1,0",
            "--z2",
            "0,0,1",
        )
        assert doc["j_square"] == "-4"
        assert doc["alternating_ok"] is True
        assert doc["symmetric_ok"] is True
        assert doc["definite"] is True
        assert doc["torus_dim"] == 8
        assert doc["complex_dim"] == 4
        assert doc["special_endo_rank"] == 1
        assert doc["special_endo_gram"] == [[2]]

    def test_explicit_splitting(self, capsys, tmp_path):
        path = tmp_path / "onetwo.json"
        path.write_text(
            json.dumps({"gram": [[2, 0, 0], [0, -2, 0], [0, 0, -2]]})
        )
        doc = invoke_json(
            capsys,
            "ks",
            "--lattice",
            str(path),
            "--z1",
            "0,1,0",
            "--z2",
            "0,0,1",
            "--plus",
            "1,0,0",
            "--minus",
            "0,1,0",
            "--minus",
            "0,0,1",
        )
        assert doc["j_square"] == "-4"

    def test_minus_needs_two_vectors(self, capsys, tmp_path):
        path = tmp_path / "onetwo.json"
        path.write_text(
            json.dumps({"gram": [[2, 0, 0], [0, -2, 0], [0, 0, -2]]})
        )
        error_json(
            capsys,
            EXIT_INVALID,
            "ks",
            "--lattice",
            str(path),
            "--z1",
            "0,1,0",
            "--z2",
            "0,0,1",
            "--minus",
            "0,1,0",
        )

    def test_positive_plane_rejected(self, capsys):
        err = error_json(
            capsys,
            EXIT_INVALID,
            "ks",
            "--lattice",
            "E8",
            "--z1",
            "1,0,0,0,0,0,0,0",
            "--z2",
            "0,1,0,0,0,0,0,0",
        )
        assert err["type"] == "NotNegativePlane"

    def test_rank_eight_root_lattice_certifies(self, capsys):
        # A6 (+) <-2> (+) <-2>: 256 x 256 forms on a non-orthogonal Gram
        clifford._table.cache_clear()
        start = time.perf_counter()
        doc = invoke_json(
            capsys,
            "ks",
            "--lattice",
            str(Path(__file__).parent / "data" / "ks_a6_plane.json"),
            "--z1",
            "0,0,0,0,0,0,1,0",
            "--z2",
            "0,0,0,0,0,0,0,1",
        )
        assert time.perf_counter() - start < 3
        assert doc["alternating_ok"] and doc["symmetric_ok"] and doc["definite"]
        assert doc["inertia"] == [0, 256, 0]
        assert doc["special_endo_rank"] == 6

    def test_rank_cap(self, capsys, tmp_path):
        path = tmp_path / "nine_two.json"
        diag = [2] * 9 + [-2] * 2
        path.write_text(json.dumps(
            {"gram": [[d if i == j else 0 for j in range(11)] for i, d in enumerate(diag)]}
        ))
        start = time.perf_counter()
        err = error_json(
            capsys,
            EXIT_INVALID,
            "ks",
            "--lattice",
            str(path),
            "--z1",
            "0,0,0,0,0,0,0,0,0,1,0",
            "--z2",
            "0,0,0,0,0,0,0,0,0,0,1",
        )
        assert time.perf_counter() - start < 0.5
        assert err["type"] == "RankLimitExceeded"


class TestTransfer:
    @staticmethod
    def sqrt2_input(tmp_path):
        doc = {
            "field": {"poly": [-2, 0, 1], "integral_basis": [[1, 0], [0, 1]]},
            "gram": [
                [[0, 1], [0, 0]],
                [[0, 0], [0, 1]],
            ],
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        return path

    def test_admissible_example(self, capsys, tmp_path):
        path = self.sqrt2_input(tmp_path)
        doc = invoke_json(capsys, "transfer", "--input", str(path))
        assert doc["admissible"] is True
        assert doc["signature"] == [2, 2]
        assert doc["rank"] == 4
        assert doc["even"] is True
        assert sorted(map(tuple, doc["profile"])) == [(0, 2), (2, 0)]

    def test_output_feeds_other_subcommands(self, capsys, tmp_path):
        src = self.sqrt2_input(tmp_path)
        out = tmp_path / "trace.json"
        code, _, err = invoke(
            capsys, "transfer", "--input", str(src), "--output", str(out)
        )
        assert code == EXIT_OK, err
        doc = invoke_json(capsys, "info", "--lattice", str(out))
        assert doc["signature"] == [2, 2]

    def test_pell_unit_form(self, capsys, tmp_path):
        # <p - q sqrt 2> with p + q sqrt 2 = (1 + sqrt 2)^51, of norm -1: the
        # entry is about -1e-20 at the embedding sqrt 2 -> +sqrt 2
        p, q = 1, 0
        for _ in range(51):
            p, q = p + 2 * q, p + q
        path = tmp_path / "pell.json"
        path.write_text(json.dumps({"field": {"poly": [-2, 0, 1]}, "gram": [[[p, -q]]]}))
        doc = invoke_json(capsys, "transfer", "--input", str(path))
        assert doc["profile"] == [[1, 0], [0, 1]]
        assert doc["signature"] == [1, 1]

    def test_split_algebra_without_invertible_pivot(self, capsys, tmp_path):
        # [[0, t], [t, 1 - t]] over (x - 1)(x + 1) is nondegenerate, (1, 1)
        # at both roots, though neither diagonal entry is invertible
        path = tmp_path / "split.json"
        path.write_text(json.dumps({
            "field": {"poly": [-1, 0, 1]},
            "gram": [[[0, 0], [0, 1]], [[0, 1], [1, -1]]],
        }))
        doc = invoke_json(capsys, "transfer", "--input", str(path))
        assert doc["profile"] == [[1, 1], [1, 1]]
        assert doc["signature"] == [2, 2]

    # diag(theta, theta) over x^3 - 3x - 1 has the shape; diag(1, 1) over
    # Q(sqrt 2) has not
    @pytest.mark.parametrize("doc, admissible", [
        ({"field": {"poly": [-1, -3, 0, 1]},
          "gram": [[[0, 1, 0], [0, 0, 0]], [[0, 0, 0], [0, 1, 0]]]}, True),
        ({"field": {"poly": [-2, 0, 1]}, "gram": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}, False),
    ])
    def test_one_profile_and_one_trace_lattice(
        self, capsys, tmp_path, monkeypatch, doc, admissible
    ):
        want = transfer.ks_admissible(transfer.NumberFieldLattice.from_dict(doc))
        assert want is admissible
        calls = {}
        for name in ("signature_profile", "trace_lattice"):
            def counted(m, fn=getattr(transfer, name), name=name):
                calls[name] = calls.get(name, 0) + 1
                return fn(m)
            monkeypatch.setattr(transfer, name, counted)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        out = invoke_json(capsys, "transfer", "--input", str(path))
        assert calls == {"signature_profile": 1, "trace_lattice": 1}
        assert out["admissible"] is want

    def test_rank_4_quintic_is_fast(self, capsys, tmp_path):
        src = quintic_input(tmp_path)
        start = time.perf_counter()
        doc = invoke_json(capsys, "transfer", "--input", str(src))
        assert time.perf_counter() - start < 0.5
        assert doc["rank"] == 20
        assert doc["signature"] == [sum(p) for p in zip(*doc["profile"])]

    def test_missing_input(self, capsys):
        error_json(capsys, EXIT_FILE, "transfer", "--input", "/no/file.json")

    def test_invalid_shape(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"field": {"poly": [-2, 0, 1]}}))
        error_json(capsys, EXIT_INVALID, "transfer", "--input", str(path))


class TestTable:
    def test_matches_golden(self, capsys):
        code, out, _ = invoke(capsys, "table")
        assert code == EXIT_OK
        with open("tests/data/feasibility_table.csv", encoding="utf-8") as fh:
            assert out == fh.read()

    def test_header(self, capsys):
        _, out, _ = invoke(capsys, "table")
        assert out.splitlines()[0] == "d,m,N"
