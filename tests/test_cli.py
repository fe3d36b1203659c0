"""End-to-end CLI behavior: parsing, reports, exit codes, demos."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import qsd.cli as cli
import qsd.weights
from qsd import ConvergenceError, solve_auto, solve_oracle
from helpers import near_guess_ensemble, one_sided_shell, quarter_circle_cone

TRINE = """\
# equiprobable planar trine
0.3333333333333333   1.0   0.0                 0.0
0.3333333333333333  -0.5   0.8660254037844386  0.0
0.3333333333333333  -0.5  -0.8660254037844386  0.0
"""

POLES = """\
0.5  0.0  0.0  1.0
0.5  0.0  0.0  -1.0
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SRC = Path(cli.__file__).resolve().parents[1]


def run_python(code, *args):
    """Run `code` in a fresh interpreter that imports qsd from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


# ---------------------------------------------------------------------------
# solve


def test_solve_trine_text(tmp_path, capsys):
    path = write(tmp_path, "trine.txt", TRINE)
    code, out, err = run(capsys, ["solve", path])
    assert code == 0 and err == ""
    assert "minimum-error discrimination report" in out
    assert "method: three-state-interior" in out
    assert "p_opt: 0.66666666666666" in out
    assert "kkt residuals (pass at 1e-08): PASS" in out


def test_solve_trine_json(tmp_path, capsys):
    path = write(tmp_path, "trine.txt", TRINE)
    code, out, _ = run(capsys, ["solve", path, "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "solve"
    assert report["input"] == path
    assert report["method"] == "three-state-interior"
    assert report["p_opt"] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert len(report["states"]) == 3
    for rec in report["states"]:
        assert rec["pure"] is True
        assert rec["conjugate_norm"] == pytest.approx(1.0, abs=1e-9)
    assert report["kkt"]["passes"] is True
    assert set(report["tolerances"]) == {
        "oracle", "purity_classification", "kkt_pass", "family_residual",
        "success_match", "povm_completeness", "orthogonality", "bound_slack",
    }


def test_solve_pure_flag_ignores_tol(tmp_path, capsys):
    path = write(tmp_path, "triple.txt", "0.9 0 0 1\n0.05 0 0 -1\n0.05 1 0 0\n")
    code, out, _ = run(capsys, ["solve", path, "--format", "json"])
    assert code == 0
    report = json.loads(out)
    third = report["states"][2]
    assert third["conjugate_norm"] == pytest.approx(math.sqrt(290.0) / 18.0, abs=1e-12)
    assert third["pure"] is False
    assert report["tolerances"]["purity_classification"] == 1e-9


def test_solve_cross_check(tmp_path, capsys):
    path = write(tmp_path, "trine.txt", TRINE)
    code, out, _ = run(capsys, ["solve", path, "--format", "json", "--cross-check"])
    assert code == 0
    report = json.loads(out)
    assert report["cross_check"]["oracle_p"] == pytest.approx(2.0 / 3.0, abs=1e-7)
    assert report["cross_check"]["delta_p"] < 1e-7


def test_solve_is_deterministic(tmp_path, capsys):
    path = write(tmp_path, "trine.txt", TRINE)
    _, first, _ = run(capsys, ["solve", path, "--format", "json", "--cross-check"])
    _, second, _ = run(capsys, ["solve", path, "--format", "json", "--cross-check"])
    assert first == second


def test_solve_renormalize(tmp_path, capsys):
    path = write(tmp_path, "heavy.txt", "0.6 0 0 1\n0.6 0 0 -1\n")
    code, _, err = run(capsys, ["solve", path])
    assert code == 1 and "qsd: error:" in err
    code, out, _ = run(capsys, ["solve", path, "--renormalize"])
    assert code == 0
    assert "p_opt: 1" in out


_LIMITED_SOLVE = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
import qsd.cli
sys.exit(qsd.cli.main(["solve", sys.argv[1], "--format", "json"]))
"""


@pytest.mark.parametrize("kind", ["pure", "diagonal"])
def test_solve_16384_states_under_1_gib(tmp_path, kind):
    """`qsd solve --format json` on 16,384 states, in a child whose address
    space is capped at 1 GiB (the cap is set in the child only), exits 0 with
    a full report: for random pure states, graded by the pairwise maximum,
    and for a diagonal ensemble, whose pick once built a 2 GiB table."""
    pytest.importorskip("resource")
    n = 16384
    rng = np.random.default_rng(n)
    priors = rng.uniform(1.0, 2.0, size=n)
    priors /= priors.sum()
    if kind == "pure":
        bloch = rng.normal(size=(n, 3))
        bloch /= np.linalg.norm(bloch, axis=1)[:, None]
    else:
        bloch = np.zeros((n, 3))
        bloch[:, 2] = rng.uniform(-1.0, 1.0, size=n)
    lines = (f"{p!r} {x!r} {y!r} {z!r}\n" for p, (x, y, z) in zip(priors.tolist(), bloch.tolist()))
    path = write(tmp_path, f"{kind}.txt", "".join(lines))
    done = run_python(_LIMITED_SOLVE, path)
    assert done.returncode == 0, done.stderr[-2000:]
    report = json.loads(done.stdout)
    assert report["method"] == ("oracle" if kind == "pure" else "diagonal")
    assert len(report["states"]) == n
    assert report["kkt"]["passes"]


# ---------------------------------------------------------------------------
# input rejection


def test_wrong_field_count(tmp_path, capsys):
    path = write(tmp_path, "bad.txt", "0.5 0 0\n0.5 0 0 1\n")
    code, _, err = run(capsys, ["solve", path])
    assert code == 1
    assert ":1: expected 4 fields" in err


def test_non_numeric_field(tmp_path, capsys):
    path = write(tmp_path, "bad.txt", "0.5 a 0 0\n0.5 0 0 1\n")
    code, _, err = run(capsys, ["solve", path])
    assert code == 1
    assert "non-numeric field" in err


def test_single_state_rejected(tmp_path, capsys):
    path = write(tmp_path, "one.txt", "1.0 0 0 1\n")
    code, _, err = run(capsys, ["solve", path])
    assert code == 1
    assert "need at least 2 state lines" in err


_ENSEMBLE_LAYOUT = "`<prior> <bx> <by> <bz>`"
BOM = "\ufeff".encode("utf-8")
_POLE_ROWS = [[0.5, 0.0, 0.0, 1.0], [0.5, 0.0, 0.0, -1.0]]

# Every way an ensemble file is read or refused: file bytes, --renormalize,
# and the rows read or the exact message raised, {path} standing for the
# file. The messages are those of the line-by-line reader that iterated the
# open file.
ENSEMBLE_FILES = [
    ("lf", b"0.5 0 0 1\n0.5 0 0 -1\n", False, _POLE_ROWS),
    ("crlf", b"0.5 0 0 1\r\n0.5 0 0 -1\r\n", False, _POLE_ROWS),
    ("comments-and-blanks", b"# head\n\n   # indented\n0.5 0 0 1\n \t \n#0 0 0\n0.5 0 0 -1\n",
     False, _POLE_ROWS),
    ("no-final-newline", b"0.5 0 0 1\n0.5 0 0 -1", False, _POLE_ROWS),
    ("padded-fields", b"  0.5\t0 0   1  \n0.5 0 0 -1\n", False, _POLE_ROWS),
    ("renormalize", b"2 0 0 1\n2 0 0 -1\n", True, _POLE_ROWS),
    ("three-fields", b"# c\n0.5 0 0 1\n0.5 0 0\n", False,
     f"{{path}}:3: expected 4 fields {_ENSEMBLE_LAYOUT}, got 3"),
    ("five-fields-crlf", b"0.5 0 0 1\r\n\r\n0.5 0 0 -1 7\r\n", False,
     f"{{path}}:3: expected 4 fields {_ENSEMBLE_LAYOUT}, got 5"),
    ("five-fields-last-line", b"0.5 0 0 1\n0.5 0 0 -1 7", False,
     f"{{path}}:2: expected 4 fields {_ENSEMBLE_LAYOUT}, got 5"),
    ("non-numeric", b"0.5 0 0 1\n  0.5 x 0 -1  \n", False,
     "{path}:2: non-numeric field in '0.5 x 0 -1'"),
    ("non-numeric-before-count", b"0.5 0 0 one\n", False,
     "{path}:1: non-numeric field in '0.5 0 0 one'"),
    ("one-state", b"# only\n1.0 0 0 1\n", False, "{path}: need at least 2 state lines, got 1"),
    ("no-states", b"# nothing\n\n", False, "{path}: need at least 2 state lines, got 0"),
    ("empty", b"", True, "{path}: need at least 2 state lines, got 0"),
    ("outside-ball", b"0.5 0 0 1\n0.5 0 1.5 0\n", False,
     "Bloch norm 1.5 exceeds 1 beyond tolerance 1e-12"),
    ("nan-bloch", b"0.5 0 0 1\n0.5 nan 0 0\n", False,
     "Bloch vector components must be finite, got BlochVector(x=nan, y=0.0, z=0.0)"),
    ("priors-off", b"0.6 0 0 1\n0.6 0 0 -1\n", False, "priors sum to 1.2, not 1 within 1e-12"),
    ("prior-out-of-range", b"-1 0 0 1\n2 0 0 -1\n", True,
     "entry 0: prior -1.0 outside the open interval (0, 1)"),
    ("renormalize-zero-sum", b"0 0 0 1\n0 0 0 -1\n", True,
     "cannot renormalize priors with sum 0.0"),
    # a UTF-8 byte-order mark, as Windows editors save one, is not a field
    ("bom-comment-first", BOM + b"# head\n0.5 0 0 1\n0.5 0 0 -1\n", False, _POLE_ROWS),
    ("bom-data-first", BOM + b"0.5 0 0 1\r\n0.5 0 0 -1\r\n", False, _POLE_ROWS),
    ("bom-three-fields", BOM + b"# c\n0.5 0 0 1\n0.5 0 0\n", False,
     f"{{path}}:3: expected 4 fields {_ENSEMBLE_LAYOUT}, got 3"),
    ("bom-non-numeric", BOM + b"0.5 0 0 1\n0.5 x 0 -1\n", False,
     "{path}:2: non-numeric field in '0.5 x 0 -1'"),
]


@pytest.mark.parametrize("name, data, renormalize, expected", ENSEMBLE_FILES,
                         ids=[case[0] for case in ENSEMBLE_FILES])
def test_ensemble_file_reading_and_messages(tmp_path, name, data, renormalize, expected):
    path = tmp_path / f"{name}.txt"
    path.write_bytes(data)
    if isinstance(expected, str):
        with pytest.raises(ValueError) as caught:
            cli.parse_ensemble_file(str(path), renormalize=renormalize)
        assert str(caught.value) == expected.format(path=path)
    else:
        ensemble = cli.parse_ensemble_file(str(path), renormalize=renormalize)
        assert ensemble.priors.tolist() == [row[0] for row in expected]
        assert ensemble.bloch_matrix.tolist() == [row[1:] for row in expected]


def test_povm_file_reports_a_bad_element_before_a_later_malformed_line(tmp_path):
    """Rows reach the element check one line at a time: a bad element on line
    1 is reported, not the field count of line 2 or the element count."""
    bad_then_short = write(tmp_path, "povm.txt", "0.5 0 0 1\n0.5 0 0\n")
    with pytest.raises(ValueError) as caught:
        cli.parse_povm_file(bad_then_short, 3)
    assert str(caught.value) == "POVM element not PSD: a = 0.5 < |v| = 1.0 beyond 1e-12"
    good_then_short = write(tmp_path, "short.txt", "0.5 0 0 0.5\r\n0.5 0 0\r\n")
    with pytest.raises(ValueError) as caught:
        cli.parse_povm_file(good_then_short, 2)
    assert str(caught.value) == (
        f"{good_then_short}:2: expected 4 fields `<a> <vx> <vy> <vz>`, got 3")


def test_byte_order_mark_changes_no_report(tmp_path, capsys, monkeypatch):
    """Ensemble and POVM files saved with a BOM read as the same files without one."""
    reports = {}
    for name, head in (("plain", b""), ("bom", BOM)):
        folder = tmp_path / name
        folder.mkdir()
        monkeypatch.chdir(folder)
        Path("trine.txt").write_bytes(head + TRINE.encode("utf-8"))
        code, text, err = run(capsys, ["solve", "trine.txt"])
        assert (code, err) == (0, "")
        code, out, err = run(capsys, ["solve", "trine.txt", "--format", "json"])
        assert (code, err) == (0, "")
        rows = [
            " ".join(repr(x) for x in [rec["povm_a"], *rec["povm_v"]])
            for rec in json.loads(out)["states"]
        ]
        Path("povm.txt").write_bytes(head + ("# solved\n" + "\n".join(rows) + "\n").encode("utf-8"))
        code, verified, err = run(capsys, ["verify", "trine.txt", "povm.txt", "--format", "json"])
        assert (code, err) == (0, "")
        Path("short.txt").write_bytes(head + b"0.5 0 0 0.5\n0.5 0 0\n")
        with pytest.raises(ValueError) as caught:
            cli.parse_povm_file("short.txt", 2)
        reports[name] = (text, out, verified, str(caught.value))
    assert reports["bom"] == reports["plain"]
    assert reports["bom"][3] == "short.txt:2: expected 4 fields `<a> <vx> <vy> <vz>`, got 3"


def test_tol_is_not_an_option(tmp_path, capsys):
    # the oracle's pivot window is fixed; no command takes a tolerance
    path = write(tmp_path, "trine.txt", TRINE)
    for argv in (["solve", path], ["verify", path, path], ["demo", "trine"]):
        code, out, err = run(capsys, argv + ["--tol", "1e-9"])
        assert (code, out) == (1, "")
        assert err.startswith("qsd: error: unrecognized arguments") and err.count("\n") == 1


def test_method_state_count_mismatch(tmp_path, capsys):
    path = write(tmp_path, "poles.txt", POLES)
    code, _, err = run(capsys, ["solve", path, "--method", "three-state"])
    assert code == 1 and "qsd: error:" in err
    code, _, err = run(capsys, ["solve", path, "--method", "cone"])
    assert code == 1
    assert "lacks cone structure" in err


def test_no_arguments(capsys):
    assert cli.main([]) == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
@pytest.mark.parametrize("command", ["solve", "verify", "demo"])
def test_json_reports_encode_as_json_dumps_does(tmp_path, capsys, monkeypatch, command):
    # the reports are encoded without the cycle check: each is a tree built
    # for its call, so the bytes are json.dumps's own
    path = write(tmp_path, "trine.txt", TRINE)
    povm_path = write(tmp_path, "povm.txt", "1 0 0 0\n0 0 0 0\n0 0 0 0\n")
    emitted = []
    emit = cli._emit

    def spy(report, fmt, render_text):
        emitted.append(report)
        emit(report, fmt, render_text)

    monkeypatch.setattr(cli, "_emit", spy)
    argv = {"solve": ["solve", path, "--cross-check"], "verify": ["verify", path, povm_path],
            "demo": ["demo", "cone"]}[command]
    code, out, _ = run(capsys, argv + ["--format", "json"])
    assert code == 0 and len(emitted) == 1
    assert out == json.dumps(emitted[0]) + "\n"


# verify


def test_verify_solved_povm_roundtrip(tmp_path, capsys):
    path = write(tmp_path, "trine.txt", TRINE)
    _, out, _ = run(capsys, ["solve", path, "--format", "json"])
    report = json.loads(out)
    lines = [
        " ".join(repr(x) for x in [rec["povm_a"], *rec["povm_v"]])
        for rec in report["states"]
    ]
    povm_path = write(tmp_path, "povm.txt", "\n".join(lines) + "\n")
    code, out, _ = run(capsys, ["verify", path, povm_path])
    assert code == 0
    assert "bound: satisfied" in out
    assert "measurement verification report" in out


def test_verify_guessing_povm(tmp_path, capsys):
    path = write(tmp_path, "trine.txt", TRINE)
    povm_path = write(tmp_path, "guess.txt", "1 0 0 0\n0 0 0 0\n0 0 0 0\n")
    code, out, _ = run(
        capsys, ["verify", path, povm_path, "--format", "json"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["success"] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert report["margin"] == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert report["bound_satisfied"] is True


def test_verify_incomplete_povm(tmp_path, capsys):
    path = write(tmp_path, "trine.txt", TRINE)
    povm_path = write(tmp_path, "bad.txt", "0.9 0 0 0\n0 0 0 0\n0 0 0 0\n")
    code, _, err = run(capsys, ["verify", path, povm_path])
    assert code == 1 and "qsd: error:" in err


def test_verify_element_count(tmp_path, capsys):
    path = write(tmp_path, "trine.txt", TRINE)
    povm_path = write(tmp_path, "short.txt", "0.5 0 0 0.5\n0.5 0 0 -0.5\n")
    code, _, err = run(capsys, ["verify", path, povm_path])
    assert code == 1
    assert "got 2 POVM elements for 3 states" in err


def test_verify_bound_violation_exit3(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "poles.txt", POLES)
    povm_path = write(tmp_path, "proj.txt", "0.5 0 0 0.5\n0.5 0 0 -0.5\n")
    monkeypatch.setattr(
        cli,
        "_solve_with_method",
        lambda *a, **k: SimpleNamespace(p_opt=0.2, method="fake"),
    )
    code, out, _ = run(capsys, ["verify", path, povm_path])
    assert code == 3
    assert "bound: VIOLATED" in out


def test_numerical_failure_exit2(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "trine.txt", TRINE)

    def explode(*a, **k):
        raise ConvergenceError("multistart did not converge")

    monkeypatch.setattr(cli, "_solve_with_method", explode)
    code, _, err = run(capsys, ["solve", path])
    assert code == 2
    assert "qsd: numerical failure: multistart did not converge" in err


@pytest.mark.parametrize(
    "error, line",
    [
        (MemoryError("Unable to allocate 2.00 GiB"), "qsd: error: Unable to allocate 2.00 GiB"),
        (MemoryError(), "qsd: error: MemoryError"),
    ],
    ids=["message", "bare"],
)
def test_memory_error_exit1(tmp_path, capsys, monkeypatch, error, line):
    path = write(tmp_path, "trine.txt", TRINE)

    def exhaust(*a, **k):
        raise error

    monkeypatch.setattr(cli, "_solve_with_method", exhaust)
    code, out, err = run(capsys, ["solve", path])
    assert (code, out) == (1, "")
    assert err.splitlines() == [line]
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, ensemble, povm, line",
    [
        (["solve", "--renormalize"], "1e308 0 0 1\n1e308 0 0 -1\n", None,
         "qsd: error: cannot renormalize priors with sum inf"),
        (["verify"], POLES, "1e308 0 0 0\n1e308 0 0 0\n",
         "qsd: error: POVM incomplete: sum of a is inf, not 1 within 1e-10"),
    ],
    ids=["solve-renormalized-priors", "verify-povm-traces"],
)
def test_overflowing_input_sums_exit1(tmp_path, capsys, command, ensemble, povm, line):
    """Finite inputs whose sum passes the largest float are refused as input errors."""
    argv = [command[0], write(tmp_path, "ensemble.txt", ensemble)]
    if povm is not None:
        argv.append(write(tmp_path, "povm.txt", povm))
    code, out, err = run(capsys, argv + command[1:])
    assert (code, out) == (1, "")
    assert err.splitlines() == [line]
    assert "Traceback" not in err


def _ensemble_file(tmp_path, name, ens):
    lines = [
        f"{p!r} {x!r} {y!r} {z!r}"
        for p, (x, y, z) in zip(ens.priors.tolist(), ens.bloch_matrix.tolist())
    ]
    return write(tmp_path, name, "\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "name, ens, methods",
    [
        ("shell.txt", one_sided_shell(64), ["symmetric-shell"]),
        ("cone.txt", quarter_circle_cone(32), ["symmetric-shell", "cone"]),
    ],
    ids=["one-sided-shell", "quarter-cone"],
)
def test_one_sided_families_decline_to_the_oracle(tmp_path, capsys, monkeypatch, name, ens, methods):
    def enumeration(*args, **kwargs):
        raise AssertionError("subset_support_weights called")

    monkeypatch.setattr(qsd.weights, "subset_support_weights", enumeration)
    path = _ensemble_file(tmp_path, name, ens)
    code, out, err = run(capsys, ["solve", path, "--format", "json"])
    assert (code, err) == (0, "")
    assert json.loads(out)["method"] == "oracle"
    for method in methods:
        code, out, err = run(capsys, ["solve", path, "--method", method])
        assert (code, out) == (2, "")
        assert err == (
            "qsd: numerical failure: no nonnegative weights solve the completeness system\n"
        )


# ---------------------------------------------------------------------------
# demos


def test_demo_trine(capsys):
    code, out, _ = run(capsys, ["demo", "trine"])
    assert code == 0
    assert "demo: trine" in out
    assert "reference p: 0.66666666666666663" in out
    assert "|delta|" in out


def test_demo_mirror_boundary(capsys):
    code, out, _ = run(capsys, ["demo", "mirror", "--theta", "1.0472", "--p1", "0.4"])
    assert code == 0
    assert "regime: boundary" in out
    code, out, _ = run(
        capsys,
        ["demo", "mirror", "--theta", "1.0472", "--p1", "0.4", "--format", "json"],
    )
    report = json.loads(out)
    expected = 0.4 * (1.0 + math.sin(2.0 * 1.0472))
    assert report["reference_p"] == pytest.approx(expected, abs=1e-15)
    assert any(a.startswith("regime: boundary") for a in report["annotations"])
    assert report["reference_delta"] < 1e-10


def test_demo_mirror_at_89_degrees(capsys):
    theta = repr(math.radians(89.0))
    code, out, err = run(capsys, ["demo", "mirror", "--theta", theta, "--p1", "0.02"])
    assert (code, err) == (0, "")
    assert "demo: mirror" in out


def test_demo_dodecahedron_reports_mismatch(capsys):
    code, out, _ = run(capsys, ["demo", "dodecahedron"])
    assert code == 0
    assert "edge-coefficient mismatch" in out
    assert "p_opt: 0.1" in out


def test_demo_unknown_name(capsys):
    code = cli.main(["demo", "hexagon"])
    err = capsys.readouterr().err
    assert code == 1
    assert "invalid choice" in err


def test_demo_diagonal(capsys):
    code, out, _ = run(capsys, ["demo", "diagonal", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["method"] == "diagonal" and report["demo"] == "diagonal"
    # the solver's pick is bit-identical to the classical best up plus best down
    assert report["p_opt"] == report["reference_p"] == 0.45 + 0.225
    assert report["reference_delta"] == 0.0
    assert report["cross_check"]["delta_p"] < 1e-9


def test_demo_cone_defaults(capsys):
    code, out, _ = run(capsys, ["demo", "cone", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    expected = (1.0 + 0.8 * math.sin(math.pi / 3.0)) / 4.0
    assert report["reference_p"] == pytest.approx(expected, abs=1e-12)
    assert report["p_opt"] == pytest.approx(expected, abs=1e-9)
    assert report["cross_check"]["delta_p"] < 1e-7


# ---------------------------------------------------------------------------
# repeated in-process calls


def test_in_process_calls_share_no_state(tmp_path, capsys):
    """A usage error, a JSON solve, a text solve and a demo made one after
    another in one process print exactly what each prints on its own in a
    fresh interpreter."""
    path = write(tmp_path, "trine.txt", TRINE)
    calls = [
        ["solve", path, "--no-such-flag"],
        ["solve", path, "--format", "json"],
        ["solve", path],
        ["demo", "trine"],
    ]
    together = [run(capsys, argv) for argv in calls]
    for argv, got in zip(calls, together):
        alone = run_python("import sys, qsd.cli; sys.exit(qsd.cli.main(sys.argv[1:]))", *argv)
        assert got == (alone.returncode, alone.stdout, alone.stderr), argv
    assert together[0][0] == 1 and "unrecognized arguments" in together[0][2]

    code, out, _ = together[1]
    assert code == 0 and out.count("\n") == 1 and out.endswith("}\n")
    ensemble = cli.parse_ensemble_file(path)
    expected = cli.build_report(cli._solve_with_method(ensemble, "auto"))
    expected["input"] = path
    assert json.loads(out) == expected


def test_import_builds_no_parser():
    """Importing qsd.cli constructs no ArgumentParser; the first main() call
    builds the tree and later calls reuse it."""
    probe = """
import argparse, io, contextlib
built = 0
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    global built
    built += 1
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
import qsd.cli
counts = [built]
for _ in range(2):
    with contextlib.redirect_stdout(io.StringIO()):
        qsd.cli.main(["demo", "trine", "--format", "json"])
    counts.append(built)
print(counts)
"""
    done = run_python(probe)
    assert done.returncode == 0, done.stderr[-2000:]
    at_import, after_first, after_second = json.loads(done.stdout)
    assert at_import == 0
    assert after_first > 0
    assert after_second == after_first


def _solution(report):
    states = report["states"]
    return repr(
        (report["method"], report["p_opt"], [r["povm_a"] for r in states], [r["povm_v"] for r in states])
    )


def test_cli_and_library_give_one_answer(tmp_path, capsys):
    """qsd solve reports the library's result to the bit on near-guess inputs,
    where a different pivot window would end the pivot loop one basis early."""
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 40:
        ens = near_guess_ensemble(rng)
        if ens.n < 4:
            continue
        path = _ensemble_file(tmp_path, "near_guess.txt", ens)
        ensemble = cli.parse_ensemble_file(path)
        auto, oracle = solve_auto(ensemble), solve_oracle(ensemble)
        code, out, _ = run(capsys, ["solve", path, "--format", "json", "--cross-check"])
        assert code == 0
        report = json.loads(out)
        assert _solution(report) == _solution(cli.build_report(auto))
        assert repr(report["cross_check"]["oracle_p"]) == repr(oracle.p_opt)
        code, out, _ = run(capsys, ["solve", path, "--format", "json", "--method", "oracle"])
        assert code == 0
        assert _solution(json.loads(out)) == _solution(cli.build_report(oracle))
        checked += 1
