import hashlib
import json
import os
import subprocess
import sys

import pytest

from subapprox.cli import main


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    return code


def test_height_gens(capsys):
    code = main(["height", "--gens", "1 0 1 0; 0 1 0 1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "height_sq 4" in out
    assert "1 0 1 -1 0 1" in out


def test_height_plucker_json(capsys):
    code = main(["height", "--plucker", "4 2 : 1 0 0 0 0 0", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert data["height_sq"] == 1
    assert data["gram_det_sq"] == 1


def test_height_json_digits_are_correct(capsys):
    assert main(["height", "--gens", "1 1 0 0", "--format", "json"]) == 0
    # sqrt(2) = 1.41421356237309504880...: 19 digits, not the 16 of a float64
    assert json.loads(capsys.readouterr().out)["height"].startswith("1.414213562373095048")


def test_height_fraction_gens(capsys):
    code = main(["height", "--gens", "1/2 0; 0 3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "height_sq 1" in out


def test_height_malformed_exits_3(capsys):
    code = main(["height", "--gens", "1 0 x; 0 1 0"])
    err = capsys.readouterr().err
    assert code == 3
    assert "row 1" in err and "column 3" in err


def test_height_nondecomposable_plucker(capsys):
    code = main(["height", "--plucker", "4 2 : 1 0 0 0 0 1"])
    assert code == 3


def test_scan_rational_target(tmp_path, capsys):
    # the second target has Plucker minors with an exactly zero pivot column
    for target, hmax in (("gens:1 0 0 0; 0 1 0 0", "2"), ("gens:1 0 0 0; 0 1 0 1", "3")):
        code = main(["scan", "--target", target, "--e", "2", "--j", "1", "--hmax", hmax])
        out = capsys.readouterr().out
        assert code == 0
        assert "rational_target=true" in out


def test_scan_witness_smoke(tmp_path, capsys):
    code = main(["scan", "--target", "r4:sqrt2", "--e", "2", "--j", "1",
                 "--hmax", "3", "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("# scan n=4 d=2 e=2 j=1")
    assert "height,psi_j,phi,key" in out


def test_scan_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["scan", "--target", "random:2", "--n", "4", "--e", "2", "--j", "1",
            "--hmax", "4", "--seed", "99"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_scan_warm_cache_identical(tmp_path):
    cache = tmp_path / "cache.txt"
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["scan", "--target", "r4:sqrt2", "--e", "2", "--j", "1",
            "--hmax", "4", "--cache", str(cache)]
    assert main(argv + ["--out", str(out1)]) == 0
    assert cache.exists()
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_scan_truncation_exit_code(tmp_path, capsys):
    code = main(["scan", "--target", "r4:sqrt2", "--e", "2", "--j", "1",
                 "--hmax", "8", "--max-pairs", "500"])
    out = capsys.readouterr().out
    assert code == 4
    assert "truncated=true" in out


def test_witness_r4_certificate(tmp_path):
    out = tmp_path / "r4.json"
    code = main(["witness", "r4", "--xi", "sqrt2", "--mod4", "--search-bound", "25",
                 "--lower-bound", "--hmax", "2", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["passed"]
    assert data["irrationality"]["mod4_all_even"]
    assert data["irrationality"]["nonzero_solutions"] == []
    assert data["lower_bound"]["passed"]


def test_witness_r5_residuals(tmp_path):
    out = tmp_path / "r5.json"
    code = main(["witness", "r5", "--zeta3", "3/2", "--residuals",
                 "--search-bound", "8", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["passed"]
    assert data["residuals"]["passed"]
    assert data["trivial_solutions"]["passed"]


def test_witness_r5_bad_param(capsys):
    code = main(["witness", "r5", "--zeta3", "1", "--residuals"])
    assert code == 3


def test_dirichlet_csv(capsys):
    code = main(["dirichlet", "--target", "random:2", "--n", "4", "--j", "1",
                 "--qmax", "50", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "q,height,psi_j,bound_ratio" in out
    assert "# c7_fit=" in out
    # q=1 always yields at least one row
    assert len([l for l in out.splitlines() if l and not l.startswith(("#", "q,"))]) >= 1


def test_dirichlet_rational_stops(capsys):
    code = main(["dirichlet", "--target", "gens:1 2 3 0; 0 1 1 1", "--j", "1",
                 "--qmax", "5000"])
    out = capsys.readouterr().out
    assert code == 0
    assert "rational_stop=true" in out


def test_goingup_json(capsys):
    code = main(["goingup", "--target", "random:2", "--n", "4", "--seed", "5",
                 "--gens", "3 1 4 1", "--budget", "2"])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert data["contained"]
    assert data["exponent"] == 2 / 3


@pytest.mark.parametrize("argv,digest", [
    (("--n", "4", "--seed", "7", "--gens", "3 1 4 1"),  # the README example
     "8c94ad582fb9fb3631621d35c597bcf77e593173e4f61d04682e457f60f7d496"),
    (("--n", "5", "--seed", "11", "--gens", "2 -1 3 0 1; 0 1 1 -2 1"),
     "88044abc74ad1e916b88d75fefec55d7c4ddaecc92abf963a6c711b411c2fa92"),
    (("--n", "6", "--seed", "13", "--gens", "3 1 -2 0 1 2"),
     "49d5a9a6bfc252010d40123b1be332e94eaf2129cb5bfda5378faef8e24af46f"),
])
def test_goingup_json_pinned(tmp_path, argv, digest):
    # sha256 of the JSON from the search that refined every candidate in mp
    out = tmp_path / "c.json"
    assert main(["goingup", "--target", "random:2", *argv, "--budget", "2",
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_goingup_negative_weight_with_psi_zero(capsys):
    # B lies in A, so psi_1 is 0 for all 13 candidates C: exactly 0 in mp for
    # some and rounding-level, below 2^-64, for the rest, which counts as 0
    code = main(["goingup", "--target", "gens:1 1 0 0; 0 0 0 1", "--gens", "1 1 0 0",
                 "--budget", "1", "--weight", "-1"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    # every C scores +inf, an exact tie: the lexicographically smallest key wins
    assert data["candidates"] == 13
    assert data["c"] == "4 2 : 0 0 1 0 1 0"
    assert data["psi_after"] == data["psi_before"] == "0.0"


@pytest.mark.parametrize("argv", [
    ("scan", "--target", "random:2", "--n", "8", "--e", "4", "--hmax", "2"),  # min(e, n - e) > 3
    ("scan", "--target", "r4", "--e", "2", "--hmax", "0.5"),  # height below 1
    ("dirichlet", "--target", "random:2", "--n", "4", "--qmax", "0"),
    ("goingup", "--target", "random:2", "--n", "4", "--gens", "3 1 4 1", "--budget", "0"),
])
def test_bad_input_exits_3_with_one_error_line(argv):
    import subapprox

    src = os.path.dirname(os.path.dirname(subapprox.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-m", "subapprox.cli", *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_props_passes(capsys):
    code = main(["props", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "subapprox.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
