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


# seconds a child CLI may run: a case that regresses to an unbounded run fails
# its test instead of hanging the suite
_CHILD_TIMEOUT = 60


def _env_with_src():
    """The environment with this package's source directory on PYTHONPATH,
    for a child interpreter."""
    import subapprox

    src = os.path.dirname(os.path.dirname(subapprox.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


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


@pytest.mark.parametrize("key,e", [
    ("4 2 : 1 0 0 0 0 1", 2),  # e12 + e34
    ("5 2 : 1 0 0 0 0 0 0 1 0 0", 2),  # e12 + e34
    ("6 3 : 1" + " 0" * 18 + " 1", 3),  # e123 + e456
])
def test_height_nondecomposable_plucker_names_the_kernel_rank(key, e, capsys):
    # x -> x ^ v has an e-dimensional kernel iff v is decomposable
    assert main(["height", "--plucker", key]) == 3
    assert capsys.readouterr().err == "error: vector is not decomposable (kernel rank 0 != %d)\n" % e


def test_scan_rational_target(tmp_path, capsys):
    # the second target has Plucker minors with an exactly zero pivot column
    for target, hmax in (("gens:1 0 0 0; 0 1 0 0", "2"), ("gens:1 0 0 0; 0 1 0 1", "3")):
        code = main(["scan", "--target", target, "--e", "2", "--j", "1", "--hmax", hmax])
        out = capsys.readouterr().out
        assert code == 0
        assert "rational_target=true" in out


def test_scan_rational_hit_is_the_smaller_key(capsys):
    # two B of height sqrt(2) meet A: mp rounds psi_1 to 1e-39 for the
    # lex-smaller key and to 0 for the other.  Both are below the zero
    # tolerance, so the smaller key is the record
    assert main(["scan", "--target", "gens:2 0 -2 -2 0; 0 1 1 1 -2", "--e", "2", "--j", "1",
                 "--hmax", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "rational_target=true" in lines[1]
    assert lines[-1].endswith(",0.0,0.0,5 2 : 0 0 0 1 0 0 1 0 0 0")


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


@pytest.mark.parametrize("claimed,code", [("1e9", 2), ("1e-9", 0)])
def test_witness_lower_bound_claimed_c(claimed, code, capsys):
    # c_min is 0.0115 at H <= 4: a claimed constant above it fails the check
    assert main(["witness", "r4", "--lower-bound", "--hmax", "4", "--claimed-c", claimed]) == code
    data = json.loads(capsys.readouterr().out)
    assert data["lower_bound"]["claimed_c"] == float(claimed)
    assert data["lower_bound"]["passed"] is data["passed"] is (code == 0)


def test_witness_lower_bound_rational_hit_is_decided_on_the_pairing(capsys):
    # c_min = phi H^-20 is 7.6e-26 here, far below 2^-64, but the argmin's
    # pairing is not: the sqrt2 witness meets no rational plane
    assert main(["witness", "r4", "--xi", "sqrt2", "--lower-bound", "--hmax", "12",
                 "--exponent", "-20"]) == 0
    lb = json.loads(capsys.readouterr().out)["lower_bound"]
    assert lb["rational_target"] is False and lb["passed"] is True
    assert float(lb["c_min"]) < 2.0 ** -64


def test_negative_exponent_notation_parses_as_a_value(capsys):
    # argparse takes `-2e1` for a flag unless told that it is a number
    outs = []
    for exponent in ("-2e1", "-20"):
        assert main(["witness", "r4", "--lower-bound", "--hmax", "3", "--exponent", exponent,
                     "--claimed-c", "-1e6"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["lower_bound"]["claimed_c"] == -1e6


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


def test_dirichlet_rational_stops_at_any_precision(capsys):
    # psi at q = 4 is rounding noise far below 2^-1100; a float64 copy of
    # that tolerance underflows to 0.0 from prec ~ 2150 on
    for prec in ("128", "2200"):
        code = main(["dirichlet", "--target", "gens:1 2 0 3", "--j", "1", "--qmax", "5",
                     "--prec", prec])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[-2].startswith("4,") and lines[-2].endswith(",0.0,0.0")
        assert lines[-1].endswith("rational_stop=true")


@pytest.mark.parametrize("argv,digest", [
    (("--n", "4", "--seed", "3", "--j", "1", "--qmax", "2000"),  # exhaustive q-sweep
     "a1c40509d9e57681c0099b23aa4beb2fe2e2a09eee0871a15c032c51af1998d4"),
    (("--n", "4", "--seed", "5", "--j", "1", "--qmax", "10000000"),  # LLL candidates
     "6befab49d5ae245268240b2156f6b5c8c04ba4fd05a5fb2b47d4b41761d458d1"),
    (("--n", "5", "--seed", "7", "--j", "2", "--qmax", "500"),
     "3b6bca8866a83c18ca1e9d1de30a3cfab8450d6521007a4d296932a7aa7276e6"),
])
def test_dirichlet_output_pinned(tmp_path, argv, digest):
    out = tmp_path / "d.csv"
    assert main(["dirichlet", "--target", "random:2", *argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("argv,digest", [
    (("--zeta3", "3/2"),
     "9981e28dd27bc3455c01b07b70703b067275bea81f4b06f895b02967151ec41b"),
    (("--zeta3", "2", "--prec", "129"),  # odd precision
     "a921a97500684f52dc762c3fc6a3d7928bd750fc6cea1583448e9731a9068601"),
])
def test_witness_r5_residuals_pinned(tmp_path, argv, digest):
    # the printed tolerance max(1, max|c|^2) 2^(-prec + 16) and residuals
    out = tmp_path / "r5.json"
    assert main(["witness", "r5", *argv, "--residuals", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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
    # precision below 64 bits, refused before any work
    ("scan", "--target", "random:2", "--n", "4", "--e", "2", "--hmax", "2", "--prec", "-8"),
    ("witness", "r5", "--zeta3", "2", "--prec", "0"),
    ("dirichlet", "--target", "random:2", "--n", "4", "--qmax", "5", "--prec", "0"),
    ("goingup", "--target", "random:2", "--n", "4", "--gens", "1 0 0 0", "--prec", "0"),
    ("props", "--prec", "63"),
    # a height bound that is not finite
    ("scan", "--target", "r4", "--e", "2", "--hmax", "inf"),
    ("witness", "r4", "--lower-bound", "--hmax", "inf"),
    # a path in a missing directory, which the message names
    ("scan", "--target", "r4", "--e", "2", "--hmax", "2", "--cache", "missing-dir/c42.cache"),
    ("scan", "--target", "r4", "--e", "2", "--hmax", "2", "--out", "missing-dir/scan.csv"),
    # a Plucker key outside 1 <= e <= n
    ("height", "--plucker", "3 0 : 1", "--format", "json"),
    ("height", "--plucker", "3 4 :"),
    # dependent generators: more vectors than coordinates, and two proportional rows
    ("height", "--gens", "1 2; 3 4; 5 6"),
    ("height", "--gens", "1 2 3; 2 4 6"),
    # a lower-bound exponent or claimed constant that is not finite
    ("witness", "r4", "--lower-bound", "--hmax", "3", "--exponent", "nan"),
    ("witness", "r4", "--lower-bound", "--hmax", "3", "--exponent", "inf"),
    ("witness", "r4", "--lower-bound", "--hmax", "3", "--claimed-c", "nan"),
    # fewer than one worker
    ("scan", "--target", "r4", "--e", "2", "--hmax", "2", "--workers", "0"),
    ("scan", "--target", "r4", "--e", "2", "--hmax", "2", "--workers", "-4"),
    # a q_max whose power q_max^(1 + 1/N) leaves float64
    ("dirichlet", "--target", "random:2", "--n", "4", "--qmax", "1" + "0" * 400),
    # more than one worker: the enumeration runs serially
    ("scan", "--target", "r4", "--e", "2", "--hmax", "2", "--workers", "2"),
    # refused by argparse itself: a negative tuple budget, an unrecognized
    # flag and an --e that is not an integer
    ("scan", "--target", "r4", "--e", "2", "--hmax", "3", "--max-pairs", "-1"),
    ("scan", "--target", "r4", "--e", "2", "--hmax", "2", "--bogus"),
    ("scan", "--target", "r4", "--e", "x", "--hmax", "2"),
    # a search bound below 1, which used to run with 50 (r4) or skip the search (r5)
    ("witness", "r4", "--mod4", "--search-bound", "0"),
    ("witness", "r5", "--search-bound", "0"),
    # a search box above its ceiling, refused before it is allocated
    ("witness", "r4", "--search-bound", "3000"),
    ("witness", "r5", "--search-bound", "3000"),
    ("goingup", "--target", "random:2", "--n", "6", "--seed", "3", "--gens", "1 0 0 0 0 0",
     "--budget", "400"),
    # an --n that contradicts the target's own n
    ("scan", "--target", "r4", "--e", "2", "--j", "1", "--hmax", "3", "--n", "5"),
    ("dirichlet", "--target", "gens:1 0 0; 0 1 0", "--n", "4", "--qmax", "5"),
])
def test_bad_input_exits_3_with_one_error_line(argv, tmp_path):
    proc = subprocess.run([sys.executable, "-m", "subapprox.cli", *argv],
                          capture_output=True, text=True, env=_env_with_src(), cwd=tmp_path,
                          timeout=_CHILD_TIMEOUT)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(("error: ", "parse error: ")) and proc.stderr.count("\n") == 1
    assert all(a in proc.stderr for a in argv if a.startswith("missing-dir/"))
    assert ".tmp" not in proc.stderr
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("argv", [
    ("scan", "--target", "random", "--n", "4", "--d", "2", "--e", "2", "--hmax", "2"),
    ("dirichlet", "--target", "random", "--n", "4", "--d", "2", "--qmax", "5"),
    ("goingup", "--target", "random", "--n", "4", "--d", "2", "--gens", "1 0 0 0"),
])
def test_random_target_dimension_is_named_by_the_target(argv, capsys):
    # `random:<d>` names the dimension; there is no --d option
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 3
    assert "--d" in capsys.readouterr().err
    i = argv.index("--d")
    assert main([*argv[:i], *argv[i + 2:]]) == 3  # a bare `random` asks for `random:<d>`
    assert "random:<d>" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("scan", "--target", "r4", "--e", "2", "--hmax", "20", "--cache", "missing-dir/c.cache"),
    ("scan", "--target", "r4", "--e", "2", "--hmax", "20", "--out", "missing-dir/scan.csv"),
    ("witness", "r4", "--lower-bound", "--hmax", "20", "--cache", "missing-dir/c.cache"),
])
def test_missing_directory_refused_before_the_sweep(argv, monkeypatch, tmp_path, capsys):
    from subapprox import enumeration

    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep started before the path was checked")

    monkeypatch.setattr(enumeration, "_shard_jobs", no_sweep)
    monkeypatch.chdir(tmp_path)
    assert main(list(argv)) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and argv[-1] in err and ".tmp" not in err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("argv", [
    ("scan", "--target", "r4", "--e", "2", "--hmax", "20", "--cache", "ro/c.cache"),
    ("scan", "--target", "r4", "--e", "2", "--hmax", "20", "--out", "ro/scan.csv"),
    ("witness", "r4", "--lower-bound", "--hmax", "20", "--cache", "ro/c.cache"),
    ("witness", "r4", "--lower-bound", "--hmax", "20", "--out", "ro/lb.json"),
])
def test_unwritable_directory_refused_before_any_work(argv, monkeypatch, tmp_path, capsys):
    # permission bits do not bind every user (root), so the directory is
    # made unwritable by refusing os.access for it
    from subapprox import cli

    real_access = os.access

    def access(path, mode, **kwargs):
        return False if (path, mode) == ("ro", os.W_OK) else real_access(path, mode, **kwargs)

    def no_work(*args, **kwargs):
        raise AssertionError("the enumeration started before the path was checked")

    monkeypatch.setattr(os, "access", access)
    monkeypatch.setattr(cli, "enumerate_subspaces", no_work)
    monkeypatch.chdir(tmp_path)
    os.mkdir("ro")
    assert main(list(argv)) == 3
    err = capsys.readouterr().err
    assert err == "parse error: --%s %s: directory not writable\n" % (argv[-2][2:], argv[-1])
    assert os.listdir(tmp_path) == ["ro"] and not os.listdir("ro")


@pytest.mark.parametrize("argv", [
    ("scan", "--target", "r4", "--e", "2", "--j", "1", "--hmax", "14", "--out", "a-dir"),
    ("scan", "--target", "r4", "--e", "2", "--j", "1", "--hmax", "14", "--cache", "a-dir"),
    ("witness", "r4", "--lower-bound", "--hmax", "14", "--out", "a-dir"),
    ("witness", "r4", "--lower-bound", "--hmax", "14", "--cache", "a-dir"),
])
def test_directory_path_refused_before_the_sweep(argv, monkeypatch, tmp_path, capsys):
    # an --out or --cache naming an existing directory exits 3 at once, not
    # with `Is a directory` after the whole scan
    from subapprox import enumeration

    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep started before the path was checked")

    monkeypatch.setattr(enumeration, "_shard_jobs", no_sweep)
    monkeypatch.chdir(tmp_path)
    os.mkdir("a-dir")
    assert main(list(argv)) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "a-dir" in err and "is a directory" in err
    assert os.listdir(tmp_path) == ["a-dir"] and not os.listdir("a-dir")


@pytest.mark.parametrize("argv", [
    ("witness", "r4", "--search-bound", "3000"),
    ("witness", "r5", "--search-bound", "3000"),
    ("goingup", "--target", "random:2", "--n", "6", "--seed", "3", "--gens", "1 0 0 0 0 0",
     "--budget", "400"),
    ("scan", "--target", "r4", "--e", "2", "--j", "1", "--hmax", "100000"),
    ("witness", "r4", "--lower-bound", "--hmax", "1e9"),
])
def test_oversized_search_box_refused_before_allocating(argv, capsys):
    # (2b + 1)^3 = 2.2e11 cells, 801^5 = 3.3e14 going-up candidates, and
    # ~10^21 and ~10^37 planes: the ceiling is checked before any array,
    # candidate list or integer ball is made
    import tracemalloc

    tracemalloc.start()
    try:
        code = main(list(argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "more than" in err and err.count("\n") == 1
    assert peak < 1 << 20


def test_search_box_ceilings():
    from subapprox.dirichlet import MAX_CANDIDATES, going_up_search
    from subapprox.grassmann import from_generators
    from subapprox.witness import MAX_BOX_CELLS, r4_irrationality_certificate, witness_r4

    # 215^3 cells fit under the ceiling, 217^3 do not
    assert 215 ** 3 <= MAX_BOX_CELLS < 217 ** 3
    assert r4_irrationality_certificate(107)["passed"]
    with pytest.raises(ValueError, match="more than"):
        r4_irrationality_certificate(108)
    # a line in R^4 leaves a 3-dimensional coefficient box: 101^3 > 10^6
    assert 99 ** 3 <= MAX_CANDIDATES < 101 ** 3
    with pytest.raises(ValueError, match="more than"):
        going_up_search(witness_r4(), from_generators([(3, 1, 4, 1)]), 1, budget=50)


@pytest.mark.parametrize("argv,n", [
    (("scan", "--target", "r4", "--e", "2", "--j", "1", "--hmax", "3"), 4),
    (("scan", "--target", "r5", "--e", "2", "--j", "1", "--hmax", "3"), 5),
    (("dirichlet", "--target", "gens:1 0 0; 0 1 0", "--qmax", "5"), 3),
    (("goingup", "--target", "r4", "--gens", "1 0 0 0"), 4),
])
def test_n_that_contradicts_the_target_is_refused(argv, n, capsys):
    # a named or `gens:` target fixes n; an --n that differs is refused, not
    # ignored, and one that agrees changes nothing
    assert main([*argv, "--n", str(n + 1)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("parse error: --n ") and err.count("\n") == 1
    assert main(list(argv)) == 0
    without = capsys.readouterr().out
    assert main([*argv, "--n", str(n)]) == 0
    assert capsys.readouterr().out == without


def test_props_passes(capsys):
    code = main(["props", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


@pytest.mark.parametrize("prec", ["64", "256"])
def test_props_passes_at_any_precision(prec, capsys):
    # the phi-det tolerance scales with the precision, so 64 bits passes too
    assert main(["props", "--seed", "0", "--prec", prec]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 5 and all(line.split()[1] == "PASS" for line in out)


def test_cli_import_loads_no_thread_pool():
    # the enumeration runs serially, so the CLI loads no concurrent.futures
    code = "import sys, subapprox.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_env_with_src(),
                          timeout=_CHILD_TIMEOUT)
    assert proc.returncode == 0 and proc.stdout == "False\n"


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "subapprox.cli", "--version"],
                          capture_output=True, text=True, timeout=_CHILD_TIMEOUT)
    assert proc.returncode == 0
