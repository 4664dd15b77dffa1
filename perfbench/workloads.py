"""The benchmark's workloads: seeded op lists for the subapprox CLI, how to
run one op in-process, and the checks that decide whether an op failed.

An op is one CLI invocation (``subapprox.cli.main``).  A workload is a set-up
step plus a list of ops that the timed phase runs in passes.  Every op's
expected outcome sits in ``EXPECT``; ``check`` compares each result with it
after the timed phase, and an op with any failed check counts as failed.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import re
import resource
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

from subapprox import cli
from subapprox.enumeration import enumerate_subspaces, plucker_sweep_count_4_2
from subapprox.exact import laplace_sign, subsets

# Seed whose op outputs must match the sha256 digests in digests.json.
DEFAULT_SEED = 0

# R^4 witness parameters x with 1, x, sqrt(7 - x^2) linearly independent over
# Q, so no rational plane meets the witness and its lower-bound check passes.
# (A rational x, or x = sqrt3 with sqrt(7 - 3) = 2, gives exact rational hits.)
R4_PARAMS = ("sqrt2", "sqrt5", "sqrt3+1/4", "sqrt2+1/3", "sqrt5-1", "sqrt3-1/2",
             "sqrt2-1/5", "sqrt5+1/7")
# R^5 witness parameters z >= 5/4.  Every one meets the rational plane
# span(e1, e4 - e5), so its lower-bound check must report a rational hit.
R5_PARAMS = ("sqrt3+1/4", "3/2", "2", "sqrt2", "7/4", "sqrt3", "sqrt5", "5/2")


@dataclass(frozen=True)
class Scale:
    """Input sizes; FULL is the benchmark, TINY the benchmark's own tests."""

    cold_h42: int = 14        # (4,2) cold scan height bound
    cold_h53: int = 3         # (5,3) cold scan height bound
    warm_h42: int = 12        # (4,2) cache height bound
    warm_h52: int = 5         # (5,2) cache height bound
    qmax_sweep: int = 10_000  # dirichlet, exhaustive q-sweep path
    qmax_lll: int = 10_000_000  # dirichlet, LLL path (q_max > 10^5)
    budget: int = 2           # going-up coefficient box, n = 4 and 5
    n6_budget: int = 2        # going-up coefficient box, n = 6
    r4_search: int = 50
    r5_search: int = 30


FULL = Scale()
TINY = Scale(cold_h42=4, cold_h53=2, warm_h42=4, warm_h52=3, qmax_sweep=300,
             budget=1, n6_budget=1, r4_search=5, r5_search=4)


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]
    hmax: int | None = None   # height bound, for the enumeration oracles
    cache: str | None = None  # cache file the op writes


@dataclass
class OpResult:
    op: Op
    phase: str          # "setup<rep>" or "pass<i>"
    code: int | None
    out: str
    error: str | None
    wall: float
    cpu: float

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.out.encode()).hexdigest()


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_op(op: Op, phase: str) -> OpResult:
    """Run one CLI op in this process, capturing its output."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    c0, t0 = _cpu_seconds(), time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(op.argv))
    except SystemExit as exc:
        code = exc.code
    except Exception:  # an op that raises is a failed op, not a failed run
        code = None
        error = traceback.format_exc(limit=4)
    wall, cpu = time.perf_counter() - t0, _cpu_seconds() - c0
    return OpResult(op, phase, code, out.getvalue(), error or err.getvalue() or None, wall, cpu)


# --------------------------------------------------------------- workloads

def _scan(name, target, e, j, hmax, cache, *extra):
    argv = ("scan", "--target", target, *extra, "--e", str(e), "--j", str(j),
            "--hmax", str(hmax), "--cache", cache, "--workers", "1")
    return Op(name, argv, hmax=hmax, cache=cache)


def _gens(rng, n, e):
    """e integer vectors of R^n spanning an e-dimensional lattice."""
    while True:
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(e)]
        if np.linalg.matrix_rank(np.array(rows, dtype=float)) == e:
            return "; ".join(" ".join(map(str, r)) for r in rows)


class Workload:
    """Seeded inputs of one workload; ``workdir`` holds the files ops write."""

    name = ""

    def __init__(self, seed: int, scale: Scale, workdir: str):
        self.rng = random.Random(seed)
        self.scale = scale
        self.workdir = workdir

    def path(self, name):
        return os.path.join(self.workdir, name)

    def seed_arg(self):
        return str(self.rng.randrange(1, 10 ** 6))

    def setup_ops(self, rep: int) -> list[Op]:
        return []

    def ops(self, i: int) -> list[Op]:
        raise NotImplementedError


class ColdScan(Workload):
    """A fresh-cache (4,2) scan of an R^4 witness, then an e=3 (5,3) scan."""

    name = "cold_scan"

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        self.xi = self.rng.choice(R4_PARAMS)
        self.seed53 = self.seed_arg()

    def ops(self, i):
        s = self.scale
        return [
            _scan("scan_r4_cold", "r4:" + self.xi, 2, 1, s.cold_h42,
                  self.path("c42-p%d.cache" % i)),
            _scan("scan_5_3_cold", "random:2", 3, 1, s.cold_h53,
                  self.path("c53-p%d.cache" % i), "--n", "5", "--seed", self.seed53),
        ]


class WarmCertify(Workload):
    """Set-up builds (4,2) and (5,2) caches with cold scans; the timed ops
    load, validate and scan them, and run the lower-bound certificates."""

    name = "warm_certify"

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        self.xi = self.rng.sample(R4_PARAMS, 3)
        self.zeta = self.rng.choice(R5_PARAMS)
        self.seeds = [self.seed_arg() for _ in range(3)]
        self.c42 = self.c52 = None

    def setup_ops(self, rep):
        s = self.scale
        self.c42 = self.path("w42-r%d.cache" % rep)
        self.c52 = self.path("w52-r%d.cache" % rep)
        return [
            _scan("setup_scan_r4", "r4:" + self.xi[0], 2, 1, s.warm_h42, self.c42),
            _scan("setup_scan_5_2", "random:2", 2, 1, s.warm_h52, self.c52,
                  "--n", "5", "--seed", self.seeds[0]),
        ]

    def ops(self, i):
        s = self.scale
        h42, h52 = s.warm_h42, s.warm_h52
        return [
            # same config as setup_scan_r4, so the output must match it
            _scan("warm_scan_r4_j1", "r4:" + self.xi[0], 2, 1, h42, self.c42),
            _scan("warm_scan_r4_j2", "r4:" + self.xi[1], 2, 2, h42, self.c42),
            _scan("warm_scan_random_4", "random:2", 2, 1, h42, self.c42,
                  "--n", "4", "--seed", self.seeds[1]),
            Op("lower_bound_r4", ("witness", "r4", "--xi", self.xi[2], "--lower-bound",
                                  "--hmax", str(h42), "--cache", self.c42,
                                  "--workers", "1"), hmax=h42),
            _scan("warm_scan_5_2", "random:2", 2, 1, h52, self.c52,
                  "--n", "5", "--seed", self.seeds[2]),
            Op("lower_bound_r5", ("witness", "r5", "--zeta3", self.zeta, "--lower-bound",
                                  "--hmax", str(h52), "--cache", self.c52,
                                  "--workers", "1"), hmax=h52),
        ]


class Construct(Workload):
    """Dirichlet and going-up constructions, witness certificates and the
    property suites; nothing here enumerates."""

    name = "construct"

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        rng = self.rng
        self.seeds = [self.seed_arg() for _ in range(8)]
        self.gens = {"n4": _gens(rng, 4, 1), "n5e1": _gens(rng, 5, 1),
                     "n5e2": _gens(rng, 5, 2), "n6": _gens(rng, 6, 1)}
        self.xi = rng.choice(R4_PARAMS)
        self.zeta = rng.choice(R5_PARAMS)

    def ops(self, i):
        s, sd, g = self.scale, self.seeds, self.gens

        def dirichlet(name, n, j, qmax, seed):
            return Op(name, ("dirichlet", "--target", "random:2", "--n", str(n),
                             "--seed", seed, "--j", str(j), "--qmax", str(qmax)))

        def goingup(name, n, gens, budget, seed):
            return Op(name, ("goingup", "--target", "random:2", "--n", str(n),
                             "--seed", seed, "--gens", gens, "--budget", str(budget)))

        return [
            dirichlet("dirichlet_sweep", 4, 1, s.qmax_sweep, sd[0]),
            dirichlet("dirichlet_lll", 4, 1, s.qmax_lll, sd[1]),
            dirichlet("dirichlet_n5_j2", 5, 2, s.qmax_sweep, sd[2]),
            goingup("goingup_n4", 4, g["n4"], s.budget, sd[3]),
            goingup("goingup_n5_e1", 5, g["n5e1"], s.budget, sd[4]),
            goingup("goingup_n5_e2", 5, g["n5e2"], s.budget, sd[5]),
            goingup("goingup_n6", 6, g["n6"], s.n6_budget, sd[6]),
            Op("witness_r4_mod4", ("witness", "r4", "--xi", self.xi, "--mod4",
                                   "--search-bound", str(s.r4_search))),
            Op("witness_r5_residuals", ("witness", "r5", "--zeta3", self.zeta,
                                        "--residuals", "--search-bound", str(s.r5_search))),
            Op("props", ("props", "--seed", sd[7])),
        ]


WORKLOADS = {w.name: w for w in (ColdScan, WarmCertify, Construct)}


# ------------------------------------------------------------------ checks

# Expected outcome of every op: its exit code and the checks beyond the ones
# every op gets (exit code, same output on every pass, digest at DEFAULT_SEED).
EXPECT = {
    "scan_r4_cold": (0, ("scanned_4_2", "cache_complete")),
    "scan_5_3_cold": (0, ("cache_complete", "dual_of_5_2")),
    "setup_scan_r4": (0, ("scanned_4_2", "cache_complete")),
    "setup_scan_5_2": (0, ("cache_complete",)),
    "warm_scan_r4_j1": (0, ("scanned_4_2", "same_as_setup")),
    "warm_scan_r4_j2": (0, ("scanned_4_2",)),
    "warm_scan_random_4": (0, ("scanned_4_2",)),
    "lower_bound_r4": (0, ("certificate_passed",)),
    "warm_scan_5_2": (0, ()),
    # the known R^5 rational hit: a failed certificate is the right answer
    "lower_bound_r5": (2, ("rational_hit",)),
    "dirichlet_sweep": (0, ("has_rows",)),
    "dirichlet_lll": (0, ("has_rows",)),
    "dirichlet_n5_j2": (0, ("has_rows",)),
    "goingup_n4": (0, ("contained",)),
    "goingup_n5_e1": (0, ("contained",)),
    "goingup_n5_e2": (0, ("contained",)),
    "goingup_n6": (0, ("contained",)),
    "witness_r4_mod4": (0, ("certificate_passed",)),
    "witness_r5_residuals": (0, ("certificate_passed",)),
    "props": (0, ("props_all_pass",)),
}
SAME_AS_SETUP = {"warm_scan_r4_j1": "setup_scan_r4"}

_SCANNED = re.compile(r"scanned=(\d+)")


def _scanned(out):
    m = _SCANNED.search(out)
    return int(m.group(1)) if m else None


def _cache_rows(path):
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    return lines[-1] if lines else "", [ln for ln in lines if not ln.startswith("#")]


def dual_keys(n, e, height_max):
    """Cache keys of the (n, n-e) subspaces, as Hodge duals of the (n, e) ones.

    The complement of the i-th e-subset is the (N-1-i)-th (n-e)-subset, so
    the dual Plucker vector is the reversed one twisted by Laplace signs.
    """
    P = enumerate_subspaces(n, e, height_max).pluckers
    eps = np.array([laplace_sign(s) for s in subsets(n, n - e)], dtype=np.int64)
    D = P[:, ::-1] * eps
    lead = D[np.arange(len(D)), np.argmax(D != 0, axis=1)]
    D = D * np.sign(lead)[:, None]
    return {"%d %d : %s" % (n, n - e, " ".join(map(str, row))) for row in D.tolist()}


class Checker:
    """Applies EXPECT to op results; oracles are computed once per height."""

    def __init__(self, digests: dict | None = None):
        self.digests = digests or {}
        self._memo = {}

    def _oracle(self, key, fn):
        if key not in self._memo:
            self._memo[key] = fn()
        return self._memo[key]

    def failures(self, res: OpResult, first: dict, setup: dict) -> list[str]:
        op = res.op
        if op.name not in EXPECT:
            return ["no expected outcome for op %s" % op.name]
        code, extra = EXPECT[op.name]
        bad = []
        if res.code != code:
            bad.append("exit %r, expected %d" % (res.code, code))
        if res.error and res.code is None:
            bad.append("raised: %s" % res.error.strip().splitlines()[-1])
        if first[op.name].out != res.out:
            bad.append("output differs from the first run of this op")
        want = self.digests.get(op.name)
        if want is not None and want != res.digest:
            bad.append("digest %s, recorded %s" % (res.digest[:12], want[:12]))
        for name in extra:
            try:
                msg = getattr(self, "check_" + name)(res, setup)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                msg = "%s: %s" % (type(exc).__name__, exc)
            if msg:
                bad.append("%s: %s" % (name, msg))
        return bad

    def check_scanned_4_2(self, res, setup):
        want = self._oracle(("count42", res.op.hmax),
                            lambda: plucker_sweep_count_4_2(res.op.hmax))
        got = _scanned(res.out)
        return None if got == want else "scanned=%s, quadric count %d" % (got, want)

    def check_cache_complete(self, res, setup):
        last, rows = _cache_rows(res.op.cache)
        if last != "# end":
            return "cache does not end in '# end'"
        if len(rows) != _scanned(res.out):
            return "cache has %d rows, scan reports %s" % (len(rows), _scanned(res.out))
        return None

    def check_dual_of_5_2(self, res, setup):
        want = self._oracle(("dual52", res.op.hmax), lambda: dual_keys(5, 2, res.op.hmax))
        got = set(_cache_rows(res.op.cache)[1])
        return None if got == want else "%d rows, %d in the dual of (5,2)" % (len(got), len(want))

    def check_same_as_setup(self, res, setup):
        ref = setup.get(SAME_AS_SETUP[res.op.name])
        return None if ref is not None and ref.out == res.out else "differs from the set-up scan"

    def check_rational_hit(self, res, setup):
        lb = json.loads(res.out)["lower_bound"]
        return None if lb["rational_target"] is True else "no rational_target: true"

    def check_certificate_passed(self, res, setup):
        return None if json.loads(res.out)["passed"] is True else "passed is not true"

    def check_contained(self, res, setup):
        return None if json.loads(res.out)["contained"] is True else "B is not in C"

    def check_has_rows(self, res, setup):
        rows = [ln for ln in res.out.splitlines() if ln and not ln.startswith(("#", "q,"))]
        return None if rows else "no approximant rows"

    def check_props_all_pass(self, res, setup):
        lines = res.out.splitlines()
        ok = lines and all(ln.split()[1] == "PASS" for ln in lines)
        return None if ok else "a property suite failed"


def check(results: list[OpResult], digests: dict | None = None) -> list[list[str]]:
    """The failed checks of each result, in run order.  Each op's output is
    compared with its first run; set-up scans with the last set-up run."""
    checker = Checker(digests)
    setup = {r.op.name: r for r in results if r.phase.startswith("setup")}
    first = {}
    for r in results:
        first.setdefault(r.op.name, r)
    return [checker.failures(r, first, setup) for r in results]
