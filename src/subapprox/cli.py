"""Batch experiment driver.

Subcommands: height, scan, witness, dirichlet, goingup, props.
Exit codes: 0 success, 2 certificate failure, 3 bad input (parse errors,
refused arguments, precision failures; mapped in :func:`main` only),
4 truncated-but-partial output.
All randomness flows from --seed, and reals are printed with enough digits
to round-trip at the working precision, so identical (config, seed) runs
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from fractions import Fraction

from mpmath import mp

from . import __version__
from .angles import PrecisionError, RealSubspace, canonical_angles, phi_via_det
from .dirichlet import build_approximant, flag_basis, going_up_search, simultaneous_approx
from .enumeration import enumerate_subspaces, estimate_exponent, scan_target
from .exact import gram_det_sq
from .grassmann import from_generators, from_plucker, parse_key, real_view
from .witness import (
    lower_bound_check,
    r4_irrationality_certificate,
    r5_plucker_coords,
    r5_relation_residuals,
    r5_trivial_solution_search,
    witness_r4,
    witness_r4_spec,
    witness_r5,
)

EXIT_OK = 0
EXIT_CERT = 2
EXIT_PARSE = 3
EXIT_TRUNCATED = 4


class ParseError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # bad flags are parse errors, not cert failures
        self.exit(EXIT_PARSE, "%s: error: %s\n" % (self.prog, message))


def _digits(prec: int) -> int:
    return int(prec * 0.30103) + 3


def fmt_mpf(x, prec: int) -> str:
    with mp.workprec(prec):
        return mp.nstr(mp.mpf(x), _digits(prec), strip_zeros=True)


def parse_gens(text: str):
    """Parse `a b c; d e f` into rows of exact rationals, with positions in errors."""
    rows = []
    for i, chunk in enumerate(text.split(";")):
        row = []
        for j, tok in enumerate(chunk.split()):
            try:
                row.append(Fraction(tok))
            except (ValueError, ZeroDivisionError):
                raise ParseError("bad entry %r at row %d, column %d" % (tok, i + 1, j + 1))
        if row:
            rows.append(row)
    if not rows:
        raise ParseError("no generator rows in %r" % text)
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ParseError("rows have different lengths: %s" % sorted(widths))
    return rows


def parse_target(spec: str, *, n: int | None, d: int | None, prec: int, seed: int):
    """Named witnesses (`r4:sqrt2`, `r5:<z>`), explicit generators
    (`gens:...`), or seeded random subspaces (`random:<d>`).

    Returns (RealSubspace, label, is_rational_gens).
    """
    kind, _, arg = spec.partition(":")
    if kind == "r4":
        tok = arg or "sqrt2"
        return witness_r4(tok, precision_bits=prec), "r4:%s" % tok, False
    if kind == "r5":
        tok = arg or "sqrt3+1/4"
        _, sub = witness_r5(tok, precision_bits=prec)
        return sub, "r5:%s" % tok, False
    if kind == "gens":
        return RealSubspace.from_vectors(parse_gens(arg), precision_bits=prec), "gens", True
    if kind == "random":
        try:
            dd = int(arg) if arg else d
        except ValueError:
            raise ParseError("bad random target dimension %r" % arg)
        if n is None or dd is None:
            raise ParseError("random targets need --n and a dimension")
        rng = random.Random(seed)
        vecs = [[rng.gauss(0, 1) for _ in range(n)] for _ in range(dd)]
        return RealSubspace.from_vectors(vecs, precision_bits=prec), "random:%d" % dd, False
    raise ParseError("unknown target spec %r" % spec)


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ------------------------------------------------------------------- height

def cmd_height(args) -> int:
    if args.gens:
        b = from_generators(parse_gens(args.gens))
    elif args.plucker:
        b = from_plucker(parse_key(args.plucker))
    else:
        raise ParseError("height needs --gens or --plucker")
    with mp.workprec(64):
        height = mp.sqrt(b.height_sq)
    payload = {
        "n": b.n,
        "e": b.e,
        "height_sq": b.height_sq,
        "height": fmt_mpf(height, 64),
        "plucker": b.key,
        "lattice_basis": [list(v) for v in b.basis_vectors()],
        "gram_det_sq": gram_det_sq(b.lattice_basis),
    }
    if args.format == "json":
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    else:
        lines = ["height_sq %d" % payload["height_sq"],
                 "plucker   %s" % payload["plucker"]]
        lines += ["basis     %s" % " ".join(map(str, v)) for v in b.basis_vectors()]
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# --------------------------------------------------------------------- scan

def cmd_scan(args) -> int:
    target, label, _ = parse_target(args.target, n=args.n, d=args.d,
                                    prec=args.prec, seed=args.seed)
    n, d = target.n, target.dim
    if d + args.e > n:
        raise ParseError("need d + e <= n (got d=%d e=%d n=%d)" % (d, args.e, n))
    if not (1 <= args.j <= min(d, args.e)):
        raise ParseError("need 1 <= j <= min(d, e)")
    if args.prec < 64:
        raise ParseError("precision must be >= 64 bits")
    enum = enumerate_subspaces(n, args.e, args.hmax, cache_path=args.cache,
                               workers=args.workers, max_pairs=args.max_pairs)
    res = scan_target(target, args.e, args.j, args.hmax, enumeration=enum,
                      precision_bits=args.prec)
    prec = args.prec
    lines = [
        "# scan n=%d d=%d e=%d j=%d hmax=%s prec=%d seed=%d target=%s"
        % (n, d, args.e, args.j, args.hmax, prec, args.seed, label),
        "# truncated=%s rational_target=%s scanned=%d"
        % (str(res.truncated).lower(), str(res.rational_target).lower(), res.scanned),
        "height,psi_j,phi,key",
    ]
    for r in res.records:
        lines.append("%s,%s,%s,%s" % (fmt_mpf(r.height, prec), fmt_mpf(r.psi_j, prec),
                                      fmt_mpf(r.phi, prec), r.subspace_key))
    positive = [r for r in res.records if float(r.psi_j) > 0]
    if len({float(r.height) for r in positive}) >= 2:
        est = estimate_exponent(positive)
        lines.append("# beta_hat=%.6f fit_residual=%.6f" % (est.beta_hat, est.fit_residual))
    _emit("\n".join(lines) + "\n", args.out)
    if res.truncated:
        return EXIT_TRUNCATED
    return EXIT_OK


# ------------------------------------------------------------------ witness

def cmd_witness(args) -> int:
    prec = args.prec
    report: dict = {"kind": args.kind, "precision_bits": prec}
    passed = True
    if args.kind == "r4":
        tok = args.xi
        report["param"] = tok
        spec4 = witness_r4_spec(tok, precision_bits=prec)
        sub = witness_r4(tok, precision_bits=prec)
        report["spanning_vectors"] = [[fmt_mpf(x, prec) for x in v]
                                      for v in spec4.derived]
        if args.mod4 or args.search_bound:
            cert = r4_irrationality_certificate(args.search_bound or 50)
            report["irrationality"] = cert
            passed = passed and cert["passed"]
    else:
        tok = args.zeta3
        report["param"] = tok
        spec, sub = witness_r5(tok, precision_bits=prec)
        if args.residuals:
            res = r5_relation_residuals(r5_plucker_coords(tok, prec),
                                        precision_bits=4 * prec)
            with mp.workprec(4 * prec):
                tol = mp.mpf(2) ** (-prec + 16) * max(
                    mp.mpf(1), max(abs(c) for c in spec.derived) ** 2)
                ok = max(abs(r) for r in res) <= tol
            report["residuals"] = {
                "values": [fmt_mpf(r, prec) for r in res],
                "tolerance": fmt_mpf(tol, prec),
                "annihilator_residual": fmt_mpf(spec.annihilator_residual, prec),
                "passed": bool(ok),
            }
            passed = passed and ok
        if args.search_bound:
            cert = r5_trivial_solution_search(args.search_bound)
            report["trivial_solutions"] = cert
            passed = passed and cert["passed"]
    if args.lower_bound:
        e = sub.n - sub.dim
        enum = enumerate_subspaces(sub.n, e, args.hmax, cache_path=args.cache,
                                   workers=args.workers)
        rep = lower_bound_check(sub, e, args.exponent, args.hmax,
                                enumeration=enum, claimed_c=args.claimed_c,
                                precision_bits=prec)
        report["lower_bound"] = {
            "exponent": rep.exponent,
            "count": rep.count,
            "c_min": fmt_mpf(rep.c_min, prec),
            "claimed_c": rep.claimed_c,
            "argmin": rep.argmin_key,
            "quantiles": {str(k): v for k, v in rep.quantiles.items()},
            "truncated": rep.truncated,
            "rational_target": rep.rational_target,
            "passed": rep.passed(),
        }
        passed = passed and rep.passed()
    report["passed"] = bool(passed)
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK if passed else EXIT_CERT


# ---------------------------------------------------------------- dirichlet

def cmd_dirichlet(args) -> int:
    target, label, _ = parse_target(args.target, n=args.n, d=args.d,
                                    prec=args.prec, seed=args.seed)
    j = args.j
    fb = flag_basis(target, j)
    x = fb.approximation_vector()
    big_n = fb.total_retained
    expo = (big_n + 1) / (j * big_n)
    approx = simultaneous_approx(x, args.qmax, precision_bits=args.prec)
    lines = [
        "# dirichlet n=%d d=%d j=%d N=%d qmax=%d prec=%d seed=%d target=%s"
        % (target.n, target.dim, j, big_n, args.qmax, args.prec, args.seed, label),
        "q,height,psi_j,bound_ratio",
    ]
    skipped = 0
    ratios = []
    prec = args.prec
    stop = False
    for rec in approx:
        b = build_approximant(fb, rec)
        if b is None:
            skipped += 1
            continue
        with mp.workprec(prec):
            prof = canonical_angles(target, real_view(b, prec), precision_bits=prec)
            psi = prof.sines[j - 1]
            h = mp.sqrt(mp.mpf(b.height_sq))
            ratio = psi * h ** mp.mpf(expo)
        if float(psi) < 2.0 ** (-(prec // 2)):
            lines.append("%d,%s,%s,%s" % (rec.q, fmt_mpf(h, prec), fmt_mpf(0, prec),
                                          fmt_mpf(0, prec)))
            stop = True
            break
        ratios.append(float(ratio))
        lines.append("%d,%s,%s,%s" % (rec.q, fmt_mpf(h, prec), fmt_mpf(psi, prec),
                                      fmt_mpf(ratio, prec)))
    c7 = max(ratios) if ratios else 0.0
    lines.append("# c7_fit=%.9g skipped_degenerate=%d exponent=%.6f rational_stop=%s"
                 % (c7, skipped, expo, str(stop).lower()))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# ------------------------------------------------------------------ goingup

def cmd_goingup(args) -> int:
    target, label, _ = parse_target(args.target, n=args.n, d=args.d,
                                    prec=args.prec, seed=args.seed)
    b = from_generators(parse_gens(args.gens))
    res = going_up_search(target, b, args.j, budget=args.budget, weight=args.weight,
                          precision_bits=args.prec)
    prec = args.prec
    n, e = b.n, b.e
    payload = {
        "target": label,
        "b": b.key,
        "c": res.c.key,
        "h_b": fmt_mpf(mp.sqrt(b.height_sq), prec),
        "h_c": fmt_mpf(mp.sqrt(res.c.height_sq), prec),
        "exponent": (n - e - 1) / (n - e),
        "height_ratio": res.height_ratio,
        "psi_before": fmt_mpf(res.psi_before, prec),
        "psi_after": fmt_mpf(res.psi_after, prec),
        "contained": res.contained,
        "candidates": res.candidates,
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK if res.contained else EXIT_CERT


# -------------------------------------------------------------------- props

def cmd_props(args) -> int:
    """Quick randomized property suites over the library invariants."""
    rng = random.Random(args.seed)
    prec = args.prec
    failures = 0

    def report(name, ok, detail=""):
        nonlocal failures
        line = "%-34s %s" % (name, "PASS" if ok else "FAIL")
        if detail:
            line += "  " + detail
        print(line)
        if not ok:
            failures += 1

    # height identity: |wedge|^2 == det(M^t M)
    ok = True
    for _ in range(40):
        n = rng.randint(2, 6)
        e = rng.randint(1, min(3, n))
        gens = [tuple(rng.randint(-20, 20) for _ in range(n)) for _ in range(e)]
        try:
            b = from_generators(gens)
        except ValueError:
            continue
        ok &= b.height_sq == gram_det_sq(b.lattice_basis)
    report("height-identity", ok)

    # psi_j >= phi^(1/j)
    ok = True
    for _ in range(60):
        n = rng.randint(2, 6)
        d = rng.randint(1, n - 1)
        e = rng.randint(1, n - d)
        a = RealSubspace.from_vectors(
            [[rng.gauss(0, 1) for _ in range(n)] for _ in range(d)], precision_bits=prec)
        bb = RealSubspace.from_vectors(
            [[rng.gauss(0, 1) for _ in range(n)] for _ in range(e)], precision_bits=prec)
        prof = canonical_angles(a, bb)
        ph = float(prof.phi)
        ok &= all(float(s) >= ph ** (1.0 / (i + 1)) - 1e-12 for i, s in enumerate(prof.sines))
    report("profile-lower-bound", ok)

    # phi via determinant route
    ok = True
    for _ in range(30):
        n = rng.randint(2, 5)
        e = rng.randint(1, n - 1)
        a = RealSubspace.from_vectors(
            [[rng.gauss(0, 1) for _ in range(n)] for _ in range(n - e)], precision_bits=prec)
        gens = [tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(e)]
        try:
            b = from_generators(gens)
        except ValueError:
            continue
        p1 = canonical_angles(a, real_view(b, prec)).phi
        p2 = phi_via_det(a, b.lattice_basis)
        with mp.workprec(prec):
            ok &= abs(p1 - p2) < mp.mpf("1e-20")
    report("phi-det-crosscheck", ok)

    # chord bound
    from .dirichlet import unit_chord_bound

    ok = True
    for _ in range(50):
        v = [rng.gauss(0, 1) for _ in range(4)]
        w = [rng.gauss(0, 1) for _ in range(4)]
        nv = math.sqrt(sum(x * x for x in v))
        nw = math.sqrt(sum(x * x for x in w))
        v = [x / nv for x in v]
        w = [x / nw for x in w]
        if sum(x * y for x, y in zip(v, w)) < 0:
            w = [-x for x in w]
        s, c = unit_chord_bound(v, w, precision_bits=prec)
        ok &= float(s) >= math.sqrt(2) / 2 * float(c) - 1e-12
    report("unit-chord-bound", ok)

    # line decomposition sandwich
    from .dirichlet import line_decomposition

    ok = True
    for _ in range(30):
        d_sub = RealSubspace.from_vectors(
            [[rng.gauss(0, 1) for _ in range(4)] for _ in range(2)], precision_bits=prec)
        e_sub = RealSubspace.from_vectors(
            [[rng.gauss(0, 1) for _ in range(4)] for _ in range(2)], precision_bits=prec)
        res = line_decomposition(d_sub, e_sub)
        ok &= float(res.psi_k) <= float(res.sum_lines) + 1e-20
        ok &= float(res.sum_lines) <= 2 * float(res.psi_k) + 1e-20
    report("line-sandwich", ok)

    return EXIT_OK if failures == 0 else EXIT_CERT


# --------------------------------------------------------------------- main

def build_parser() -> _Parser:
    p = _Parser(prog="subapprox",
                description="heights, Plucker coordinates and canonical-angle "
                            "proximities of rational subspaces")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, target=True):
        sp.add_argument("--n", type=int, default=None)
        sp.add_argument("--d", type=int, default=None)
        sp.add_argument("--prec", type=int, default=128)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default=None)
        if target:
            sp.add_argument("--target", required=True,
                            help="r4[:xi] | r5[:zeta3] | gens:<rows> | random:<d>")

    sp = sub.add_parser("height", help="height and Plucker data of a rational subspace")
    sp.add_argument("--gens", default=None, help="rows `a b c; d e f` (rationals allowed)")
    sp.add_argument("--plucker", default=None, help="canonical key `n e : p_1 ... p_N`")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_height)

    sp = sub.add_parser("scan", help="record sequence of a target over an enumeration")
    common(sp)
    sp.add_argument("--e", type=int, required=True)
    sp.add_argument("--j", type=int, default=1)
    sp.add_argument("--hmax", type=float, required=True)
    sp.add_argument("--cache", default=None)
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--max-pairs", type=int, default=None)
    sp.add_argument("--format", choices=("csv",), default="csv")
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("witness", help="witness certificates")
    sp.add_argument("kind", choices=("r4", "r5"))
    sp.add_argument("--xi", default="sqrt2")
    sp.add_argument("--zeta3", default="sqrt3+1/4")
    sp.add_argument("--prec", type=int, default=128)
    sp.add_argument("--mod4", action="store_true", help="emit the mod-4 table certificate")
    sp.add_argument("--search-bound", type=int, default=None)
    sp.add_argument("--residuals", action="store_true")
    sp.add_argument("--lower-bound", action="store_true")
    sp.add_argument("--exponent", type=float, default=3.0)
    sp.add_argument("--claimed-c", type=float, default=None,
                    help="assert min phi H^exponent >= this constant")
    sp.add_argument("--hmax", type=float, default=5.0)
    sp.add_argument("--cache", default=None)
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_witness)

    sp = sub.add_parser("dirichlet", help="approximant sequence from the flag construction")
    common(sp)
    sp.add_argument("--j", type=int, default=1)
    sp.add_argument("--qmax", type=int, default=10_000)
    sp.set_defaults(func=cmd_dirichlet)

    sp = sub.add_parser("goingup", help="extend a rational subspace by one dimension")
    common(sp)
    sp.add_argument("--gens", required=True, help="basis rows of B")
    sp.add_argument("--j", type=int, default=1)
    sp.add_argument("--budget", type=int, default=2)
    sp.add_argument("--weight", type=float, default=1.0)
    sp.set_defaults(func=cmd_goingup)

    sp = sub.add_parser("props", help="run the randomized property suites")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--prec", type=int, default=128)
    sp.set_defaults(func=cmd_props)
    return p


def main(argv=None) -> int:
    """Run one subcommand; bad input of any kind (a ParseError, which is a
    ValueError, or a PrecisionError) is reported on one line and exits 3."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, PrecisionError) as exc:
        sys.stderr.write("%s: %s\n" % ("parse error" if isinstance(exc, ParseError) else "error", exc))
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
