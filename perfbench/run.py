"""Benchmark of the subapprox command line, one workload per run.

    python3 perfbench/run.py --workload cold_scan --seed 0 --seconds 30 --trace 0

Run it from the root of a source checkout: it imports the package from
``src/``.  One run is one fresh process that

1. sets up: times ``IMPORT_REPS`` child interpreters importing the package,
   then ``SETUP_REPS`` times generates the inputs from ``--seed`` and runs
   the workload's set-up ops (for ``warm_certify``, the caches, built by the
   program's own cold path); ``setup_s`` is the sum of the two medians;
2. runs the workload's op list in passes until ``--seconds`` have elapsed,
   and reports the median pass as ``wall_s`` and ``cpu_s``;
3. checks every op's outcome (see ``workloads.EXPECT``) after the timed phase.

With ``--trace 1`` the first half of the time runs untraced and the second
half with the spans of ``spans.py`` installed; the result then carries the
per-layer metrics instead of the end-to-end ones.  The last line of standard
output is the result; the line before it is a detail record (environment,
per-pass times, failed checks, layer shares), also written to
``.bench_work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

# Set before numpy is first imported.  One thread per BLAS/OpenMP pool: the
# ops run with --workers 1, and on a small machine idle pool threads would
# burn cores without shortening wall time.  No transparent huge pages for
# numpy arrays: whether the kernel has a huge page free at that moment would
# otherwise move peak_rss_mb by ~13% between runs of the same code.
PINNED = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                           "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
PINNED["NUMPY_MADVISE_HUGEPAGE"] = "0"
os.environ.update(PINNED)

HERE = os.path.dirname(os.path.abspath(__file__))
IMPORT_REPS = 5
SETUP_REPS = 3


def import_seconds(root: str, src: str) -> float:
    """Wall time of a fresh interpreter importing the package."""
    env = dict(os.environ, PYTHONPATH=src)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import subapprox.cli"], env=env, cwd=root, check=True)
    return time.perf_counter() - t0


def environment(root: str, src: str, seed: int) -> dict:
    import mpmath
    import numpy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src_hash = hashlib.sha256()
    pkg = os.path.join(src, "subapprox")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src_hash.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "seed": seed,
        "pinned_env": PINNED,
    }


def run_passes(wl, run_op, budget: float, first: int, results: list, tracer=None):
    """Run the op list in passes until ``budget`` seconds have elapsed (at
    least one pass).  Returns per-pass wall, CPU and traced spans."""
    walls, cpus, traced = [], [], []
    t_end = time.perf_counter() + budget
    i = first
    while True:
        phase = "pass%d" % i
        ops = wl.ops(i)
        t0 = time.perf_counter()
        for op in ops:
            if tracer is not None:
                tracer.op = "%s/%s" % (phase, op.name)
            results.append(run_op(op, phase))
        walls.append(time.perf_counter() - t0)
        cpus.append(sum(r.cpu for r in results[-len(ops):]))
        if tracer is not None:
            traced.append(tracer.take())
        i += 1
        if time.perf_counter() >= t_end:
            return walls, cpus, traced


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "bytes"
    if name.endswith(("ratio", "yield", "per_subspace")):
        return "ratio"
    return "count"


def main(argv=None, root=None, scale=None) -> int:
    """``root`` (default: the working directory) is the checkout; ``scale``
    (default: workloads.FULL) lets the benchmark's tests run tiny inputs."""
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = root or os.getcwd()
    src = os.path.join(root, "src")
    work = os.path.join(root, ".bench_work")
    if not os.path.isfile(os.path.join(src, "subapprox", "cli.py")):
        sys.stderr.write("perfbench: no package sources at %s; run from the root of a "
                         "subapprox checkout\n" % os.path.join(src, "subapprox"))
        return 2
    sys.path.insert(0, src)
    import spans
    import workloads

    scale = scale or workloads.FULL
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write("perfbench: unknown workload %r (have %s)\n"
                         % (args.workload, ", ".join(workloads.WORKLOADS)))
        return 2
    if not os.path.abspath(workloads.cli.__file__).startswith(src + os.sep):
        sys.stderr.write("perfbench: imported %s, not the checkout's\n" % workloads.cli.__file__)
        return 2

    tag = "%s-s%d-t%d" % (args.workload, args.seed, args.trace)
    workdir = os.path.join(work, "%s-%d" % (tag, os.getpid()))
    os.makedirs(workdir)
    results: list = []
    import_times = [import_seconds(root, src) for _ in range(IMPORT_REPS)]
    prep_times = []
    for rep in range(SETUP_REPS):
        t0 = time.perf_counter()
        wl = workloads.WORKLOADS[args.workload](args.seed, scale, workdir)
        for op in wl.setup_ops(rep):
            results.append(workloads.run_op(op, "setup%d" % rep))
        prep_times.append(time.perf_counter() - t0)

    trace_passes = []
    if args.trace:
        walls, cpus, _ = run_passes(wl, workloads.run_op, args.seconds / 2, 0, results)
        tracer = spans.Tracer()
        restore = spans.install(tracer)
        try:
            t_walls, _, trace_passes = run_passes(
                wl, workloads.run_op, args.seconds / 2, len(walls), results, tracer)
        finally:
            restore()
    else:
        walls, cpus, _ = run_passes(wl, workloads.run_op, args.seconds, 0, results)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    digests = None
    if args.seed == workloads.DEFAULT_SEED and scale == workloads.FULL:
        with open(os.path.join(HERE, "digests.json")) as fh:
            digests = json.load(fh).get(args.workload)
    failures = workloads.check(results, digests)
    failed = sum(1 for f in failures if f)
    shutil.rmtree(workdir)

    op_times = {}
    for r in results:
        if r.phase.startswith("pass"):
            op_times.setdefault(r.op.name, []).append([r.wall, r.cpu])
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(root, src, args.seed),
        "import_s": import_times,
        "prep_s": prep_times,
        "pass_wall_s": walls,
        "pass_cpu_s": cpus,
        "fail_ratio": failed / len(results),
        "failures": [{"op": r.op.name, "phase": r.phase, "checks": f}
                     for r, f in zip(results, failures) if f],
        "op_wall_cpu_s": op_times,
        "digests": {r.op.name: r.digest for r in results},
    }
    if args.trace:
        per_pass = []
        for k, sp in enumerate(trace_passes):
            phase = "pass%d" % (len(walls) + k)
            out_bytes = sum(len(r.out.encode()) for r in results if r.phase == phase)
            per_pass.append(spans.layer_metrics(sp, out_bytes))
        layer = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        layer["trace.overhead_s"] = statistics.median(t_walls) - statistics.median(walls)
        metrics = {name: _metric(v, _unit(name)) for name, v in layer.items()}
        detail["traced_pass_wall_s"] = t_walls
        detail["layer_self_share"] = {
            mod: statistics.median(spans.layer_self_seconds(sp).get(mod, 0.0) / w
                                   for sp, w in zip(trace_passes, t_walls))
            for mod in sorted({s[spans.NAME].split(".")[0] for sp in trace_passes for s in sp})}
        detail["metric_share"] = {
            name: statistics.median(m[name] / w for m, w in zip(per_pass, t_walls))
            for name in per_pass[0] if name.endswith("_s") and not name.startswith("cli.")}
        spans.write_spans(os.path.join(work, "spans-%s.json" % tag), trace_passes)
    else:
        metrics = {
            "wall_s": _metric(statistics.median(walls), "s"),
            "setup_s": _metric(statistics.median(import_times) + statistics.median(prep_times),
                               "s"),
            "cpu_s": _metric(statistics.median(cpus), "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
    with open(os.path.join(work, "result-%s.json" % tag), "w") as fh:
        json.dump({"detail": detail, "metrics": metrics}, fh, indent=1)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": len(results), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
