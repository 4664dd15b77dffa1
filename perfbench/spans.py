"""Outside-in tracing of subapprox: spans recorded around calls into the
layers' public functions, and the per-layer metrics derived from them.

Nothing under ``src/`` is changed.  ``install`` replaces each traced function
in every ``subapprox`` module that bound it by name (``from .x import f``),
so a call is traced wherever the calling module looks the name up, and
returns a function that puts the originals back.  Spans stay in memory and
are written out once, when the run ends.

The benchmark runs every op with ``--workers 1``, so all spans of a run come
from one thread and nest properly.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

# (module, attribute) of each traced function, and the span name it records.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "cmd_scan", "cli.scan"),
    ("cli", "cmd_witness", "cli.witness"),
    ("cli", "cmd_dirichlet", "cli.dirichlet"),
    ("cli", "cmd_goingup", "cli.goingup"),
    ("cli", "cmd_props", "cli.props"),
    ("enumeration", "enumerate_subspaces", "enumeration.enumerate_subspaces"),
    ("enumeration", "scan_target", "enumeration.scan_target"),
    ("angles", "canonical_angles", "angles.canonical_angles"),
    ("angles", "RealSubspace.from_vectors", "angles.from_vectors"),
    ("grassmann", "from_plucker", "grassmann.from_plucker"),
    ("grassmann", "real_view", "grassmann.real_view"),
    ("exact", "wedge_plucker", "exact.wedge_plucker"),
    ("witness", "lower_bound_check", "witness.lower_bound_check"),
    ("witness", "witness_r5", "witness.witness_r5"),
    ("witness", "r4_irrationality_certificate", "witness.r4_irrationality_certificate"),
    ("witness", "r5_trivial_solution_search", "witness.r5_trivial_solution_search"),
    ("dirichlet", "going_up_search", "dirichlet.going_up_search"),
    ("dirichlet", "simultaneous_approx", "dirichlet.simultaneous_approx"),
    ("dirichlet", "lll_reduce", "dirichlet.lll_reduce"),
    ("dirichlet", "flag_basis", "dirichlet.flag_basis"),
    ("dirichlet", "build_approximant", "dirichlet.build_approximant"),
)

# Span fields: [name, start, end, parent index or -1, op id, attributes]
NAME, START, END, PARENT, OP, ATTRS = range(6)


def _file_size(path):
    return os.path.getsize(path) if path and os.path.exists(path) else 0


def _note_enumeration_start(attrs, args, kwargs):
    """A call that finds its cache on disk loads it; every other call builds."""
    cache = kwargs.get("cache_path")
    attrs["loaded"] = bool(cache) and os.path.exists(cache)


def _note_enumeration(attrs, args, kwargs, result):
    attrs["subspaces"] = len(result)
    attrs["pairs"] = int(result.pair_count)
    attrs["cache_bytes"] = _file_size(kwargs.get("cache_path"))


def _note_scan(attrs, args, kwargs, result):
    attrs["records"] = len(result.records)


def _note_witness_r5(attrs, args, kwargs, result):
    spec, _ = result
    requested = kwargs.get("precision_bits", args[1] if len(args) > 1 else 128)
    attrs["escalated"] = int(spec.precision_bits > requested)


def _note_going_up(attrs, args, kwargs, result):
    attrs["candidates"] = int(result.candidates)


def _note_simultaneous(attrs, args, kwargs, result):
    attrs["approximants"] = len(result)


def _note_build_approximant(attrs, args, kwargs, result):
    attrs["degenerate"] = int(result is None)


ON_START = {"enumeration.enumerate_subspaces": _note_enumeration_start}
ON_RESULT = {
    "enumeration.enumerate_subspaces": _note_enumeration,
    "enumeration.scan_target": _note_scan,
    "witness.witness_r5": _note_witness_r5,
    "dirichlet.going_up_search": _note_going_up,
    "dirichlet.simultaneous_approx": _note_simultaneous,
    "dirichlet.build_approximant": _note_build_approximant,
}


class Tracer:
    """Records one span per traced call; ``op`` tags the spans of one op."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = None

    def wrap(self, name, fn):
        on_start = ON_START.get(name)
        on_result = ON_RESULT.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            attrs = {}
            if on_start:
                on_start(attrs, args, kwargs)
            span = [name, clock(), None, self._stack[-1] if self._stack else -1, self.op, attrs]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                self._stack.pop()
            if on_result:
                on_result(attrs, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def take(self) -> list[list]:
        """The spans recorded so far; recording goes on into a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def write_spans(path, passes):
    """One list of spans per traced pass; parents index into their own pass."""
    fields = ("name", "start", "end", "parent", "op", "attrs")
    with open(path, "w") as fh:
        json.dump([[dict(zip(fields, s)) for s in spans] for spans in passes], fh)


def install(tracer: Tracer):
    """Wrap every target in every loaded subapprox module; returns the undo."""
    modules = [m for k, m in sorted(sys.modules.items())
               if (k == "subapprox" or k.startswith("subapprox.")) and m is not None]
    undo = []
    for modname, attr, span_name in TARGETS:
        home = sys.modules["subapprox." + modname]
        if "." in attr:  # a classmethod: patch it on its class
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, classmethod(tracer.wrap(span_name, orig.__func__)))
            undo.append((cls, meth, orig))
            continue
        orig = getattr(home, attr)
        wrapped = tracer.wrap(span_name, orig)
        for mod in modules:
            if mod.__dict__.get(attr) is orig:
                setattr(mod, attr, wrapped)
                undo.append((mod, attr, orig))

    def restore():
        for owner, name, orig in reversed(undo):
            setattr(owner, name, orig)

    return restore


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its direct children's intervals."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s[START]
        for a, b in sorted(children.get(i, ())):
            a = max(a, reach)
            if b > a:
                covered += b - a
                reach = b
        out.append(s[END] - s[START] - covered)
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, output_bytes: int) -> dict:
    """Per-layer metrics of one pass of a workload, from that pass's spans.

    Every ``*_s`` metric is self time: the named calls' time minus the time
    spent in traced calls they made, so the layers' times add up to the
    traced part of the pass.  ``cli.<command>_s`` are the exception: they are
    inclusive per-command totals.
    """
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)

    def self_s(name, where=lambda s: True):
        return sum(selfs[i] for i in by_name[name] if where(spans[i]))

    def total_s(name):
        return sum(spans[i][END] - spans[i][START] for i in by_name[name])

    def attr_sum(name, key, where=lambda s: True):
        return sum(spans[i][ATTRS].get(key, 0) for i in by_name[name] if where(spans[i]))

    def calls_under(name, parent_name):
        return sum(1 for i in by_name[name]
                   if spans[i][PARENT] >= 0 and spans[spans[i][PARENT]][NAME] == parent_name)

    enum = "enumeration.enumerate_subspaces"
    loaded = lambda s: s[ATTRS]["loaded"]  # noqa: E731
    built = lambda s: not loaded(s)  # noqa: E731
    build_s = self_s(enum, built)
    load_s = self_s(enum, loaded)
    pairs = attr_sum(enum, "pairs", built)
    built_subspaces = attr_sum(enum, "subspaces", built)
    scan_refined = calls_under("angles.canonical_angles", "enumeration.scan_target")
    scan_records = attr_sum("enumeration.scan_target", "records")
    gu_candidates = attr_sum("dirichlet.going_up_search", "candidates")
    gu_refined = calls_under("angles.canonical_angles", "dirichlet.going_up_search")
    ca_calls = len(by_name["angles.canonical_angles"])
    ca_s = self_s("angles.canonical_angles")
    cli_spans = [n for n in by_name if n.startswith("cli.")]
    m = {
        "enumeration.build_s": build_s,
        "enumeration.pairs": pairs,
        "enumeration.subspaces": built_subspaces,
        "enumeration.pairs_per_subspace": _ratio(pairs, built_subspaces),
        "enumeration.build_subspaces_per_s": _ratio(built_subspaces, build_s),
        "enumeration.cache_bytes_written": attr_sum(enum, "cache_bytes", built),
        "enumeration.load_s": load_s,
        "enumeration.cache_bytes_read": attr_sum(enum, "cache_bytes", loaded),
        "enumeration.load_subspaces_per_s": _ratio(attr_sum(enum, "subspaces", loaded), load_s),
        "enumeration.scan_s": self_s("enumeration.scan_target"),
        "enumeration.scan_refined": scan_refined,
        "enumeration.scan_records": scan_records,
        "enumeration.scan_refine_yield": _ratio(scan_records, scan_refined),
        "witness.lower_bound_s": self_s("witness.lower_bound_check"),
        "witness.r5_build_s": self_s("witness.witness_r5"),
        "witness.r5_escalations": attr_sum("witness.witness_r5", "escalated"),
        "witness.r4_cert_s": self_s("witness.r4_irrationality_certificate"),
        "witness.r5_search_s": self_s("witness.r5_trivial_solution_search"),
        "angles.canonical_angles_calls": ca_calls,
        "angles.canonical_angles_s": ca_s,
        "angles.canonical_angles_us_per_call": _ratio(ca_s * 1e6, ca_calls),
        "angles.from_vectors_s": self_s("angles.from_vectors"),
        "grassmann.from_plucker_calls": len(by_name["grassmann.from_plucker"]),
        "grassmann.from_plucker_s": self_s("grassmann.from_plucker"),
        "grassmann.real_view_s": self_s("grassmann.real_view"),
        "exact.wedge_plucker_calls": len(by_name["exact.wedge_plucker"]),
        "exact.wedge_plucker_s": self_s("exact.wedge_plucker"),
        "dirichlet.going_up_s": self_s("dirichlet.going_up_search"),
        "dirichlet.goingup_candidates": gu_candidates,
        "dirichlet.goingup_refined": gu_refined,
        "dirichlet.goingup_refine_ratio": _ratio(gu_refined, gu_candidates),
        "dirichlet.simultaneous_approx_s": self_s("dirichlet.simultaneous_approx"),
        "dirichlet.lll_reduce_s": self_s("dirichlet.lll_reduce"),
        "dirichlet.flag_basis_s": self_s("dirichlet.flag_basis"),
        "dirichlet.build_approximant_s": self_s("dirichlet.build_approximant"),
        "dirichlet.approximants": attr_sum("dirichlet.simultaneous_approx", "approximants"),
        "dirichlet.degenerate_skipped": attr_sum("dirichlet.build_approximant", "degenerate"),
        "cli.scan_s": total_s("cli.scan"),
        "cli.witness_s": total_s("cli.witness"),
        "cli.dirichlet_s": total_s("cli.dirichlet"),
        "cli.goingup_s": total_s("cli.goingup"),
        "cli.props_s": total_s("cli.props"),
        "cli.self_s": sum(self_s(n) for n in cli_spans),
        "cli.output_bytes": output_bytes,
    }
    return m


def layer_self_seconds(spans) -> dict:
    """Self time summed per module (the prefix of the span name)."""
    out = defaultdict(float)
    for s, t in zip(spans, self_times(spans)):
        out[s[NAME].split(".")[0]] += t
    return dict(out)
