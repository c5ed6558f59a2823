"""Traced run: each layer's public functions called in-process, one span per call.

The spans are recorded by this file around the calls into each layer; the
program itself carries no tracing. A pass calls, for each chain of the
workload, in order: generate_bead_chain, write_graph, write_labels,
parse_graph, normalized_adjacency, spectrum_random_walk, ipr_curve,
histogram per rank, group_mass_table, sweep_cut per swept rank,
detect_transition, analyze and emit_report. All spans of one graph share its
id and sit under one `pipeline` span. Spans stay in memory until the run ends.

Untraced passes make the same calls with a tracer that records nothing; the
difference between traced and untraced pass times is the tracing overhead.
Passes alternate, untraced first, until the run's seconds are used up and
at least one of each has run.
"""
from __future__ import annotations

import itertools
import shutil
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import eigenloc.io as eio
from eigenloc.clustering import detect_transition, sweep_cut
from eigenloc.diagnostics import analyze, group_mass_table
from eigenloc.eigensolver import spectrum_random_walk
from eigenloc.localization import histogram, ipr_curve
from eigenloc.operators import DENSE_LIMIT, normalized_adjacency, random_walk
from eigenloc.twolevel import generate_bead_chain

from checks import eigenvalue_problem, reference_eigenvalues, report_digest, report_problems
from measure import run_child
from workloads import NBINS, RANKS, TAU, WINDOW, Workload, chain_doc

IMPORT_REPS = 5
WARMUP_CALLS = 8

UNITS = {
    "eigensolver.solve_s": "s",
    "eigensolver.first_call_s": "s",
    "eigensolver.columns_computed": "count",
    "eigensolver.useful_frac": "ratio",
    "eigensolver.max_residual": "norm",
    "io.parse_graph_s": "s",
    "io.emit_report_s": "s",
    "io.report_files": "count",
    "io.report_bytes": "B",
    "io.write_graph_s": "s",
    "io.write_labels_s": "s",
    "io.graph_bytes": "B",
    "twolevel.generate_s": "s",
    "twolevel.edges": "count",
    "operators.normalized_adjacency_s": "s",
    "operators.nnz": "count",
    "localization.ipr_curve_s": "s",
    "localization.histogram_s": "s",
    "clustering.sweep_cut_s": "s",
    "clustering.detect_transition_s": "s",
    "diagnostics.analyze_s": "s",
    "diagnostics.group_mass_table_s": "s",
    "diagnostics.analyze_self_s": "s",
    "cli.import_s": "s",
    "trace.overhead_s": "s",
}

# span name -> per-layer time metric (summed over the graph's spans of that name)
SPAN_METRICS = {
    "twolevel.generate_bead_chain": "twolevel.generate_s",
    "io.write_graph": "io.write_graph_s",
    "io.write_labels": "io.write_labels_s",
    "io.parse_graph": "io.parse_graph_s",
    "operators.normalized_adjacency": "operators.normalized_adjacency_s",
    "eigensolver.spectrum_random_walk": "eigensolver.solve_s",
    "localization.ipr_curve": "localization.ipr_curve_s",
    "localization.histogram": "localization.histogram_s",
    "diagnostics.group_mass_table": "diagnostics.group_mass_table_s",
    "clustering.sweep_cut": "clustering.sweep_cut_s",
    "clustering.detect_transition": "clustering.detect_transition_s",
    "diagnostics.analyze": "diagnostics.analyze_s",
    "io.emit_report": "io.emit_report_s",
}
# the public calls analyze makes; its self time is its span minus these
ANALYZE_PARTS = ("eigensolver.solve_s", "localization.ipr_curve_s", "localization.histogram_s",
                 "diagnostics.group_mass_table_s", "clustering.sweep_cut_s",
                 "clustering.detect_transition_s")


@dataclass
class Span:
    id: int
    graph: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, graph: int):
        s = Span(next(self._ids), graph, name, self._open[-1] if self._open else None,
                 time.perf_counter())
        self._open.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()
            self.spans.append(s)


class NullTracer:
    def span(self, name: str, graph: int):
        return nullcontext(SimpleNamespace(counts={}))


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its children cover (children never overlap)."""
    out = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def columns_computed(n: int, k: int) -> int:
    """Eigenvector columns the solver computes, from its path rule (not observed)."""
    return n if n <= DENSE_LIMIT or k >= n - 1 else k


def graph_pass(tr, gid: int, doc: dict, w: Workload, gdir: Path):
    """One graph through every layer; returns the parsed graph and its eigenbasis."""
    gdir.mkdir()
    mtx, labels = gdir / "graph.mtx", gdir / "graph.labels.csv"
    with tr.span("pipeline", gid):
        spec = eio.spec_from_json(doc)
        with tr.span("twolevel.generate_bead_chain", gid) as s:
            g = generate_bead_chain(spec)
        s.counts["edges"] = g.edge_count
        with tr.span("io.write_graph", gid) as s:
            eio.write_graph(g, mtx)
        s.counts["bytes"] = mtx.stat().st_size
        with tr.span("io.write_labels", gid):
            eio.write_labels(g, labels)
        with tr.span("io.parse_graph", gid):
            g = eio.parse_graph(mtx, labels)
        with tr.span("operators.normalized_adjacency", gid) as s:
            S = normalized_adjacency(g)
        s.counts["nnz"] = S.matrix.nnz
        with tr.span("eigensolver.spectrum_random_walk", gid) as s:
            basis = spectrum_random_walk(g, w.k)
        s.counts["columns_computed"] = columns_computed(g.n, w.k)
        s.counts["k"] = basis.k
        with tr.span("localization.ipr_curve", gid):
            curve = ipr_curve(basis)
        for j in range(basis.k):
            with tr.span("localization.histogram", gid):
                histogram(basis.vectors[:, j], NBINS)
        with tr.span("diagnostics.group_mass_table", gid):
            group_mass_table(basis, g.labels)
        for r in RANKS:
            with tr.span("clustering.sweep_cut", gid):
                sweep_cut(basis.vectors[:, r], g)
        with tr.span("clustering.detect_transition", gid):
            detect_transition(curve, WINDOW, TAU)
        with tr.span("diagnostics.analyze", gid):
            report = analyze(g, k=w.k, sweep_ranks=RANKS, window=WINDOW, tau=TAU, nbins=NBINS)
        with tr.span("io.emit_report", gid) as s:
            written = eio.emit_report(report, gdir / "report")
        s.counts["files"] = len(written)
        s.counts["bytes"] = sum(p.stat().st_size for p in written)
    return g, basis


def check_graph(g, basis, gdir: Path, w: Workload, c: int, seed: int, refs: dict,
                digests: dict) -> list[str]:
    """Report files and eigenvalues against the reference; report bytes across passes."""
    if c not in refs:
        refs[c] = reference_eigenvalues(gdir / "graph.mtx", w.k, seed)
    found = report_problems(gdir / "report", w.k, refs[c])
    problem = eigenvalue_problem(basis.lambdas, refs[c])
    found += [f"solver: {problem}"] if problem else []
    if not found:
        digest = report_digest(gdir / "report")
        if digests.setdefault(c, digest) != digest:
            found.append("report differs from the first pass (SHA-256)")
    return found


def max_residual(g, basis) -> float:
    """max_j ||P x_j - lambda_j x_j||, the quantity the solver bounds."""
    P = random_walk(g).matrix
    X = basis.vectors
    return float(np.max(np.linalg.norm(P @ X - X * basis.lambdas[None, :], axis=0)))


def blas_warmup() -> float:
    """Extra time of the first eigensolves in this process, on a tiny graph.

    Runs WARMUP_CALLS dense and ARPACK solves and returns their total minus
    WARMUP_CALLS times the steady cost, taken as the median of the last half.
    """
    tiny_chain = Workload("tiny", beads=2, module_size=30, couplings=(0.05,), k=10)
    tiny = generate_bead_chain(eio.spec_from_json(chain_doc(tiny_chain, 0.05, 0)))
    times = []
    for _ in range(WARMUP_CALLS):
        t = time.perf_counter()
        spectrum_random_walk(tiny, 10)
        spectrum_random_walk(tiny, 10, dense_limit=10)
        times.append(time.perf_counter() - t)
    steady = statistics.median(times[WARMUP_CALLS // 2:])
    return sum(times) - steady * len(times)


def import_cost(env: dict) -> float:
    """Median cold `import eigenloc.cli` child minus median bare interpreter child."""
    bare, full = [], []
    for _ in range(IMPORT_REPS):
        for argv, out in (([sys.executable, "-c", "pass"], bare),
                          ([sys.executable, "-c", "import eigenloc.cli"], full)):
            child = run_child(argv, env=env)
            if child.returncode != 0:
                raise RuntimeError(f"{argv} exited {child.returncode}")
            out.append(child.wall_s)
    return statistics.median(full) - statistics.median(bare)


def run_traced(w: Workload, docs: list[dict], seconds: float, work: Path, env: dict,
               seed: int) -> dict:
    first_call = blas_warmup()
    import_s = import_cost(env)
    tracer, null = Tracer(), NullTracer()
    refs, digests = {}, {}
    totals = {True: [], False: []}
    graph_metrics, problems = [], []
    attempted = failed = 0
    start = time.perf_counter()
    for p in itertools.count():
        if time.perf_counter() - start >= seconds and totals[True] and totals[False]:
            break
        traced = p % 2 == 1
        t_pass = 0.0
        for c, doc in enumerate(docs):
            gid = p * len(docs) + c
            gdir = work / f"g{gid}"
            attempted += 1
            t0 = time.perf_counter()
            try:
                g, basis = graph_pass(tracer if traced else null, gid, doc, w, gdir)
                t_pass += time.perf_counter() - t0
                found = check_graph(g, basis, gdir, w, c, seed, refs, digests)
            except Exception:  # keep running: the failure is counted and reported
                found = [traceback.format_exc(limit=3)]
            if found:
                failed += 1
                problems += [f"graph {gid}: {x}" for x in found]
            elif traced:
                m = layer_metrics(tracer.spans, gid)
                m["eigensolver.max_residual"] = max_residual(g, basis)
                graph_metrics.append(m)
            shutil.rmtree(gdir, ignore_errors=True)
        totals[traced].append(t_pass)

    per_graph = {
        name: statistics.median(m[name] for m in graph_metrics)
        for name in graph_metrics[0]
    } if graph_metrics else {}
    overhead = (statistics.median(totals[True]) - statistics.median(totals[False])) / len(docs)
    metrics = {name: {"median": v, "n": len(graph_metrics), "tail": None}
               for name, v in per_graph.items()}
    metrics["eigensolver.first_call_s"] = {"median": first_call, "n": 1, "tail": None}
    metrics["cli.import_s"] = {"median": import_s, "n": IMPORT_REPS, "tail": None}
    metrics["trace.overhead_s"] = {"median": overhead, "n": min(map(len, totals.values())),
                                   "tail": None}
    return {
        "metrics": metrics,
        "units": UNITS,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "pass_totals_s": {"traced": totals[True], "untraced": totals[False]},
        "self_s": span_self_table(tracer.spans),
        "spans": [vars(s) for s in tracer.spans],
    }


def layer_metrics(spans: list[Span], gid: int) -> dict:
    mine = [s for s in spans if s.graph == gid]
    m = {metric: sum(s.duration for s in mine if s.name == name)
         for name, metric in SPAN_METRICS.items()}
    by_name = {s.name: s.counts for s in mine}
    m["diagnostics.analyze_self_s"] = m["diagnostics.analyze_s"] - sum(
        m[x] for x in ANALYZE_PARTS)
    m["twolevel.edges"] = by_name["twolevel.generate_bead_chain"]["edges"]
    m["io.graph_bytes"] = by_name["io.write_graph"]["bytes"]
    m["operators.nnz"] = by_name["operators.normalized_adjacency"]["nnz"]
    solve = by_name["eigensolver.spectrum_random_walk"]
    m["eigensolver.columns_computed"] = solve["columns_computed"]
    m["eigensolver.useful_frac"] = solve["k"] / solve["columns_computed"]
    m["io.report_files"] = by_name["io.emit_report"]["files"]
    m["io.report_bytes"] = by_name["io.emit_report"]["bytes"]
    return m


def span_self_table(spans: list[Span]) -> dict:
    """Per span name: median over graphs of summed duration and summed self time."""
    selfs = self_times(spans)
    per: dict[str, dict[int, list[float]]] = {}
    for s in spans:
        acc = per.setdefault(s.name, {}).setdefault(s.graph, [0.0, 0.0])
        acc[0] += s.duration
        acc[1] += selfs[s.id]
    return {
        name: {"total_s": statistics.median(a[0] for a in graphs.values()),
               "self_s": statistics.median(a[1] for a in graphs.values())}
        for name, graphs in per.items()
    }
