"""End-to-end run: the eigenloc CLI driven by one closed-loop client.

The client starts one command at a time, each only after the previous one
has exited. Until the run's seconds are used up it repeats, over the
workload's chains in turn: an `eigenloc --help` child for set-up time, a
`generate` -> `analyze` pipeline, and a second `generate` of the same chain.
graphs_per_s divides the pipelines completed by the time spent in them.
Every output is checked after the loop, so checking costs no loop time:

- every child exits 0 and writes the files it should;
- the eigenvalues in spectrum.csv match an untimed reference solve;
- every `generate` of a chain writes byte-identical graph files, and every
  `analyze` of it a byte-identical report (SHA-256). A chain the loop
  analyzed only once gets one untimed extra `analyze` for this check.
"""
from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import reference_eigenvalues, report_digest, report_problems, tree_digest
from measure import Child, run_child, summarize
from workloads import RANKS, Workload

SETUP_MIN = 5  # set-up probes per run, at least
UNITS = {
    "setup_s": "s",
    "generate_wall_s": "s",
    "analyze_wall_s": "s",
    "analyze_cpu_s": "s",
    "analyze_peak_rss_mb": "MB",
    "graphs_per_s": "1/s",
}


@dataclass
class Op:
    kind: str  # setup, generate, analyze, rerun
    child: Child
    problems: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.child.returncode != 0:
            self.problems.append(f"exited {self.child.returncode}")


def run_e2e(w: Workload, docs: list[dict], seconds: float, work: Path, env: dict,
            seed: int) -> dict:
    cli = [sys.executable, "-m", "eigenloc.cli"]
    with open(work / "stderr.log", "wb") as log:

        def cli_run(*args) -> Child:
            return run_child(cli + [str(a) for a in args], env=env, stderr=log)

        def analyze(gdir: Path, out: str) -> Child:
            return cli_run("analyze", gdir / "graph.mtx", "--labels", gdir / "graph.labels.csv",
                           "--out", gdir / out, "--k", w.k,
                           "--ranks", ",".join(map(str, RANKS)))

        specs = []
        for c, doc in enumerate(docs):
            specs.append(work / f"chain{c}.json")
            specs[-1].write_text(json.dumps(doc))

        # One iteration: a set-up probe, a pipeline, and a second `generate` of
        # the same chain. The probes and the regenerations sample the whole
        # run rather than one moment of a machine whose speed drifts; the
        # regeneration also checks that the graph files are reproducible.
        cli_run("--help")  # writes bytecode caches; not a sample
        ops = []
        pipelines = []  # (chain, dir, generate, analyze or None, regenerate)
        busy = 0.0  # time spent in pipelines
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            ops.append(Op("setup", cli_run("--help")))
            c = len(pipelines) % len(docs)
            gdir = work / f"p{len(pipelines)}"
            (gdir / "regen").mkdir(parents=True)
            t0 = time.perf_counter()
            gen = cli_run("generate", specs[c], "--out", gdir / "graph.mtx")
            an = analyze(gdir, "report") if gen.returncode == 0 else None
            busy += time.perf_counter() - t0
            regen = cli_run("generate", specs[c], "--out", gdir / "regen" / "graph.mtx")
            pipelines.append((c, gdir, gen, an, regen))
        while len(ops) < SETUP_MIN:
            ops.append(Op("setup", cli_run("--help")))

        refs: dict[int, object] = {}
        graph_digests: dict[int, str] = {}
        report_digests: dict[int, str] = {}

        def check_report(c: int, gdir: Path, out: str, op: Op):
            if op.problems:
                return
            if c not in refs:
                try:
                    refs[c] = reference_eigenvalues(gdir / "graph.mtx", w.k, seed)
                except Exception as exc:  # a failed reference fails the check, not the run
                    refs[c] = None
                    op.problems.append(f"reference solve failed: {exc!r}")
                    return
            if refs[c] is None:
                op.problems.append("no reference eigenvalues")
                return
            op.problems += report_problems(gdir / out, w.k, refs[c])
            if not op.problems:
                digest = report_digest(gdir / out)
                if report_digests.setdefault(c, digest) != digest:
                    op.problems.append("rerun report differs from the first (SHA-256)")

        def check_graph(c: int, gdir: Path, op: Op):
            files = [gdir / "graph.mtx", gdir / "graph.labels.csv"]
            if not op.problems and not all(p.is_file() for p in files):
                op.problems.append("generate wrote no graph or labels file")
            if not op.problems:
                digest = tree_digest(files)
                if graph_digests.setdefault(c, digest) != digest:
                    op.problems.append("regenerated graph differs from the first (SHA-256)")

        for c, gdir, gen, an, regen in pipelines:
            ops.append(Op("generate", gen))
            check_graph(c, gdir, ops[-1])
            if an is not None:
                ops.append(Op("analyze", an))
                check_report(c, gdir, "report", ops[-1])
            ops.append(Op("generate", regen))
            check_graph(c, gdir / "regen", ops[-1])

        analyzed = [c for c, _, _, an, _ in pipelines if an is not None]
        for c, gdir, _, an, _ in pipelines:
            if an is not None and analyzed.count(c) == 1:
                ops.append(Op("rerun", analyze(gdir, "rerun")))
                check_report(c, gdir, "rerun", ops[-1])

    def samples(kind, attr):
        return [getattr(op.child, attr) for op in ops
                if op.kind == kind and op.child.returncode == 0]

    completed = sum(1 for _, _, _, an, _ in pipelines if an is not None and an.returncode == 0)
    metrics = {
        "setup_s": summarize(samples("setup", "wall_s")),
        "generate_wall_s": summarize(samples("generate", "wall_s")),
        "analyze_wall_s": summarize(samples("analyze", "wall_s")),
        "analyze_cpu_s": summarize(samples("analyze", "cpu_s")),
        "analyze_peak_rss_mb": summarize(samples("analyze", "peak_rss_mb")),
        "graphs_per_s": {"median": completed / busy, "n": completed, "tail": None},
    }
    return {
        "metrics": metrics,
        "units": UNITS,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op.problems),
        "problems": [f"{op.kind}: {p}" for op in ops for p in op.problems],
        "pipeline_wall_s": busy,
        "pipelines": len(pipelines),
    }
