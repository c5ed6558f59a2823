"""File formats: MatrixMarket graph ingest/export, label sidecars, migration
inputs, chain-spec JSON, and report emission.

MatrixMarket entries are 1-based per the format; every CSV sidecar uses
0-based node ids matching the in-memory graph. All floats are printed with
17 significant digits so files round-trip losslessly and reruns are
byte-identical.
"""
from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from .diagnostics import AnalysisReport
from .errors import (
    AsymmetricFlow,
    DuplicateEdge,
    InputError,
    IoError,
    MissingPopulation,
    NegativeWeight,
    ParseError,
)
from .localization import csl
from .operators import MigrationInput, WeightedGraph
from .twolevel import (
    Bead,
    ERBead,
    GlobalRandom,
    Interaction,
    PathIdentity,
    PathRandom,
    TwoLevelSpec,
    TwoModuleBead,
)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------- graphs

def write_graph(g: WeightedGraph, path) -> None:
    """Symmetric coordinate MatrixMarket, lower triangle, 1-based."""
    lines = ["%%MatrixMarket matrix coordinate real symmetric"]
    lines.append(f"{g.n} {g.n} {g.edge_count}")
    for i, j, w in zip(g.rows, g.cols, g.weights):
        lines.append(f"{j + 1} {i + 1} {_fmt(w)}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_labels(g: WeightedGraph, path) -> None:
    """CSV sidecar: node_id,group_id[,subgroup_id]; 0-based node ids."""
    if g.labels is None:
        raise InputError("graph carries no labels to write")
    with_sub = g.sublabels is not None
    lines = ["node_id,group_id,subgroup_id" if with_sub else "node_id,group_id"]
    for v in sorted(g.labels):
        row = f"{v},{g.labels[v]}"
        if with_sub:
            sub = g.sublabels.get(v)
            row += f",{sub if sub is not None else ''}"
        lines.append(row)
    Path(path).write_text("\n".join(lines) + "\n")


def _mm_header(lines: list[str], path) -> tuple[str, str]:
    if not lines:
        raise ParseError(f"{path}: empty file", line=1)
    head = lines[0].split()
    if len(head) != 5 or head[0] != "%%MatrixMarket":
        raise ParseError("expected a MatrixMarket header", line=1)
    _, obj, fmt, field, symmetry = (t.lower() for t in head)
    if obj != "matrix" or fmt != "coordinate":
        raise ParseError(f"unsupported MatrixMarket object/format {obj}/{fmt}", line=1)
    if field not in ("real", "integer"):
        raise ParseError(f"unsupported field type {field}", line=1)
    if symmetry not in ("general", "symmetric"):
        raise ParseError(f"unsupported symmetry {symmetry}", line=1)
    return field, symmetry


def _mm_entries(path):
    """-> (n, symmetry, field, [(lineno, i, j, w)]) with 0-based i, j."""
    text = Path(path).read_text()
    lines = text.splitlines()
    field, symmetry = _mm_header(lines, path)
    n = m = None
    entries = []
    for lineno, raw in enumerate(lines[1:], start=2):
        s = raw.strip()
        if not s or s.startswith("%"):
            continue
        toks = s.split()
        if n is None:
            if len(toks) != 3:
                raise ParseError("expected 'rows cols nnz'", line=lineno)
            try:
                r, c, m = (int(t) for t in toks)
            except ValueError:
                raise ParseError("non-integer size line", line=lineno) from None
            if r != c:
                raise ParseError(f"matrix must be square, got {r}x{c}", line=lineno)
            if r < 1:
                raise ParseError("empty matrix", line=lineno)
            n = r
            continue
        if len(toks) != 3:
            raise ParseError("expected 'i j value'", line=lineno)
        try:
            i, j = int(toks[0]), int(toks[1])
            w = float(toks[2])
        except ValueError:
            raise ParseError(f"bad entry {s!r}", line=lineno) from None
        if not math.isfinite(w):
            raise ParseError(f"non-finite value {toks[2]!r}", line=lineno)
        if field == "integer" and float(int(float(toks[2]))) != w:
            raise ParseError("non-integer value in integer matrix", line=lineno)
        if not (1 <= i <= n and 1 <= j <= n):
            raise ParseError(f"index ({i}, {j}) out of range 1..{n}", line=lineno)
        entries.append((lineno, i - 1, j - 1, w))
    if n is None:
        raise ParseError("missing size line", line=len(lines))
    if len(entries) != m:
        raise ParseError(f"declared {m} entries, found {len(entries)}", line=len(lines))
    return n, symmetry, field, entries


def parse_labels(path):
    """-> (labels, sublabels or None); accepts an optional header row."""
    lines = Path(path).read_text().splitlines()
    labels: dict[int, int] = {}
    sublabels: dict[int, int] = {}
    for lineno, raw in enumerate(lines, start=1):
        s = raw.strip()
        if not s:
            continue
        toks = [t.strip() for t in s.split(",")]
        if lineno == 1 and not toks[0].lstrip("-").isdigit():
            continue  # header row
        if len(toks) not in (2, 3):
            raise ParseError("expected node_id,group_id[,subgroup_id]", line=lineno)
        try:
            node = int(toks[0])
            group = int(toks[1])
        except ValueError:
            raise ParseError(f"bad label row {s!r}", line=lineno) from None
        if node in labels:
            raise ParseError(f"duplicate label for node {node}", line=lineno)
        labels[node] = group
        if len(toks) == 3 and toks[2] != "":
            try:
                sublabels[node] = int(toks[2])
            except ValueError:
                raise ParseError(f"bad subgroup {toks[2]!r}", line=lineno) from None
    return labels, (sublabels or None)


def parse_graph(path, label_path=None) -> WeightedGraph:
    """Read a MatrixMarket graph (symmetric or general storage).

    General storage may carry each undirected edge once or as a mirrored
    pair with equal weights; conflicting mirror weights are rejected.
    """
    n, symmetry, _, entries = _mm_entries(path)
    seen: dict[tuple[int, int], float] = {}
    weights: dict[tuple[int, int], float] = {}
    for lineno, i, j, w in entries:
        if i == j:
            raise ParseError("self-loops are not allowed", line=lineno)
        if w < 0:
            raise NegativeWeight(min(i, j), max(i, j))
        if symmetry == "symmetric":
            key = (min(i, j), max(i, j))
            if key in seen:
                raise DuplicateEdge(*key)
            seen[key] = w
        else:
            if (i, j) in seen:
                raise DuplicateEdge(i, j)
            seen[(i, j)] = w
            key = (min(i, j), max(i, j))
            if key in weights and weights[key] != w:
                raise ParseError(
                    f"mirrored entries for ({key[0]}, {key[1]}) disagree", line=lineno
                )
        weights[key] = w
    pairs = sorted(weights)
    labels = sublabels = None
    if label_path is not None:
        labels, sublabels = parse_labels(label_path)
    i = np.array([p[0] for p in pairs], dtype=np.int64)
    j = np.array([p[1] for p in pairs], dtype=np.int64)
    w = np.array([weights[p] for p in pairs])
    return WeightedGraph(n, i, j, w, labels, sublabels)


# ------------------------------------------------------------- migration

def parse_migration(flows_path, populations_path) -> MigrationInput:
    """Flows as integer MatrixMarket; populations as CSV node_id,population."""
    n, symmetry, field, entries = _mm_entries(flows_path)
    if field != "integer":
        raise ParseError("flow matrix must use the integer field", line=1)
    M = np.zeros((n, n), dtype=np.int64)
    seen = set()
    for lineno, i, j, w in entries:
        if i == j:
            raise ParseError("self-flows are not allowed", line=lineno)
        key = (min(i, j), max(i, j)) if symmetry == "symmetric" else (i, j)
        if key in seen:
            raise DuplicateEdge(*key)
        seen.add(key)
        if symmetry == "symmetric":
            M[i, j] = M[j, i] = int(w)
        else:
            M[i, j] = int(w)
    if symmetry == "general":
        bad = np.argwhere(M != M.T)
        if bad.size:
            raise AsymmetricFlow(int(bad[0][0]), int(bad[0][1]))

    pops = np.zeros(n)
    got = np.zeros(n, dtype=bool)
    lines = Path(populations_path).read_text().splitlines()
    for lineno, raw in enumerate(lines, start=1):
        s = raw.strip()
        if not s:
            continue
        toks = [t.strip() for t in s.split(",")]
        if lineno == 1 and not toks[0].lstrip("-").isdigit():
            continue
        if len(toks) != 2:
            raise ParseError("expected node_id,population", line=lineno)
        try:
            node = int(toks[0])
            pop = float(toks[1])
        except ValueError:
            raise ParseError(f"bad population row {s!r}", line=lineno) from None
        if not 0 <= node < n:
            raise ParseError(f"node {node} outside 0..{n - 1}", line=lineno)
        if got[node]:
            raise ParseError(f"duplicate population for node {node}", line=lineno)
        got[node] = True
        pops[node] = pop
    if not got.all():
        raise MissingPopulation(int(np.argmax(~got)))
    return MigrationInput(M, pops)


# ------------------------------------------------------------ spec files

def spec_to_json(spec: TwoLevelSpec) -> dict:
    beads = []
    for b in spec.beads:
        if isinstance(b, ERBead):
            item: dict = {"kind": "er", "n": b.n, "p": b.p}
        else:
            item = {"kind": "two_module", "n1": b.n1, "n2": b.n2, "p1": b.p1, "p2": b.p2}
        if b.label is not None:
            item["label"] = b.label
        beads.append(item)
    inter = spec.interaction
    if isinstance(inter, PathRandom):
        idoc = {"kind": "path_random", "p": inter.p}
    elif isinstance(inter, PathIdentity):
        idoc = {"kind": "path_identity", "eps": inter.eps}
    else:
        idoc = {"kind": "global_random", "p": inter.p}
    return {"beads": beads, "interaction": idoc, "seed": spec.seed}


def _need(doc: dict, key: str, kinds, where: str):
    if key not in doc:
        raise ParseError(f"{where}: missing key {key!r}")
    val = doc[key]
    if not isinstance(val, kinds) or isinstance(val, bool):
        raise ParseError(f"{where}: key {key!r} has the wrong type")
    return val


def spec_from_json(doc) -> TwoLevelSpec:
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("spec document must be a JSON object")
    beads_doc = _need(doc, "beads", list, "spec")
    if not beads_doc:
        raise ParseError("spec: beads must be a nonempty array")
    beads: list[Bead] = []
    for pos, b in enumerate(beads_doc):
        if not isinstance(b, dict):
            raise ParseError(f"bead {pos}: must be an object")
        kind = _need(b, "kind", str, f"bead {pos}")
        label = b.get("label")
        if label is not None and (isinstance(label, bool) or not isinstance(label, int)):
            raise ParseError(f"bead {pos}: label must be an integer")
        if kind == "er":
            beads.append(
                ERBead(
                    int(_need(b, "n", int, f"bead {pos}")),
                    float(_need(b, "p", (int, float), f"bead {pos}")),
                    label,
                )
            )
        elif kind == "two_module":
            beads.append(
                TwoModuleBead(
                    int(_need(b, "n1", int, f"bead {pos}")),
                    int(_need(b, "n2", int, f"bead {pos}")),
                    float(_need(b, "p1", (int, float), f"bead {pos}")),
                    float(_need(b, "p2", (int, float), f"bead {pos}")),
                    label,
                )
            )
        else:
            raise ParseError(f"bead {pos}: unknown kind {kind!r}")
    idoc = _need(doc, "interaction", dict, "spec")
    ikind = _need(idoc, "kind", str, "interaction")
    inter: Interaction
    if ikind == "path_random":
        inter = PathRandom(float(_need(idoc, "p", (int, float), "interaction")))
    elif ikind == "path_identity":
        inter = PathIdentity(float(_need(idoc, "eps", (int, float), "interaction")))
    elif ikind == "global_random":
        inter = GlobalRandom(float(_need(idoc, "p", (int, float), "interaction")))
    else:
        raise ParseError(f"interaction: unknown kind {ikind!r}")
    seed = _need(doc, "seed", int, "spec")
    return TwoLevelSpec(tuple(beads), inter, seed)


def load_spec(path) -> TwoLevelSpec:
    return spec_from_json(Path(path).read_text())


def save_spec(spec: TwoLevelSpec, path) -> None:
    Path(path).write_text(_json_text(spec_to_json(spec)) + "\n")


# ---------------------------------------------------------------- report

def _json_text(obj) -> str:
    """JSON with floats at 17 significant digits, insertion-ordered keys."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {_json_text(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_text(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def emit_report(report: AnalysisReport, out_dir) -> list[Path]:
    """Write the report as CSV/JSON files; returns the written paths."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        written: list[Path] = []

        def put(name: str, text: str):
            p = out / name
            p.write_text(text)
            written.append(p)

        lines = ["rank,eigenvalue,sq_spectrum_frac"]
        for j, lam in enumerate(report.lambdas):
            lines.append(f"{j},{_fmt(lam)},{_fmt(report.sq_spectrum[j])}")
        put("spectrum.csv", "\n".join(lines) + "\n")

        lines = ["rank,eigenvalue,ipr,degenerate_flag"]
        for rec in report.records:
            lines.append(
                f"{rec.rank},{_fmt(rec.eigenvalue)},{_fmt(rec.ipr)},{int(rec.degenerate)}"
            )
        put("ipr.csv", "\n".join(lines) + "\n")

        for rec in report.records:
            v = report.basis.vectors[:, rec.rank]
            lev = csl(v).scores
            lines = ["node,value,csl"]
            for node in range(v.size):
                lines.append(f"{node},{_fmt(v[node])},{_fmt(lev[node])}")
            put(f"eigvec_{rec.rank}.csv", "\n".join(lines) + "\n")

            lines = ["bin_lo,bin_hi,count"]
            edges = rec.hist.bin_edges
            for b, count in enumerate(rec.hist.counts):
                lines.append(f"{_fmt(edges[b])},{_fmt(edges[b + 1])},{int(count)}")
            put(f"hist_{rec.rank}.csv", "\n".join(lines) + "\n")

        lines = ["rank,group,l2_frac,l1_frac"]
        for rank, group, l2, l1 in report.group_table or ():
            lines.append(f"{rank},{group},{_fmt(l2)},{_fmt(l1)}")
        put("groups.csv", "\n".join(lines) + "\n")

        t = report.transition
        put(
            "transition.json",
            _json_text(
                {
                    "rank": t.rank,
                    "baseline": t.baseline,
                    "factor": t.factor,
                    "window": report.window,
                    "tau": report.tau,
                }
            )
            + "\n",
        )

        parts = [
            {
                "rank": rank,
                "conductance": p.conductance,
                "side": [int(x) for x in p.side],
            }
            for rank, p in report.partitions
        ]
        put("partitions.json", _json_text(parts) + "\n")
        return written
    except OSError as exc:
        raise IoError(f"cannot write report to {out}: {exc}") from exc
