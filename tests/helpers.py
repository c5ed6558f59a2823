"""Shared builders for the test suite, and reference implementations that
differential tests compare the library against."""
import json
import math
from pathlib import Path

import numpy as np

from eigenloc import (
    ERBead,
    GlobalRandom,
    MigrationInput,
    PathIdentity,
    PathRandom,
    TwoLevelSpec,
    TwoModuleBead,
    WeightedGraph,
)
from eigenloc.errors import (
    AsymmetricFlow,
    DuplicateEdge,
    InputError,
    IoError,
    MissingPopulation,
    NegativeWeight,
    ParseError,
)
from eigenloc.io import parse_labels
from eigenloc.localization import csl
from eigenloc.twolevel import Bead, Interaction


def graph_from_dense(A, labels=None, sublabels=None) -> WeightedGraph:
    A = np.asarray(A, dtype=np.float64)
    i, j = np.nonzero(np.triu(A, 1))
    return WeightedGraph(A.shape[0], i, j, A[i, j], labels, sublabels)


def random_connected_graph(rng, n_max=200, weighted=None) -> WeightedGraph:
    """Random spanning tree plus ER edges; optionally random positive weights."""
    n = int(rng.integers(2, n_max + 1))
    pairs = set()
    for v in range(1, n):
        u = int(rng.integers(0, v))
        pairs.add((u, v))
    p = float(rng.uniform(0.02, 0.3))
    iu, ju = np.triu_indices(n, 1)
    extra = rng.random(iu.size) < p
    pairs.update((int(a), int(b)) for a, b in zip(iu[extra], ju[extra]))
    pairs = sorted(pairs)
    i = np.array([p_[0] for p_ in pairs])
    j = np.array([p_[1] for p_ in pairs])
    if weighted is None:
        weighted = bool(rng.integers(0, 2))
    w = rng.uniform(0.1, 2.0, size=i.size) if weighted else np.ones(i.size)
    return WeightedGraph(n, i, j, w)


def path_graph(n: int) -> WeightedGraph:
    i = np.arange(n - 1)
    return WeightedGraph(n, i, i + 1, np.ones(n - 1))


def torus_graph(r: int, c: int) -> WeightedGraph:
    """r x c lattice with wraparound, each node joined to its 4 neighbours."""
    idx = np.arange(r * c).reshape(r, c)
    a = np.concatenate([idx.ravel(), idx.ravel()])
    b = np.concatenate([np.roll(idx, -1, 1).ravel(), np.roll(idx, -1, 0).ravel()])
    return WeightedGraph(r * c, np.minimum(a, b), np.maximum(a, b), np.ones(a.size))


def cycle_product_graph(w: WeightedGraph, r: int) -> WeightedGraph:
    """W x C_r: r copies of w, node i of copy c joined to node i of copy
    c + 1 mod r. The cyclic shift of the copies commutes with S, and S's
    eigenvalues come in pairs, save those whose eigenvectors the shift maps
    to plus or minus themselves."""
    n, nodes = w.n, np.arange(w.n)
    a = np.concatenate([w.rows + c * n for c in range(r)] + [nodes + c * n for c in range(r)])
    b = np.concatenate([w.cols + c * n for c in range(r)] + [nodes + (c + 1) % r * n for c in range(r)])
    return WeightedGraph(r * n, np.minimum(a, b), np.maximum(a, b), np.ones(a.size))


def hypercube_graph(d: int) -> WeightedGraph:
    """Q_d: nodes 0..2^d-1, i ~ j when i XOR j is a power of 2. S has
    eigenvalue 1 - 2i/d with multiplicity C(d, i)."""
    i = np.repeat(np.arange(2**d), d)
    j = i ^ np.tile(1 << np.arange(d), 2**d)
    keep = i < j
    return WeightedGraph(2**d, i[keep], j[keep], np.ones(int(keep.sum())))


# Exact spectra of S for the symmetric families above, at any size and with
# no n x n solve: the references for Lanczos-route tests above the dense limit.

def torus_spectrum(r: int, c: int) -> np.ndarray:
    """S's eigenvalues on torus_graph(r, c), r, c >= 3, descending:
    (cos 2 pi a / r + cos 2 pi b / c) / 2 over every a < r, b < c."""
    lam = (np.cos(2 * np.pi * np.arange(r) / r)[:, None] + np.cos(2 * np.pi * np.arange(c) / c)) / 2
    return np.sort(lam.ravel())[::-1]


def hypercube_spectrum(d: int) -> np.ndarray:
    """S's eigenvalues on hypercube_graph(d), descending: 1 - 2i/d with
    multiplicity C(d, i)."""
    return np.repeat(1 - 2 * np.arange(d + 1) / d, [math.comb(d, i) for i in range(d + 1)])


def cycle_product_spectrum(w: WeightedGraph, r: int) -> np.ndarray:
    """S's eigenvalues on cycle_product_graph(w, r), r >= 3, descending, by
    separation of variables: the union over j < r of the eigenvalues of
    (D + 2)^-1/2 (A + 2 cos(2 pi j / r) I) (D + 2)^-1/2, with A and D the
    0/1 adjacency and the degrees of w. Each is a dense solve of w's size."""
    A = np.zeros((w.n, w.n))
    A[w.rows, w.cols] = A[w.cols, w.rows] = 1.0
    h = 1 / np.sqrt(A.sum(axis=1) + 2)
    parts = [np.linalg.eigvalsh(h[:, None] * (A + 2 * np.cos(2 * np.pi * j / r) * np.eye(w.n)) * h)
             for j in range(r)]
    return np.sort(np.concatenate(parts))[::-1]


def complete_graph(n: int) -> WeightedGraph:
    i, j = np.triu_indices(n, 1)
    return WeightedGraph(n, i, j, np.ones(i.size))


def two_triangles_bridge() -> WeightedGraph:
    """Triangles {0,1,2} and {3,4,5} joined by the single edge (2,3)."""
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)]
    i = np.array([e[0] for e in edges])
    j = np.array([e[1] for e in edges])
    return WeightedGraph(6, i, j, np.ones(7))


# ------------------------------------------------------------------------
# Reference implementations: eigenloc.io's per-line MatrixMarket scan, its
# per-entry migration reader and its per-value writers as they were before
# parsing and formatting went bulk, and its spec codec as it was before the
# kind tables, one branch per kind.
# The differential tests in test_io_bulk.py hold the library to these.


def ref_fmt(x: float) -> str:
    return format(float(x), ".17g")


def percent_rows(template: str, *columns) -> str:
    """Parallel columns, one `template` (e.g. "%d,%.17g\\n") per row, in one
    %-operation over the row-major flattened values: the formatter of the
    small report tables before the row kernel wrote every CSV body."""
    cols = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns]
    if not cols:
        return ""
    rows, width = len(cols[0]), len(cols)
    flat = [None] * (rows * width)
    for c, col in enumerate(cols):
        flat[c::width] = col
    return (template * rows) % tuple(flat)


def ref_write_graph(g: WeightedGraph, path) -> None:
    """Symmetric coordinate MatrixMarket, lower triangle, 1-based."""
    lines = ["%%MatrixMarket matrix coordinate real symmetric"]
    lines.append(f"{g.n} {g.n} {g.edge_count}")
    for i, j, w in zip(g.rows, g.cols, g.weights):
        lines.append(f"{j + 1} {i + 1} {ref_fmt(w)}")
    Path(path).write_text("\n".join(lines) + "\n")


def ref_write_labels(g: WeightedGraph, path) -> None:
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


def ref_mm_header(lines: list[str], path) -> tuple[str, str]:
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


def check_ascii_numerals(tokens: list[str]) -> None:
    """ValueError when a token holds "_" or a non-ASCII character, which
    int() and float() would read as digits."""
    if any("_" in t or not t.isascii() for t in tokens):
        raise ValueError(tokens)


def ref_mm_entries(path):
    """-> (n, symmetry, field, [(lineno, i, j, w)]) with 0-based i, j."""
    text = Path(path).read_text()
    lines = text.splitlines()
    field, symmetry = ref_mm_header(lines, path)
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
                check_ascii_numerals(toks)
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
            check_ascii_numerals(toks)
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


def ref_parse_graph(path, label_path=None) -> WeightedGraph:
    """Read a MatrixMarket graph (symmetric or general storage).

    General storage may carry each undirected edge once or as a mirrored
    pair with equal weights; conflicting mirror weights are rejected.
    """
    n, symmetry, _, entries = ref_mm_entries(path)
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
        labels, sublabels = parse_labels(label_path, n)
    i = np.array([p[0] for p in pairs], dtype=np.int64)
    j = np.array([p[1] for p in pairs], dtype=np.int64)
    w = np.array([weights[p] for p in pairs])
    return WeightedGraph(n, i, j, w, labels, sublabels)


def is_number(cell: str) -> bool:
    """A CSV's first line is a header only if float() rejects its first cell."""
    try:
        float(cell)
    except ValueError:
        return False
    return True


def ref_parse_migration(flows_path, populations_path) -> MigrationInput:
    """Flows as integer MatrixMarket; populations as CSV node_id,population."""
    n, symmetry, field, entries = ref_mm_entries(flows_path)
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
    first = True  # the first non-blank line may be a header
    for lineno, raw in enumerate(lines, start=1):
        s = raw.strip()
        if not s:
            continue
        toks = [t.strip() for t in s.split(",")]
        header, first = first and not is_number(toks[0]), False
        if header:
            continue
        if len(toks) != 2:
            raise ParseError("expected node_id,population", line=lineno)
        try:
            check_ascii_numerals(toks)
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
    # the dense matrix's checks, then its upper triangle as the flow graph
    if np.any(M < 0):
        raise InputError("negative flow count")
    return MigrationInput(graph_from_dense(M), pops)


def ref_json_text(obj) -> str:
    """JSON with floats at 17 significant digits, insertion-ordered keys."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        text = ref_fmt(obj)
        return text + ".0" if float(obj).is_integer() and "e" not in text else text
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {ref_json_text(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(ref_json_text(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def ref_emit_report(report, out_dir) -> list[Path]:
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
        for j, lam in enumerate(report.basis.lambdas):
            lines.append(f"{j},{ref_fmt(lam)},{ref_fmt(report.sq_spectrum[j])}")
        put("spectrum.csv", "\n".join(lines) + "\n")

        lines = ["rank,eigenvalue,ipr,degenerate_flag"]
        basis = report.basis
        for rank in range(basis.k):
            eigenvalue, ipr, degenerate = basis.lambdas[rank], report.curve[rank], basis.degenerate[rank]
            lines.append(
                f"{rank},{ref_fmt(eigenvalue)},{ref_fmt(ipr)},{int(degenerate)}"
            )
        put("ipr.csv", "\n".join(lines) + "\n")

        for rank, hist in enumerate(report.hists):
            v = report.basis.vectors[:, rank]
            lev = csl(v)
            lines = ["node,value,csl"]
            for node in range(v.size):
                lines.append(f"{node},{ref_fmt(v[node])},{ref_fmt(lev[node])}")
            put(f"eigvec_{rank}.csv", "\n".join(lines) + "\n")

            lines = ["bin_lo,bin_hi,count"]
            edges = hist.bin_edges
            for b, count in enumerate(hist.counts):
                lines.append(f"{ref_fmt(edges[b])},{ref_fmt(edges[b + 1])},{int(count)}")
            put(f"hist_{rank}.csv", "\n".join(lines) + "\n")

        lines = ["rank,group,l2_frac,l1_frac"]
        for rank, group, l2, l1 in report.group_table or ():
            lines.append(f"{rank},{group},{ref_fmt(l2)},{ref_fmt(l1)}")
        put("groups.csv", "\n".join(lines) + "\n")

        t = report.transition
        put(
            "transition.json",
            ref_json_text(
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
        put("partitions.json", ref_json_text(parts) + "\n")
        return written
    except OSError as exc:
        raise IoError(f"cannot write report to {out}: {exc}") from exc


# ------------------------------------------------------------------------
# Reference implementation: eigenloc.clustering.sweep_cut's node-by-node
# loop as it was before the cut became a prefix sum over edges.


def ref_sweep_cut(v, g: WeightedGraph):
    """-> (side, conductance) of the minimum-conductance prefix along v."""
    n = g.n
    order = np.lexsort((np.arange(n), -np.asarray(v, dtype=np.float64)))
    A = g.adjacency
    d = g.degrees
    total = float(d.sum())
    in_s = np.zeros(n, dtype=bool)
    vol = 0.0
    cut = 0.0
    best_phi = np.inf
    best_t = -1
    for t in range(n - 1):
        u = order[t]
        row = slice(A.indptr[u], A.indptr[u + 1])
        to_s = float(A.data[row][in_s[A.indices[row]]].sum())
        cut += d[u] - 2.0 * to_s
        vol += d[u]
        in_s[u] = True
        phi = cut / min(vol, total - vol)
        if phi < best_phi:
            best_phi = phi
            best_t = t
    side = np.zeros(n, dtype=bool)
    side[order[: best_t + 1]] = True
    return side, float(best_phi)


def ref_spec_to_json(spec: TwoLevelSpec) -> dict:
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


def ref_need(doc: dict, key: str, kinds, where: str):
    if key not in doc:
        raise ParseError(f"{where}: missing key {key!r}")
    val = doc[key]
    if not isinstance(val, kinds) or isinstance(val, bool):
        raise ParseError(f"{where}: key {key!r} has the wrong type")
    return val


def ref_float(doc: dict, key: str, where: str) -> float:
    try:
        return float(ref_need(doc, key, (int, float), where))
    except OverflowError:  # an integer literal beyond any float
        raise ParseError(f"{where}: key {key!r} is out of range") from None


def ref_spec_from_json(doc) -> TwoLevelSpec:
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("spec document must be a JSON object")
    beads_doc = ref_need(doc, "beads", list, "spec")
    if not beads_doc:
        raise ParseError("spec: beads must be a nonempty array")
    beads: list[Bead] = []
    for pos, b in enumerate(beads_doc):
        if not isinstance(b, dict):
            raise ParseError(f"bead {pos}: must be an object")
        kind = ref_need(b, "kind", str, f"bead {pos}")
        label = b.get("label")
        if label is not None and (isinstance(label, bool) or not isinstance(label, int)):
            raise ParseError(f"bead {pos}: label must be an integer")
        if kind == "er":
            beads.append(
                ERBead(
                    int(ref_need(b, "n", int, f"bead {pos}")),
                    ref_float(b, "p", f"bead {pos}"),
                    label,
                )
            )
        elif kind == "two_module":
            beads.append(
                TwoModuleBead(
                    int(ref_need(b, "n1", int, f"bead {pos}")),
                    int(ref_need(b, "n2", int, f"bead {pos}")),
                    ref_float(b, "p1", f"bead {pos}"),
                    ref_float(b, "p2", f"bead {pos}"),
                    label,
                )
            )
        else:
            raise ParseError(f"bead {pos}: unknown kind {kind!r}")
    idoc = ref_need(doc, "interaction", dict, "spec")
    ikind = ref_need(idoc, "kind", str, "interaction")
    inter: Interaction
    if ikind == "path_random":
        inter = PathRandom(ref_float(idoc, "p", "interaction"))
    elif ikind == "path_identity":
        inter = PathIdentity(ref_float(idoc, "eps", "interaction"))
    elif ikind == "global_random":
        inter = GlobalRandom(ref_float(idoc, "p", "interaction"))
    else:
        raise ParseError(f"interaction: unknown kind {ikind!r}")
    seed = ref_need(doc, "seed", int, "spec")
    return TwoLevelSpec(tuple(beads), inter, seed)
