"""File formats: MatrixMarket graph ingest/export, label sidecars, migration
inputs, chain-spec JSON, and report emission.

MatrixMarket entries are 1-based per the format; every CSV sidecar uses
0-based node ids matching the in-memory graph. All floats are printed with
17 significant digits so files round-trip losslessly and reruns are
byte-identical.
"""
from __future__ import annotations

import io
import json
import math
import os
import shutil
import signal
import tempfile
import warnings
from dataclasses import fields
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    AsymmetricFlow,
    DuplicateEdge,
    InputError,
    IoError,
    MissingPopulation,
    NegativeWeight,
    ParseError,
)
from .localization import csl, histogram
from .operators import MigrationInput, WeightedGraph, _canonical_pairs, _sorted_distinct
from .twolevel import (
    ERBead,
    GlobalRandom,
    PathIdentity,
    PathRandom,
    TwoLevelSpec,
    TwoModuleBead,
)

if TYPE_CHECKING:
    from .clustering import Partition, TransitionReport
    from .diagnostics import AnalysisReport
    from .eigensolver import Eigenbasis


def _format_rows(template: str, *columns) -> str:
    """Format parallel columns, one `template` (e.g. "%d,%.17g\\n") per row.

    The whole body is one %-operation over the row-major flattened values.
    %.17g prints a float exactly as format(x, ".17g") does.
    """
    cols = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns]
    if not cols:
        return ""
    rows, width = len(cols[0]), len(cols)
    flat = [None] * (rows * width)
    for c, col in enumerate(cols):
        flat[c::width] = col
    return (template * rows) % tuple(flat)


def _read_text(path) -> str:
    """The file as UTF-8 text with universal newlines, as Path.read_text()
    gives it, less a leading byte order mark; a byte sequence that is not
    UTF-8 is a ParseError on its line."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:  # exc.start counts from after the mark
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}: not UTF-8 text", line=line) from None
    # the check saves two scans of a file without "\r", the usual case
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


# ---------------------------------------------------------------- graphs

def write_graph(g: WeightedGraph, path) -> None:
    """Symmetric coordinate MatrixMarket, lower triangle, 1-based."""
    Path(path).write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        f"{g.n} {g.n} {g.edge_count}\n"
        + _format_rows("%d %d %.17g\n", g.cols + 1, g.rows + 1, g.weights)
    )


def write_labels(g: WeightedGraph, path) -> None:
    """CSV sidecar: node_id,group_id[,subgroup_id]; 0-based node ids."""
    if g.labels is None:
        raise InputError("graph carries no labels to write")
    nodes = np.flatnonzero(g.labels >= 0)
    groups = g.labels[nodes]
    if g.sublabels is None:
        text = "node_id,group_id\n" + _format_rows("%d,%d\n", nodes, groups)
    else:
        subs = g.sublabels[nodes]
        subs = np.where(subs >= 0, subs.astype(str), "")  # an empty cell for -1
        text = "node_id,group_id,subgroup_id\n" + _format_rows("%d,%d,%s\n", nodes, groups, subs)
    Path(path).write_text(text)


def _blank_or_comment(line: str) -> bool:
    s = line.strip()
    return not s or s.startswith("%")


_INDEX_MAX = int(np.iinfo(np.int64).max)  # node and group ids are stored as int64


def _mm_preamble(lines: list[str], path):
    """Header and size line -> (field, symmetry, n, m, line number of the size line)."""
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
    for lineno, raw in enumerate(lines[1:], start=2):
        if _blank_or_comment(raw):
            continue
        toks = raw.split()
        if len(toks) != 3:
            raise ParseError("expected 'rows cols nnz'", line=lineno)
        try:
            r, c, m = (int(t) for t in toks)
        except ValueError:
            raise ParseError("non-integer size line", line=lineno) from None
        if r != c:
            raise ParseError(f"matrix must be square, got {r}x{c}", line=lineno)
        if r > _INDEX_MAX:
            raise ParseError(f"matrix size {r} exceeds {_INDEX_MAX}", line=lineno)
        if r < 1:
            raise ParseError("empty matrix", line=lineno)
        return field, symmetry, r, m, lineno
    raise ParseError("missing size line", line=len(lines))


_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("w", np.float64)])
# Data lines made of these characters alone split and convert the same way
# in np.loadtxt as in str.split, int and float; any other character (a
# comment, "nan", "1_0", a form feed that splitlines breaks on) is left to
# the line scan.
_PLAIN = str.maketrans("", "", "0123456789+-.eE \t\n")


def _mm_scan(lines: list[str], path):
    """_mm_entries one line at a time: the first bad line raises."""
    field, symmetry, n, m, size_line = _mm_preamble(lines, path)
    entries = []
    for lineno, raw in enumerate(lines[size_line:], start=size_line + 1):
        if _blank_or_comment(raw):
            continue
        toks = raw.split()
        if len(toks) != 3:
            raise ParseError("expected 'i j value'", line=lineno)
        try:
            i, j = int(toks[0]), int(toks[1])
            w = float(toks[2])
        except ValueError:
            raise ParseError(f"bad entry {raw.strip()!r}", line=lineno) from None
        if not math.isfinite(w):
            raise ParseError(f"non-finite value {toks[2]!r}", line=lineno)
        if field == "integer" and float(int(float(toks[2]))) != w:
            raise ParseError("non-integer value in integer matrix", line=lineno)
        if not (1 <= i <= n and 1 <= j <= n):
            raise ParseError(f"index ({i}, {j}) out of range 1..{n}", line=lineno)
        entries.append((lineno, i - 1, j - 1, w))
    if len(entries) != m:
        raise ParseError(f"declared {m} entries, found {len(entries)}", line=len(lines))
    rec = np.array(entries, dtype=[("line", np.int64)] + _ENTRY.descr)
    return n, symmetry, field, rec["line"], rec["i"], rec["j"], rec["w"]


def _mm_bulk(text: str, path):
    """_mm_entries in one np.loadtxt call, or None when only the line scan can
    tell. Each copy of the file's text is dropped once the next is made."""
    start = count = 0
    while True:  # the header, comment lines and the size line
        end = text.find("\n", start)
        if end < 0:
            return None
        line, start, count = text[start:end], end + 1, count + 1
        if count > 1 and not _blank_or_comment(line):
            break
    lines = text[:start].splitlines()
    if len(lines) != count:
        return None  # a line break other than "\n" in the preamble
    field, symmetry, n, m, size_line = _mm_preamble(lines, path)
    body = text[start:]
    del text
    # one entry on every line, so entry e sits on line size_line + 1 + e
    if m < 1 or body.translate(_PLAIN) or m != body.count("\n") + (not body.endswith("\n")):
        return None
    data = body.encode()  # bytes: a StringIO would hold 4 bytes per character
    del body
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # e.g. numpy < 2 reading "1.0" as an integer
        try:
            rec = np.loadtxt(io.BytesIO(data), dtype=_ENTRY, comments=None, ndmin=1)
        except (ValueError, Warning):
            return None
    del data
    if rec.size != m:  # a blank line
        return None
    i, j, w = rec["i"] - 1, rec["j"] - 1, rec["w"].copy()
    del rec
    if (
        min(i.min(), j.min()) < 0
        or max(i.max(), j.max()) >= n
        or not np.isfinite(w).all()
        or (field == "integer" and not np.array_equal(np.trunc(w), w))
    ):
        return None
    return n, symmetry, field, range(size_line + 1, size_line + 1 + m), i, j, w


def _mm_entries(path):
    """-> (n, symmetry, field, line, i, j, w): per-entry arrays, 0-based i, j,
    and line[e], the line entry e sits on.

    Errors name the first bad line in file order. Valid files are read in
    bulk; anything the bulk read cannot vouch for goes through the line scan,
    which reads the file again and raises the error or builds the same arrays.
    """
    return _mm_bulk(_read_text(path), path) or _mm_scan(_read_text(path).splitlines(), path)


def _node_rows(path, n: int, widths, columns: str, what: str, parse):
    """Yield (line, node, *values) for each data row of a CSV keyed by node id.

    Blank lines are skipped, and so is a first non-blank line whose first
    cell float() rejects (a header); any other line is a data row. parse turns a
    row's cells into (node, *values) or raises ValueError. A column count
    outside widths, a cell parse rejects, a node outside 0..n-1 or a
    repeated node is a ParseError naming its line.
    """
    seen = np.zeros(n, dtype=bool)
    first = True
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        s = raw.strip()
        if not s:
            continue
        cells = [t.strip() for t in s.split(",")]
        if first:
            first = False
            try:
                float(cells[0])
            except ValueError:
                continue  # header row
        if len(cells) not in widths:
            raise ParseError(f"expected {columns}", line=lineno)
        try:
            node, *values = parse(cells)
        except ValueError:
            raise ParseError(f"bad {what} row {s!r}", line=lineno) from None
        if not 0 <= node < n:
            raise ParseError(f"node {node} outside 0..{n - 1}", line=lineno)
        if seen[node]:
            raise ParseError(f"duplicate {what} for node {node}", line=lineno)
        seen[node] = True
        yield lineno, node, *values


def parse_labels(path, n: int):
    """-> (labels, sublabels or None) as int64 arrays of length n, -1 where a
    node has no row (or no subgroup); accepts an optional header row. Group
    and subgroup ids must lie in 0..2^63-1, since -1 marks "unlabeled"."""
    labels = np.full(n, -1, dtype=np.int64)
    sublabels = np.full(n, -1, dtype=np.int64)
    rows = _node_rows(
        path, n, (2, 3), "node_id,group_id[,subgroup_id]", "label",
        lambda t: (int(t[0]), int(t[1]), int(t[2]) if len(t) == 3 and t[2] != "" else None),
    )
    for lineno, node, group, sub in rows:
        for what, value in (("group", group), ("subgroup", sub)):
            if value is not None and not 0 <= value <= _INDEX_MAX:
                raise ParseError(f"{what} {value} outside 0..{_INDEX_MAX}", line=lineno)
        labels[node] = group
        sublabels[node] = -1 if sub is None else sub
    return labels, (sublabels if (sublabels >= 0).any() else None)


def _repeats(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """-> (order, again): the stable lexsort of the pairs (a, b), and whether
    each pair occurs at an earlier index."""
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    again = np.zeros(order.size, dtype=bool)
    again[order[1:]] = (a[1:] == a[:-1]) & (b[1:] == b[:-1])
    return order, again


def parse_graph(path, label_path=None) -> WeightedGraph:
    """Read a MatrixMarket graph (symmetric or general storage).

    General storage may carry each undirected edge once or as a mirrored
    pair with equal weights; conflicting mirror weights are rejected.
    """
    n, symmetry, _, line, i, j, w = _mm_entries(path)
    lo, hi = _canonical_pairs(i, j)
    if not (i == j).any() and _sorted_distinct(lo, hi):
        # each edge once, in canonical order, as write_graph writes them: no
        # repeat or mirror, so only a negative weight can be wrong
        if (w < 0).any():
            e = int(np.argmax(w < 0))
            raise NegativeWeight(int(lo[e]), int(hi[e]))
    else:
        order, again = _repeats(lo, hi)
        conflict = np.zeros_like(again)
        if symmetry == "symmetric":
            dup = again
        else:
            # a key's second entry is its mirror (or a duplicate, which wins)
            dup = _repeats(i, j)[1]
            ws = w[order]
            conflict[order[1:]] = ws[1:] != ws[:-1]
            conflict &= again
        # the first bad entry in file order, its checks in this order
        defects = np.stack([i == j, w < 0, dup, conflict])
        if defects.any():
            e = int(defects.any(axis=0).argmax())
            kind = int(defects[:, e].argmax())
            a, b = int(lo[e]), int(hi[e])
            if kind == 0:
                raise ParseError("self-loops are not allowed", line=int(line[e]))
            if kind == 1:
                raise NegativeWeight(a, b)
            if kind == 2:
                raise DuplicateEdge(a, b) if symmetry == "symmetric" else DuplicateEdge(int(i[e]), int(j[e]))
            raise ParseError(f"mirrored entries for ({a}, {b}) disagree", line=int(line[e]))
        keep = order[~again[order]]  # each key's first entry, in sorted key order
        lo, hi, w = lo[keep], hi[keep], w[keep]
    labels = sublabels = None
    if label_path is not None:
        labels, sublabels = parse_labels(label_path, n)
    return WeightedGraph(n, lo, hi, w, labels, sublabels)


# ------------------------------------------------------------- migration

def parse_migration(flows_path, populations_path) -> MigrationInput:
    """Flows as integer MatrixMarket; populations as CSV node_id,population.

    Errors come in this order: the first self-flow, repeated flow or count
    beyond int64 in file order, as for parse_graph's edges; a bad population
    row (populations must be finite); a negative count; the asymmetric flow
    with the smallest (i, j), i < j; a non-positive population.
    """
    n, symmetry, field, line, i, j, w = _mm_entries(flows_path)
    if field != "integer":
        raise ParseError("flow matrix must use the integer field", line=1)
    lo, hi = _canonical_pairs(i, j)
    order, again = _repeats(lo, hi)
    # symmetric storage keys a flow by its unordered pair, general by (row, col)
    a, b, dup = (lo, hi, again) if symmetry == "symmetric" else (i, j, _repeats(i, j)[1])
    defects = np.stack([i == j, dup, np.abs(w) >= 2.0**63])
    if defects.any():
        e = int(defects.any(axis=0).argmax())
        kind = int(defects[:, e].argmax())
        if kind == 1:
            raise DuplicateEdge(int(a[e]), int(b[e]))
        what = "self-flows are not allowed" if kind == 0 else f"flow count {w[e]:.17g} beyond int64"
        raise ParseError(what, line=int(line[e]))

    pops = np.full(n, np.nan)  # nan until the node's row is read
    rows = _node_rows(
        populations_path, n, (2,), "node_id,population", "population",
        lambda t: (int(t[0]), float(t[1])),
    )
    for lineno, node, pop in rows:
        if not math.isfinite(pop):
            raise ParseError(f"non-finite population {pop!r}", line=lineno)
        pops[node] = pop
    missing = np.isnan(pops)
    if missing.any():
        raise MissingPopulation(int(np.argmax(missing)))

    if np.any(w < 0):
        raise InputError("negative flow count")
    first = ~again[order]  # in sorted key order; a key's mirror entry follows it
    if symmetry == "general":
        # a key is asymmetric with one nonzero entry or two that disagree
        ws = w[order]
        mate = np.append(np.where(first[1:], 0.0, ws[1:]), 0.0)
        asym = first & (ws != mate)
        if asym.any():
            e = order[int(asym.argmax())]
            raise AsymmetricFlow(int(lo[e]), int(hi[e]))
    keep = order[first]
    return MigrationInput(WeightedGraph(n, lo[keep], hi[keep], w[keep]), pops)


# ------------------------------------------------------------ spec files

# each spec kind's JSON name; its other keys are the class's dataclass fields
_BEAD_KINDS = {"er": ERBead, "two_module": TwoModuleBead}
_INTERACTION_KINDS = {"path_random": PathRandom, "path_identity": PathIdentity,
                      "global_random": GlobalRandom}


def _kind_json(obj, kinds: dict) -> dict:
    """{"kind": name, then each field in declaration order but an unset label}."""
    kind = {cls: name for name, cls in kinds.items()}[type(obj)]
    return {"kind": kind, **{f.name: v for f in fields(obj) if (v := getattr(obj, f.name)) is not None}}


def spec_to_json(spec: TwoLevelSpec) -> dict:
    return {
        "beads": [_kind_json(b, _BEAD_KINDS) for b in spec.beads],
        "interaction": _kind_json(spec.interaction, _INTERACTION_KINDS),
        "seed": spec.seed,
    }


def _need(doc: dict, key: str, kinds, where: str):
    if key not in doc:
        raise ParseError(f"{where}: missing key {key!r}")
    val = doc[key]
    if not isinstance(val, kinds) or isinstance(val, bool):
        raise ParseError(f"{where}: key {key!r} has the wrong type")
    return val


def _float(doc: dict, key: str, where: str) -> float:
    try:
        return float(_need(doc, key, (int, float), where))
    except OverflowError:  # an integer literal beyond any float
        raise ParseError(f"{where}: key {key!r} is out of range") from None


def _kind_from_json(doc: dict, kinds: dict, kind: str, where: str, **given):
    """The kinds[kind] instance doc describes: given fields as passed, the
    rest read in declaration order; keys the kind does not declare are ignored."""
    if kind not in kinds:
        raise ParseError(f"{where}: unknown kind {kind!r}")
    for f in fields(kinds[kind]):
        if f.name not in given:  # f.type is a string: twolevel's annotations are postponed
            given[f.name] = (
                _float(doc, f.name, where) if f.type == "float" else int(_need(doc, f.name, int, where))
            )
    return kinds[kind](**given)


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
    beads = []
    for pos, b in enumerate(beads_doc):
        if not isinstance(b, dict):
            raise ParseError(f"bead {pos}: must be an object")
        kind = _need(b, "kind", str, f"bead {pos}")
        label = b.get("label")
        if label is not None and (isinstance(label, bool) or not isinstance(label, int)):
            raise ParseError(f"bead {pos}: label must be an integer")
        beads.append(_kind_from_json(b, _BEAD_KINDS, kind, f"bead {pos}", label=label))
    idoc = _need(doc, "interaction", dict, "spec")
    ikind = _need(idoc, "kind", str, "interaction")
    inter = _kind_from_json(idoc, _INTERACTION_KINDS, ikind, "interaction")
    seed = _need(doc, "seed", int, "spec")
    return TwoLevelSpec(tuple(beads), inter, seed)


def load_spec(path) -> TwoLevelSpec:
    return spec_from_json(_read_text(path))


def save_spec(spec: TwoLevelSpec, path) -> None:
    Path(path).write_text(_json_text(spec_to_json(spec)) + "\n")


# ---------------------------------------------------------------- report

def _json_text(obj) -> str:
    """JSON with insertion-ordered keys and floats at 17 significant digits,
    always with a decimal point or an exponent (5.0, not 5). JSON has no nan
    or inf: a non-finite float is a ValueError."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise ValueError(f"cannot serialize {obj} as JSON")
        text = "%.17g" % obj
        return text + ".0" if text.lstrip("-").isdigit() else text
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {_json_text(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_text(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def ipr_csv(basis: Eigenbasis, curve) -> str:
    """ipr.csv: rank,eigenvalue,ipr,degenerate_flag per rank; curve = ipr_curve(basis)."""
    return "rank,eigenvalue,ipr,degenerate_flag\n" + _format_rows(
        "%d,%.17g,%.17g,%d\n", range(basis.k), basis.lambdas, curve, basis.degenerate
    )


def eigvec_csv(v: np.ndarray) -> str:
    """eigvec_<rank>.csv: node,value,csl for each node of a unit eigenvector."""
    return "node,value,csl\n" + _format_rows("%d,%.17g,%.17g\n", range(v.size), v, csl(v))


def transition_json(t: TransitionReport, window: int, tau: float) -> str:
    """transition.json, which the transition command also prints."""
    doc = {"rank": t.rank, "baseline": t.baseline, "factor": t.factor, "window": window, "tau": tau}
    return _json_text(doc) + "\n"


def partition_json(rank: int, p: Partition) -> str:
    """One sweep cut as a JSON object: the sweep command prints it, and
    partitions.json lists one per requested rank."""
    return _json_text({"rank": rank, "conductance": p.conductance, "side": [int(x) for x in p.side]})


def restriction_json(rank, group, size, distance, identical, cut_r, cut_l) -> str:
    """compare-restriction's output: the distance between the restricted and the
    group's own eigenvector, and whether their sweep cuts agree."""
    doc = {
        "rank": rank,
        "group": group,
        "subset_size": size,
        "distance": distance,
        "identical_sweep_cut": identical,
        "conductance_restricted": cut_r.conductance,
        "conductance_local": cut_l.conductance,
    }
    return _json_text(doc) + "\n"


def _write_rank(out: Path, rank: int, v: np.ndarray, hist) -> None:
    """Write eigvec_<rank>.csv for the unit eigenvector v and hist_<rank>.csv
    for its histogram."""
    bins = _format_rows("%.17g,%.17g,%d\n", hist.bin_edges[:-1], hist.bin_edges[1:], hist.counts)
    (out / f"eigvec_{rank}.csv").write_text(eigvec_csv(v))
    (out / f"hist_{rank}.csv").write_text("bin_lo,bin_hi,count\n" + bins)


def _write_ranks(out: Path, report: AnalysisReport, ranks) -> None:
    """Write eigvec_<r>.csv and hist_<r>.csv for each rank r in order."""
    for rank in ranks:
        _write_rank(out, rank, report.basis.vectors[:, rank], report.hists[rank])


def _fork_writer(write) -> int:
    """Fork a child that calls write() -> its pid. The child exits with
    status 0 if write returned, else 1."""
    with warnings.catch_warnings():
        # Python 3.12 warns that forking a process with threads (OpenBLAS's)
        # may deadlock the child. This child only formats with Python and
        # numpy's elementwise code, never calls BLAS or waits on another
        # thread, and leaves through os._exit without running the parent's
        # atexit hooks or flushing its stdio buffers.
        warnings.filterwarnings("ignore", "This process .* is multi-threaded", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        try:
            write()
            os._exit(0)
        finally:  # reached only if a write raised, since os._exit does not return
            os._exit(1)
    return pid


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


class _LockedRanks:
    """Report files of the pairs a one-component Lanczos-route solve locks,
    written while the solve goes on, with 2+ usable CPUs. Within the `with`
    block, _lanczos calls this object with every pair locked so far, (lams,
    rows), after each restart that locks more.

    A locked pair is final, and pairs lock in rank order, so locked row r is
    rank r's S-eigenvector unless a pair locked later sorts above it. When
    no writer child is alive, one is forked (_fork_writer) for the locked
    ranks not yet handed out; it makes each row the returned column with
    the helper spectrum_random_walk uses and writes the rank's files into a
    staging directory beside out. place() moves them into out once the
    final eigenvalues confirm their ranks. Leaving the block, also by an
    exception, ends any child and removes the staging directory, so a
    failed analyze leaves out as it found it.
    """

    def __init__(self, out: Path, g: WeightedGraph, nbins: int):
        self.out, self.root, self.nbins = out, np.sqrt(g.degrees), nbins
        self.stage = self.pid = None
        self.lams: list[float] = []  # the value of each locked rank
        self.done = self.sent = 0  # ranks below done are staged, done..sent-1 being written
        # no children on one CPU, or once a child or the staging failed
        self.broken = _usable_cpus() < 2

    def __enter__(self) -> _LockedRanks:
        from .eigensolver import _on_lock  # not at the top: generate needs no solver

        self.token = _on_lock.set(self)
        return self

    def __exit__(self, *exc) -> None:
        self.token.var.reset(self.token)
        if self.pid is not None:  # a failed solve or report: its files are not wanted
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
        if self.stage is not None:
            shutil.rmtree(self.stage, ignore_errors=True)

    def __call__(self, lams: np.ndarray, rows: np.ndarray) -> None:
        self.lams = lams.tolist()
        if self.broken or (self.pid is not None and not self._reap(os.WNOHANG)):
            return
        ranks = range(self.sent, len(self.lams))
        try:
            if self.stage is None:
                self.stage = Path(tempfile.mkdtemp(prefix=".eigenloc-", dir=self.out.parent))
            self.pid = _fork_writer(partial(self._write, rows, ranks))
        except OSError:
            self.broken = True
            return
        self.sent = len(self.lams)

    def _write(self, rows: np.ndarray, ranks) -> None:
        from .eigensolver import _unit_vector

        for rank in ranks:
            v = rows[rank].copy()
            _unit_vector(v, self.root)
            _write_rank(self.stage, rank, v, histogram(v, self.nbins))

    def _reap(self, flags: int = 0) -> bool:
        """Whether the child has exited; a failed child's ranks go back."""
        pid, status = os.waitpid(self.pid, flags)
        if pid == 0:
            return False
        self.pid = None
        if status == 0:
            self.done = self.sent
        else:
            self.broken, self.sent = True, self.done
        return True

    def confirmed(self, lambdas: np.ndarray) -> int:
        """-> q: ranks below q were handed out and are the final basis's.
        The merge sorts stably, locked rows first in the order they locked,
        so while the final values of ranks 0..q-1 equal the locked ones
        bitwise, no pair sorted above any of them."""
        q = 0
        while q < self.sent and lambdas[q] == self.lams[q]:
            q += 1
        return q

    def place(self, out: Path, report: AnalysisReport, q: int) -> None:
        """Wait for the child, write here the ranks below q it failed to
        write, and move the staged files of the rest into out."""
        if self.pid is not None:
            self._reap()
        staged = min(self.done, q)
        _write_ranks(out, report, range(staged, q))
        for rank in range(staged):
            for kind in ("eigvec", "hist"):
                os.replace(self.stage / f"{kind}_{rank}.csv", out / f"{kind}_{rank}.csv")


def emit_report(report: AnalysisReport, out_dir) -> list[Path]:
    """Write the report as CSV/JSON files; returns the written paths.

    Rank r's eigvec_<r>.csv and hist_<r>.csv are written by worker r % W,
    where W = min(usable CPUs, k): worker 0 is this process, the others are
    forked children, a speed-up only. If a fork, a write or a child fails,
    this process writes every rank again in rank order, as it does alone
    (W = 1). So the bytes written do not depend on W, and on failure the
    IoError names the first failed write in the order of the returned paths.

    The analyze command solves inside a _LockedRanks block: there, with 2+
    usable CPUs, the files of the ranks a one-component Lanczos-route solve
    locks are written during the solve by at most one extra process at a
    time, and _emit_report then writes only the ranks not streamed, and
    rewrites the streamed ranks from the first whose final eigenvalue
    differs bitwise from its locked one (a later pair sorted above it). The
    bytes are the same either way. The streamed files are staged beside
    out_dir and moved in here, so a failed solve writes nothing into it.
    """
    return _emit_report(report, Path(out_dir), None)


def _emit_report(report: AnalysisReport, out: Path, stream: _LockedRanks | None) -> list[Path]:
    """emit_report, with the files of streamed ranks taken from stream."""
    basis = report.basis
    q = stream.confirmed(basis.lambdas) if stream is not None else 0
    todo = range(q, basis.k)  # the ranks not streamed
    nworkers = max(1, min(_usable_cpus(), len(todo)))
    try:
        out.mkdir(parents=True, exist_ok=True)
        spectrum = _format_rows("%d,%.17g,%.17g\n", range(basis.k), basis.lambdas, report.sq_spectrum)
        (out / "spectrum.csv").write_text("rank,eigenvalue,sq_spectrum_frac\n" + spectrum)
        (out / "ipr.csv").write_text(ipr_csv(basis, report.curve))
        pids, failed = [], False
        try:
            for first in range(1, nworkers):
                pids.append(_fork_writer(partial(_write_ranks, out, report, todo[first::nworkers])))
            _write_ranks(out, report, todo[::nworkers])
            if stream is not None:
                stream.place(out, report, q)
        except OSError:  # a failed fork, or a failed write or move of this process
            failed = True
        finally:
            for pid in pids:  # a nonzero status: a write failed, or the child died
                failed |= os.waitpid(pid, 0)[1] != 0
        if failed:  # the single-process write, which raises at the first failed write
            _write_ranks(out, report, range(basis.k))
        groups = _format_rows("%d,%d,%.17g,%.17g\n", *zip(*(report.group_table or ())))
        (out / "groups.csv").write_text("rank,group,l2_frac,l1_frac\n" + groups)
        (out / "transition.json").write_text(transition_json(report.transition, report.window, report.tau))
        parts = ", ".join(partition_json(rank, p) for rank, p in report.partitions)
        (out / "partitions.json").write_text("[" + parts + "]\n")
    except OSError as exc:
        raise IoError(f"cannot write report to {out}: {exc}") from exc
    ranked = [f"{kind}_{rank}.csv" for rank in range(basis.k) for kind in ("eigvec", "hist")]
    names = ["spectrum.csv", "ipr.csv", *ranked, "groups.csv", "transition.json", "partitions.json"]
    return [out / name for name in names]
