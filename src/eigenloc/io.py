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
import warnings
from dataclasses import fields
from functools import cache
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
from .localization import csl
from .operators import MigrationInput, WeightedGraph, _canonical_pairs, _pair_order, _sorted_distinct
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
        + _g17_rows(g.cols + 1, g.rows + 1, g.weights, sep=" ")
    )


def write_labels(g: WeightedGraph, path) -> None:
    """CSV sidecar: node_id,group_id[,subgroup_id]; 0-based node ids."""
    if g.labels is None:
        raise InputError("graph carries no labels to write")
    nodes = np.flatnonzero(g.labels >= 0)
    columns = [nodes, g.labels[nodes]] + ([] if g.sublabels is None else [g.sublabels[nodes]])
    head = "node_id,group_id" + ("" if g.sublabels is None else ",subgroup_id")
    Path(path).write_text(head + "\n" + _g17_rows(*columns))  # an empty cell for subgroup -1


def _blank_or_comment(line: str) -> bool:
    s = line.strip()
    return not s or s.startswith("%")


_INDEX_MAX = int(np.iinfo(np.int64).max)  # node and group ids are stored as int64


def _plain(tokens: list[str]) -> list[str]:
    """A data line's tokens, or ValueError if one holds "_" or a non-ASCII
    character: int and float would read "1_2" as 12 and an Arabic-Indic 2 as 2."""
    text = "".join(tokens)
    if "_" in text or not text.isascii():
        raise ValueError(text)
    return tokens


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
            r, c, m = (int(t) for t in _plain(toks))
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
            i, j, w = _plain(toks)
            i, j, w = int(i), int(j), float(w)
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
    outside widths, a cell parse or _plain rejects, a node outside 0..n-1 or
    a repeated node is a ParseError naming its line.
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
            node, *values = parse(_plain(cells))
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


def _repeats(n: int, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """-> (order, again): the stable lexsort of the pairs (a, b) of nodes
    0..n-1, and whether each pair occurs at an earlier index."""
    order = _pair_order(n, a, b)
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
        order, again = _repeats(n, lo, hi)
        conflict = np.zeros_like(again)
        if symmetry == "symmetric":
            dup = again
        else:
            # a key's second entry is its mirror (or a duplicate, which wins)
            dup = _repeats(n, i, j)[1]
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
    order, again = _repeats(n, lo, hi)
    # symmetric storage keys a flow by its unordered pair, general by (row, col)
    a, b, dup = (lo, hi, again) if symmetry == "symmetric" else (i, j, _repeats(n, i, j)[1])
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
    if isinstance(obj, np.ndarray) and obj.dtype.kind in "iu":  # in one join
        return "[" + ", ".join(map(str, obj.tolist())) + "]"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_text(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# _g17_rows writes the body of every CSV, byte for byte as '%d' and '%.17g'
# do: the eigvec_<r>.csv bodies (most of a report's bytes), the edge and
# label rows, and the small report tables. For
# 1e-300 <= |x| < 1 and E = floor(log10 |x|), the 17 digits are
# |x| 10^(16-E), a number in [1e16, 1e17), rounded half-even to an integer.
# The product is a double-double from Dekker's TwoProduct: 10^(16-E) is
# (hi + lo) 2^s, exact to about 2^-106, with hi split by Veltkamp in the
# tables, and |x| 2^s is an exact scaling. It is off by less than 1e-14, so
# a fraction further than 1e-9 from one half rounds the right way. Whole
# numbers below 1e17 (zeros too) are written as their integer digits; a value
# nearer a tie, and any other |x|, goes to _g17_slow, the one '%' over data
# values left besides _json_text. The tables are cached: emit_report builds
# them writing spectrum.csv, before it forks its writers, which inherit them.

_G17_BLOCK = 8192  # rows per record block


def _words(texts, width: int = 8, right: bool = False) -> np.ndarray:
    """Each text as width bytes, padded with NULs on the right (on the left
    if right), viewed as width // 8 uint64 words."""
    pad = bytes.rjust if right else bytes.ljust
    return np.frombuffer(b"".join(pad(t, width, b"\0") for t in texts), np.uint64).reshape(len(texts), -1)


@cache
def _g17_tables() -> dict:
    """The digit tables of _g17_rows, built on first use. A float field's
    lead word is the sign and what comes before digit d1, right-aligned; its
    code is (layout * 2 + sign) * 10 + d0, where layout 0-3 is
    0.(layout zeros)d0, 4 is d0. and 5 is d0 alone. The masks keep a
    prefix (of digits) or a suffix (of an integer)."""
    i = np.arange(10000)
    four = (np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1) + ord("0")).astype(np.uint8)
    lead = [sign + ([b"0." + b"0" * layout + d0] * 4 + [d0 + b".", d0])[layout]
            for layout in range(6) for sign in (b"", b"-") for d0 in (b"%d" % d for d in range(10))]
    return {
        "four": four.view(np.uint32)[:, 0],
        "zeros": np.sum([i % 10**k == 0 for k in range(1, 5)], axis=0),  # trailing, of each 4 digits
        "prefix": _words([b"\xff" * j for j in range(17)], 16).view(np.complex128)[:, 0],  # 16-byte items
        "suffix": _words([b"\xff" * j for j in range(9)], right=True)[:, 0],
        "lead": _words(lead, right=True)[:, 0],
        "minus": _words([b"-"], right=True)[0, 0],
        "exp": _words([b"e-%02d" % m if m >= 5 else b"" for m in range(320)])[:, 0],
    }


@cache
def _g17_powers() -> dict:
    """10^p = (hi + lo) 2^s with hi in [1, 2), for p < 320; int / int rounds
    correctly. Only a field with a value in [1e-300, 1) builds them."""
    shift = [(10**p).bit_length() - 1 for p in range(320)]
    hi = [10**p / (1 << s) for p, s in enumerate(shift)]
    lo = [(10**p * 2**52 - int(h * 2**52) * (1 << s)) / (1 << (s + 52))
          for p, (s, h) in enumerate(zip(shift, hi))]
    hi = np.array(hi)
    split = hi * 134217729.0  # Veltkamp: 2^27 + 1
    return {"shift": np.array(shift), "hi": hi, "hi_hi": split - (split - hi), "lo": np.array(lo)}


def _g17_scale(a: np.ndarray, e: np.ndarray):
    """-> (ph, pl): a 10^(16-e) as the double-double ph + pl."""
    p, t = 16 - e, _g17_powers()
    y = np.ldexp(a, t["shift"][p])  # exact: a is normal, and so is y
    split = y * 134217729.0
    y_hi = split - (split - y)
    y_lo = y - y_hi
    b, b_hi = t["hi"][p], t["hi_hi"][p]
    b_lo = b - b_hi
    ph = y * b
    pl = (((y_hi * b_hi - ph) + y_hi * b_lo) + y_lo * b_hi) + y_lo * b_lo + y * t["lo"][p]
    return ph, pl


def _g17_fraction(a: np.ndarray):
    """-> (n, e, tie) for each a in [1e-300, 1): its 17 digits n, rounded
    half-even, E = e, and whether it lies within 1e-9 of a rounding tie."""
    e = np.floor(np.log10(a)).astype(np.int64)  # may miss by one next to a power of ten
    ph, pl = _g17_scale(a, e)
    edge = np.flatnonzero((ph <= 1e16) | (ph >= 1e17))
    while edge.size:  # until ph + pl lies in [1e16, 1e17), where ph is a whole number
        hi, lo = ph[edge], pl[edge]
        step = ((hi > 1e17) | (hi == 1e17) & (lo >= 0)).astype(np.int64)
        step -= (hi < 1e16) | (hi == 1e16) & (lo < 0)
        edge = edge[step != 0]
        e[edge] += step[step != 0]
        ph[edge], pl[edge] = _g17_scale(a[edge], e[edge])
    whole = np.floor(pl)
    frac = pl - whole
    return ph.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5), e, np.abs(frac - 0.5) < 1e-9


def _g17_slow(values: np.ndarray) -> str:
    """'%.17g' % x for each value x, right-aligned in 24 characters, the
    longest it prints: the values _g17_field does not write, in one %-operation."""
    return ("%24.17g" * values.size) % tuple(values.tolist())


def _whole(x: np.ndarray) -> np.ndarray:
    """Whether each x is a whole number below 1e17: '%.17g' prints its integer digits."""
    return (np.floor(x) == x) & (x < 1e17)


def _g17_field(x: np.ndarray, rec: np.ndarray, t: dict) -> None:
    """Write '%.17g' % x[i] into row i of rec, a (len(x), 4) uint64 view, as
    the lead word, the digits d1..d16 and the exponent word, with NULs in the
    bytes to drop and in byte 0, which is left for a separator."""
    ax = np.abs(x)
    fast = (ax >= 1e-300) & (ax < 1.0)
    if fast.any():
        n, e, tie = _g17_fraction(np.where(fast, ax, 0.5))
        fast &= ~tie
        carry = n == 10**17  # rounded up into the next decade
        n[carry] = 10**16
        e += carry
        d0 = n // 10**16
        upper, lower = np.divmod(n - d0 * 10**16, 10**8)
        chunks = np.stack([upper // 10**4, upper % 10**4, lower // 10**4, lower % 10**4], axis=1)
        z = t["zeros"][chunks.T]  # trailing zeros of each 4 digits, 4 for 0000
        last = 16 - (z[3] + (z[3] == 4) * (z[2] + (z[2] == 4) * (z[1] + (z[1] == 4) * z[0])))  # d1..d_last stay
        layout = np.where(e >= -4, -1 - e, 5 - (last > 0))
        rec[:, 0] = t["lead"][(layout * 2 + np.signbit(x)) * 10 + d0]
        rec[:, 1:3] = t["four"][chunks].view(np.uint64) & t["prefix"][last].view(np.uint64).reshape(-1, 2)
        rec[:, 3] = t["exp"][-e]
    rows = np.flatnonzero(~fast)
    whole = _whole(ax[rows])  # zeros too
    ints, rows = rows[whole], rows[~whole]
    if ints.size:  # the sign, then the digits
        words = np.empty((ints.size, 4), np.uint64)
        _int_field(ax[ints].astype(np.int64), words[:, 1:], t)
        words[:, 0] = t["minus"] * np.signbit(x[ints])
        rec[ints] = words
    if rows.size:  # right-aligned, the padding spaces turned into NULs
        text = np.frombuffer(_g17_slow(x[rows]).encode(), np.uint8)
        rec[rows] = np.pad(np.where(text == ord(" "), 0, text).reshape(-1, 24), ((0, 0), (8, 0))).view(np.uint64)


def _int_field(v: np.ndarray, rec: np.ndarray, t: dict) -> None:
    """Write '%d' % v[i] (nothing for -1) right-aligned into row i of rec, a
    (len(v), W) uint64 view, most significant word first."""
    top = len(str(v.max(initial=0)))  # digits of the largest value
    digits = np.searchsorted(10 ** np.arange(1, top), v, side="right") + (v >= 0)
    first = rec.shape[1] - (top + 7) // 8  # the first word that holds a digit
    rec[:, :first] = 0
    half = rec.view(np.uint32)  # 4 digits each
    for w in range(first, rec.shape[1]):
        below = 8 * (rec.shape[1] - 1 - w)
        eight = v // 10**below % 10**8 if top > 8 else v
        half[:, 2 * w], half[:, 2 * w + 1] = (t["four"][q] for q in np.divmod(eight, 10**4))
        rec[:, w] &= t["suffix"][np.clip(digits - below, 0, 8)]


def _g17_rows(*columns: np.ndarray, sep: str = ",") -> str:
    """sep.join(fields) + "\n" for each row: '%d' % v of an integer column's
    v >= 0 (empty for -1), '%.17g' % x of a float column's x, which is written
    as the integers it holds if they are all whole and >= 0. A block of rows is
    a record of uint64 words per row: per column the words of _int_field (as
    many as its largest value needs) or _g17_field, with byte 0 free for the
    separator, then the newline. One boolean mask over the bytes drops the NULs."""
    t = _g17_tables()
    columns = [c if c.dtype.kind == "f" and (np.signbit(c).any() or not _whole(c).all())
               else c.astype(np.int64, copy=False) for c in columns]
    widths = [4 if c.dtype.kind == "f" else (len(str(c.max(initial=0))) + (j > 0) + 7) // 8
              for j, c in enumerate(columns)]
    starts = np.cumsum([0] + widths)
    sep_word = np.frombuffer(sep.encode().ljust(8, b"\0"), np.uint64)[0]
    pieces = []
    for a in range(0, len(columns[0]), _G17_BLOCK):
        rec = np.empty((len(columns[0][a : a + _G17_BLOCK]), starts[-1] + 1), np.uint64)
        for j, col in enumerate(columns):
            words = rec[:, starts[j] : starts[j + 1]]
            (_g17_field if col.dtype.kind == "f" else _int_field)(col[a : a + len(rec)], words, t)
            words[:, 0] |= sep_word if j else np.uint64(0)
        rec[:, -1] = ord("\n")  # one nonzero byte, on either byte order
        raw = rec.view(np.uint8)
        pieces.append(raw[raw != 0].tobytes())
    return b"".join(pieces).decode("ascii")


def ipr_csv(basis: Eigenbasis, curve: np.ndarray) -> str:
    """ipr.csv by the row kernel: rank,eigenvalue,ipr,degenerate_flag; curve = ipr_curve(basis)."""
    body = _g17_rows(np.arange(basis.k), basis.lambdas, curve, basis.degenerate)
    return "rank,eigenvalue,ipr,degenerate_flag\n" + body


def eigvec_csv(v: np.ndarray) -> str:
    """eigvec_<rank>.csv: node,value,csl for each node of a unit eigenvector."""
    return "node,value,csl\n" + _g17_rows(np.arange(v.size), v, csl(v))


def transition_json(t: TransitionReport, window: int, tau: float) -> str:
    """transition.json, which the transition command also prints."""
    doc = {"rank": t.rank, "baseline": t.baseline, "factor": t.factor, "window": window, "tau": tau}
    return _json_text(doc) + "\n"


def partition_json(rank: int, p: Partition) -> str:
    """One sweep cut as a JSON object: the sweep command prints it, and
    partitions.json lists one per requested rank."""
    return _json_text({"rank": rank, "conductance": p.conductance, "side": p.side.astype(np.int64)})


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


def _write_ranks(out: Path, report: AnalysisReport, ranks) -> None:
    """Write eigvec_<r>.csv and hist_<r>.csv for each rank r in order. The
    hist bodies of a run of ranks, at most _G17_BLOCK rows or else one rank,
    come from one _g17_rows call cut at each rank's rows: a call per rank
    would cost more than its few dozen rows."""
    ranks = list(ranks)
    rows = np.cumsum([0] + [report.hists[r].counts.size for r in ranks])  # before each rank
    first = 0
    while first < len(ranks):
        stop = max(first + 1, np.searchsorted(rows, rows[first] + _G17_BLOCK, "right") - 1)
        run = ranks[first:stop]
        columns = zip(*((h.bin_edges[:-1], h.bin_edges[1:], h.counts) for h in (report.hists[r] for r in run)))
        body = _g17_rows(*map(np.concatenate, columns))  # bin_lo, bin_hi, count
        ends = np.flatnonzero(np.frombuffer(body.encode(), np.uint8) == ord("\n")) + 1
        cuts = [0, *ends[rows[first + 1 : stop + 1] - rows[first] - 1].tolist()]
        for rank, a, b in zip(run, cuts, cuts[1:]):
            (out / f"eigvec_{rank}.csv").write_text(eigvec_csv(report.basis.vectors[:, rank]))
            (out / f"hist_{rank}.csv").write_text("bin_lo,bin_hi,count\n" + body[a:b])
        first = stop


def _fork_writer(out: Path, report: AnalysisReport, ranks) -> int:
    """Fork a child that writes the files of these ranks -> its pid. The
    child exits with status 0 if every write succeeded, else 1."""
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
            _write_ranks(out, report, ranks)
            os._exit(0)
        finally:  # reached only if a write raised, since os._exit does not return
            os._exit(1)
    return pid


def emit_report(report: AnalysisReport, out_dir) -> list[Path]:
    """Write the report as CSV/JSON files; returns the written paths.

    Rank r's eigvec_<r>.csv and hist_<r>.csv are written by worker r % W,
    where W = min(usable CPUs, k): worker 0 is this process, the others are
    forked children, a speed-up only. If a fork, a write or a child fails,
    this process writes every rank again in rank order, as it does alone
    (W = 1). So the bytes written do not depend on W, and on failure the
    IoError names the first failed write in the order of the returned paths.
    """
    basis, out = report.basis, Path(out_dir)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    nworkers = min(cpus, basis.k)
    try:
        out.mkdir(parents=True, exist_ok=True)
        spectrum = _g17_rows(np.arange(basis.k), basis.lambdas, report.sq_spectrum)
        (out / "spectrum.csv").write_text("rank,eigenvalue,sq_spectrum_frac\n" + spectrum)
        (out / "ipr.csv").write_text(ipr_csv(basis, report.curve))
        pids, failed = [], False
        try:
            for first in range(1, nworkers):
                pids.append(_fork_writer(out, report, range(first, basis.k, nworkers)))
            _write_ranks(out, report, range(0, basis.k, nworkers))
        except OSError:  # a failed fork, or a failed write of this process
            failed = True
        finally:
            for pid in pids:  # a nonzero status: a write failed, or the child died
                failed |= os.waitpid(pid, 0)[1] != 0
        if failed:  # the single-process write, which raises at the first failed write
            _write_ranks(out, report, range(basis.k))
        groups = _g17_rows(*map(np.array, zip(*report.group_table))) if report.group_table else ""
        (out / "groups.csv").write_text("rank,group,l2_frac,l1_frac\n" + groups)
        (out / "transition.json").write_text(transition_json(report.transition, report.window, report.tau))
        parts = ", ".join(partition_json(rank, p) for rank, p in report.partitions)
        (out / "partitions.json").write_text("[" + parts + "]\n")
    except OSError as exc:
        raise IoError(f"cannot write report to {out}: {exc}") from exc
    ranked = [f"{kind}_{rank}.csv" for rank in range(basis.k) for kind in ("eigvec", "hist")]
    names = ["spectrum.csv", "ipr.csv", *ranked, "groups.csv", "transition.json", "partitions.json"]
    return [out / name for name in names]
