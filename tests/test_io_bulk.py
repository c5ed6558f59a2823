"""Differential tests: bulk MatrixMarket parsing, the row-kernel writers and
the table-driven spec codec against the per-line, per-value and per-kind
reference implementations in helpers."""
import functools
import itertools
import json
import os
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import eigenloc.diagnostics as diagnostics
from eigenloc import (
    AnalysisReport,
    Eigenbasis,
    ERBead,
    GlobalRandom,
    Histogram,
    Partition,
    PathIdentity,
    TwoLevelSpec,
    TwoModuleBead,
    PathRandom,
    TransitionReport,
    analyze,
    emit_report,
    generate_bead_chain,
    parse_graph,
    parse_migration,
    spec_from_json,
    spec_to_json,
    spectrum_random_walk,
    write_graph,
    write_labels,
)
from eigenloc import io as eio
from eigenloc.cli import main
from eigenloc.errors import AsymmetricFlow, InputError, ParseError
from eigenloc.localization import csl
from eigenloc.operators import WeightedGraph
from helpers import (
    percent_rows,
    ref_emit_report,
    ref_fmt,
    ref_mm_entries,
    ref_parse_graph,
    ref_parse_migration,
    ref_spec_from_json,
    ref_spec_to_json,
    ref_write_graph,
    ref_write_labels,
)

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
           1.7976931348623157e308, -1.7976931348623157e308, 1 / 3, -2.5, 1.0, 1e16, 123456789.0]


# ------------------------------------------------------------------ parsing

def _outcome(fn, path, convert):
    """What a parse returns (through `convert`) or raises, comparable across parsers."""
    try:
        return convert(fn(path))
    except Exception as exc:  # every exception type is part of the contract
        return ("raise", type(exc), str(exc), getattr(exc, "line", None))


def _graph(g):
    # weights compared bitwise, so -0.0 != 0.0
    return "graph", g.n, g.rows.tolist(), g.cols.tolist(), g.weights.view(np.int64).tolist()


def _entries(res):
    # the bulk read gives the entries' lines as a range, the line scan as an array
    n, symmetry, field, *arrays = res
    return n, symmetry, field, list(zip(*(np.asarray(a).tolist() for a in arrays)))


INDEX_STYLES = ["{}", "{}", "{}", "+{}", "0{}"]
REAL_STYLES = ["{!r}", "{:.17g}", "{:e}", "{:.3f}", "{:.17G}"]
DEFECTS = [
    "bad_token", "count", "trailing_comment", "out_of_range", "self_loop",
    "negative", "duplicate", "mirror_conflict", "nonfinite", "body_comment",
    "body_blank", "underscore", "float_index",
]


@st.composite
def mm_files(draw, defects=True):
    n = draw(st.integers(2, 12))
    symmetry = draw(st.sampled_from(["symmetric", "general"]))
    field = draw(st.sampled_from(["real", "integer"]))
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                         .filter(lambda p: p[0] != p[1]).map(lambda p: (min(p), max(p))),
                         min_size=1, max_size=20))
    pairs = draw(st.permutations(sorted(pairs)))

    def weight():
        if field == "integer":
            return draw(st.sampled_from(["{}", "{}.0", "+{}", "{}e0"])).format(
                draw(st.integers(0, 10**6)))
        x = draw(st.one_of(
            st.floats(0, 1e300, allow_subnormal=True),
            st.sampled_from([0.0, -0.0, 5e-324, 1.7976931348623157e308, 1.0, 2.0]),
        ))
        return draw(st.sampled_from(REAL_STYLES)).format(x)

    def index(v):
        return draw(st.sampled_from(INDEX_STYLES)).format(v + 1)

    sep = draw(st.sampled_from([" ", " ", "\t", "  "]))
    rows = []  # data lines as token lists (1-based ids)
    for a, b in pairs:
        if symmetry == "symmetric" or draw(st.booleans()):
            a, b = (b, a) if draw(st.booleans()) else (a, b)
            rows.append([index(a), index(b), weight()])
        else:  # general storage, stored as a mirrored pair
            w = weight()
            rows.append([index(b), index(a), w])
            rows.append([index(a), index(b), w])
    count = len(rows)
    extra = {}  # position -> non-data lines to put before that data line
    kinds = draw(st.lists(st.sampled_from(DEFECTS), max_size=2)) if defects else []
    for kind in kinds:
        pos = draw(st.integers(0, len(rows) - 1))
        row = rows[pos]
        if kind == "bad_token":
            row[draw(st.integers(0, 2))] = draw(st.sampled_from(["x", "1x", "", "--1", "0x1", "1,2"]))
        elif kind == "count":
            count += draw(st.sampled_from([-1, 1]))
        elif kind == "trailing_comment":
            row.append("% note")
        elif kind == "out_of_range":
            row[draw(st.integers(0, 1))] = draw(st.sampled_from(["0", str(n + 1), "-1"]))
        elif kind == "self_loop":
            row[1] = row[0]
        elif kind == "negative":
            row[2] = "-" + row[2].lstrip("+-")
        elif kind == "duplicate":
            dup = list(row) if symmetry == "general" or draw(st.booleans()) else [row[1], row[0], row[2]]
            rows.insert(draw(st.integers(pos + 1, len(rows))), dup)
            count += 1
        elif kind == "mirror_conflict":
            rows.insert(draw(st.integers(pos + 1, len(rows))), [row[1], row[0], "7"])
            count += 1
        elif kind == "nonfinite":
            row[2] = draw(st.sampled_from(["nan", "inf", "-inf", "NaN", "1e400"]))
        elif kind == "body_comment":
            extra.setdefault(pos, []).append("% comment in the body")
        elif kind == "body_blank":
            extra.setdefault(pos, []).append(draw(st.sampled_from(["", "   ", "\t"])))
        elif kind == "underscore":
            row[0] = row[0][0] + "_" + row[0][1:] if len(row[0]) > 1 else row[0]
        elif kind == "float_index":
            row[draw(st.integers(0, 1))] += ".0"
    head = [draw(st.sampled_from([
        f"%%MatrixMarket matrix coordinate {field} {symmetry}",
        f"%%MatrixMarket MATRIX Coordinate {field.upper()} {symmetry.title()}",
    ]))]
    head += draw(st.lists(st.sampled_from(["% generated", "", "%", "  % indented"]), max_size=2))
    head.append(f"{n} {n} {count}")
    body = []
    for pos, row in enumerate(rows):
        body += extra.get(pos, [])
        lead = draw(st.sampled_from(["", "", " "]))
        body.append(lead + sep.join(row))
    end = draw(st.sampled_from(["\n", "\n", ""]))
    return "\n".join(head + body) + end


def _check_same(path):
    got = _outcome(parse_graph, path, _graph)
    assert got == _outcome(ref_parse_graph, path, _graph)
    assert _outcome(eio._mm_entries, path, _entries) == _outcome(ref_mm_entries, path, tuple)
    return got


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=mm_files(defects=False))
def test_bulk_parse_matches_reference_on_valid_files(tmp_path, text):
    path = tmp_path / "g.mtx"
    path.write_text(text)
    assert _check_same(path)[0] == "graph"


@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=mm_files())
def test_bulk_parse_matches_reference_on_defects(tmp_path, text):
    path = tmp_path / "g.mtx"
    path.write_text(text)
    _check_same(path)


@pytest.mark.parametrize(
    "text",
    [
        # loadtxt alone would read each of these; the line scan rejects them
        "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 1.0 % note\n3 2 1.0\n",
        "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 1.0\n3 2\x0c1.0\n",
        "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 1.0\n3 2 1e400\n",
        "%%MatrixMarket matrix coordinate integer symmetric\n3 3 2\n2 1 1\n3 2 1.5\n",
        "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 1.0\n\n3 3 1.0\n",
        "%%MatrixMarket matrix coordinate real symmetric\n% a\x0bcomment\n3 3 1\n2 1 1.0\n",
        "%%MatrixMarket matrix coordinate real general\n3 3 3\n2 1 1.0\n1 2 2.0\n2 1 1.0\n",
        "%%MatrixMarket matrix coordinate real general\n3 3 3\n2 1 1.0\n2 1 1.0\n1 2 2.0\n",
        "%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n2 1 1.0\n3 3 -1.0\n3 2 x\n",
        # only int() and float() read these: same graph as the line scan
        "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 1_0\n3 2 1.0\n",
        "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 1.0\n3 2 ١\n",
        "%%MatrixMarket matrix coordinate real symmetric\n3 3 0\n",
        "%%MatrixMarket matrix coordinate real symmetric\n3 3 1",
        "",
    ],
)
def test_bulk_parse_matches_reference_on_edge_cases(tmp_path, text):
    path = tmp_path / "g.mtx"
    path.write_text(text)
    _check_same(path)


def _flows(m):
    f = m.flows
    return "flows", f.n, f.rows.tolist(), f.cols.tolist(), f.weights.tolist(), m.pops.tolist()


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=mm_files())
def test_migration_flows_match_reference(tmp_path, text):
    path, pops = tmp_path / "flows.mtx", tmp_path / "pops.csv"
    path.write_text(text)
    try:
        n = ref_mm_entries(path)[0]
    except ParseError:
        n = 1  # both readers fail on the flows before the populations
    pops.write_text("node_id,population\n" + "".join(f"{v},{v + 1}\n" for v in range(n)))
    got = _outcome(lambda p: parse_migration(p, pops), path, _flows)
    want = _outcome(lambda p: ref_parse_migration(p, pops), path, _flows)
    if want[:2] == ("raise", AsymmetricFlow) and got[:3] == ("raise", InputError, "negative flow count"):
        # the one intended difference: MigrationInput checks signs before
        # symmetry, where the reader used to report the asymmetry first
        return
    assert got == want


def test_trailing_comment_is_a_parse_error_on_its_line(tmp_path):
    path = tmp_path / "g.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 1.0\n3 2 1.0 % note\n")
    with pytest.raises(eio.ParseError) as exc:
        parse_graph(path)
    assert exc.value.line == 4


def test_written_graphs_take_the_bulk_read(tmp_path):
    g = generate_bead_chain(
        TwoLevelSpec((TwoModuleBead(30, 30, 0.3, 0.05),) * 3, PathRandom(0.01), seed=5)
    )
    path = tmp_path / "g.mtx"
    write_graph(g, path)
    assert eio._mm_bulk(path.read_text(), path) is not None
    back = parse_graph(path)
    assert np.array_equal(back.rows, g.rows) and np.array_equal(back.cols, g.cols)
    assert np.array_equal(back.weights, g.weights)


# ------------------------------------------------------------------ writers

def _chain(beads, size, p, seed):
    return generate_bead_chain(
        TwoLevelSpec((TwoModuleBead(size, size, 0.2, 0.02),) * beads, PathRandom(p), seed=seed)
    )


def _same_files(a, b):
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def _label_dicts(g):
    """The graph's labels as the node -> group dicts the reference writer reads."""
    def as_dict(a):
        return None if a is None else {v: int(a[v]) for v in np.flatnonzero(a >= 0).tolist()}
    return SimpleNamespace(labels=as_dict(g.labels), sublabels=as_dict(g.sublabels))


def _check_writers(g, report, tmp_path):
    if report is not None:
        new, ref = tmp_path / "new", tmp_path / "ref"
        written = emit_report(report, new)
        ref_written = ref_emit_report(report, ref)
        assert [p.name for p in written] == [p.name for p in ref_written]
        _same_files(new, ref)
    write_graph(g, tmp_path / "new.mtx")
    ref_write_graph(g, tmp_path / "ref.mtx")
    assert (tmp_path / "new.mtx").read_bytes() == (tmp_path / "ref.mtx").read_bytes()
    if g.labels is not None:
        write_labels(g, tmp_path / "new.csv")
        ref_write_labels(_label_dicts(g), tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_writers_match_reference_full_spectrum(tmp_path):
    g = _chain(4, 50, 0.01, seed=3)
    assert g.n == 400
    _check_writers(g, analyze(g, k=400, sweep_ranks=(1, 2)), tmp_path)


def test_writers_match_reference_subset_route(tmp_path):
    g = _chain(6, 100, 0.002, seed=4)
    report = analyze(g, k=100, sweep_ranks=(1,))
    assert report.basis.solves == (("evr", 1200, 101),)  # n / 20 < k <= n / 8
    _check_writers(g, report, tmp_path)


def test_writers_match_reference_lanczos_route(tmp_path, monkeypatch):
    g = _chain(3, 40, 0.01, seed=6)
    monkeypatch.setattr(
        diagnostics, "spectrum_random_walk", functools.partial(spectrum_random_walk, dense_limit=10)
    )
    report = analyze(g, k=12, sweep_ranks=(2,))
    assert report.basis.solves == (("lanczos", 240, 13),)
    _check_writers(g, report, tmp_path)


def test_writers_match_reference_on_special_values(tmp_path):
    vals = np.array(SPECIAL)
    assert eio._g17_rows(np.arange(vals.size), vals) == "".join(
        f"{j},{ref_fmt(x)}\n" for j, x in enumerate(vals)
    )
    v = np.array([1.0, -0.0, 0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308])
    assert eio.eigvec_csv(v) == "node,value,csl\n" + "".join(
        f"{j},{ref_fmt(x)},{ref_fmt(x * x)}\n" for j, x in enumerate(v)
    )
    w = np.array([5e-324, 1.7976931348623157e308, 2.2250738585072014e-308, 1 / 3, 1e16])
    g = WeightedGraph(6, np.arange(5), np.arange(1, 6), w, np.arange(6) % 2,
                      np.array([3, -1, 1, -1, -1, 0]))
    _check_writers(g, None, tmp_path)


def _hand_built_report(k, bins, group_table, transition_rank):
    """An AnalysisReport of special values on 4 nodes: eigenvalues 1, -0.0
    and -1, an IPR of exactly 1.0, hist counts 0 and 2^53, and bins[r] rows
    in rank r's histogram."""
    half = np.full(4, 0.5)
    vectors = np.stack([half, half * [1, -1, 1, -1], [1.0, 0.0, -0.0, 0.0]], axis=1)[:, :k]
    lambdas = np.array([1.0, -0.0, -1.0])[:k]
    basis = Eigenbasis(lambdas, vectors, np.zeros(k), np.array([0, 1, 1])[:k], tail_cut=k == 1)
    hists = []
    for r, nbins in enumerate(bins):
        edges = np.resize([-1.0, -0.0, 0.0, 1 / 3, 1.0, 2.5, 1e16, 5e-324, -2.2250738585072014e-308],
                          nbins + 1) * (r + 1)
        counts = np.roll(np.resize(np.array([0, 2**53, 1, 99_999_999, 100_000_000]), nbins), r)
        hists.append(Histogram(edges, counts))
    curve = np.array([0.25, 0.25, 1.0])[:k]
    baseline = None if transition_rank is None else 0.25
    return AnalysisReport(
        basis=basis,
        sq_spectrum=np.array([0.5, 0.0, 0.5])[:k],
        curve=curve,
        hists=tuple(hists),
        transition=TransitionReport(transition_rank, baseline, None if baseline is None else 4.0),
        partitions=((0, Partition(np.array([True, False, True, False]), 0.5)),),
        group_table=group_table,
        window=1,
        tau=5.0,
    )


@pytest.mark.parametrize("cpus", [{0}, {0, 1}])
def test_report_writer_matches_reference_on_a_hand_built_report(tmp_path, monkeypatch, cpus):
    # rank runs cut at their row counts: at 4,000 + 4,000 + 9,000 rows one writer formats
    # ranks 0 and 1 in one kernel call and rank 2, longer than a block, alone
    assert 4000 + 4000 <= eio._G17_BLOCK < 4000 + 9000
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    big = 2**63 - 1
    cases = [
        (1, [1], None, None),
        (1, [1], (), 0),
        (3, [1, 2, 3], ((0, big, 1.0, 1.0), (1, 0, 0.5, 0.25), (2, big, -0.0, 1 / 3)), None),
        (3, [4000, 4000, 9000], ((0, 7, 0.5, 0.5), (0, big, 0.5, 0.5)), 2),
    ]
    rows, g17_rows = [], eio._g17_rows

    def spy(*columns, **kw):  # the row count of each kernel call this process makes
        rows.append(len(columns[0]))
        return g17_rows(*columns, **kw)

    monkeypatch.setattr(eio, "_g17_rows", spy)
    for i, (k, bins, group_table, transition_rank) in enumerate(cases):
        report = _hand_built_report(k, bins, group_table, transition_rank)
        new, ref = tmp_path / f"new{i}", tmp_path / f"ref{i}"
        assert [p.name for p in emit_report(report, new)] == [p.name for p in ref_emit_report(report, ref)]
        _same_files(new, ref)
    assert max(rows) == 9000  # no run of ranks beyond a block, unless it is one rank


# ------------------------------------------------------ %.17g row kernel

def _g17_reference(values) -> str:
    return "".join("%d,%.17g\n" % (i, x) for i, x in enumerate(np.asarray(values, dtype=float).tolist()))


@pytest.fixture
def slow_values(monkeypatch):
    """The values the row kernel hands to its per-value fallback, in order."""
    seen = []
    slow = eio._g17_slow

    def spy(values):
        seen.extend(values.tolist())
        return slow(values)

    monkeypatch.setattr(eio, "_g17_slow", spy)
    return seen


FINITE_BITS = st.integers(0, 2**64 - 1).filter(lambda b: (b >> 52) & 0x7FF != 0x7FF)


@settings(max_examples=300, deadline=None)
@given(st.lists(FINITE_BITS, min_size=1, max_size=40))
def test_g17_rows_match_percent_format_on_raw_bit_patterns(patterns):
    # every finite double: half the exponent field lies in the kernel's 1e-300 <= |x| < 1
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    assert eio._g17_rows(np.arange(values.size), values) == _g17_reference(values)


def _ulps(x, steps):
    out = [x]
    for direction in (0.0, np.inf):
        y = x
        for _ in range(steps):
            y = float(np.nextafter(y, direction))
            out.append(y)
    return out


def test_g17_rows_match_percent_format_on_edge_values(slow_values):
    edge = [0.0, -0.0, 5e-324, 1.0, 0.9999999999999999]
    edge += _ulps(1e-300, 2)  # the kernel's lower bound
    for e in range(-310, 1):  # powers of ten: the estimate of E misses by one next to them
        edge += _ulps(float(f"1e{e}"), 2) + [float(f"9.99999999999999995e{e}")]
    edge += _ulps(1e-5, 3) + _ulps(1e-4, 3)  # where %g switches from fixed to exponent notation
    edge += [1e-99, 1.2345e-99, 1e-100, 9.87654321e-100]  # 2- and 3-digit exponents
    whole = [2.0, 10.0, 99999999.0, 100000000.0, 2.0**53, 1e16, 99999999999999984.0]  # below 1e17
    edge += whole
    # exact ties: x 10^(16 - E) ends in .5 for x = m 2^-(17 - E), m odd
    odd = {-1: (26215, 99999, 262143), -2: (5243, 31111), -5: (43, 419)}
    ties = [m / 2.0 ** (17 - e) for e, ms in odd.items() for m in ms]
    values = np.array(edge + ties + [-x for x in edge + ties])
    assert eio._g17_rows(np.arange(values.size), values) == _g17_reference(values)
    assert set(ties) <= set(slow_values)  # within 1e-9 of a tie: left to '%.17g'
    assert 0.0 not in slow_values  # zeros are the kernel's own
    assert not {abs(x) for x in slow_values} & set(whole)  # and so are whole numbers
    for column in ([-0.0, 1.0, 2.0], [0.0, -1.0, 3.0], [0.0, 1.0, 1e16]):  # a -0 keeps its sign
        values = np.array(column)
        assert eio._g17_rows(np.arange(3), values) == _g17_reference(values)


def test_g17_rows_take_no_fallback_on_a_dense_mid_chain_report(slow_values):
    # a drift back to the per-value path shows as a count here, not only as time
    basis = spectrum_random_walk(_chain(8, 250, 0.002, seed=29), k=100)
    assert basis.solves == (("lanczos", 4000, 101),)
    for rank in range(basis.k):
        v = basis.vectors[:, rank]
        assert eio.eigvec_csv(v) == "node,value,csl\n" + percent_rows(
            "%d,%.17g,%.17g\n", range(v.size), v, csl(v)
        ), rank
    assert slow_values == []


def test_cli_ipr_and_csl_match_analyze_report(tmp_path):
    g = _chain(2, 40, 0.05, seed=2)
    graph = tmp_path / "g.mtx"
    write_graph(g, graph)
    assert main(["analyze", str(graph), "--k", "12", "--out", str(tmp_path / "rep")]) == 0
    assert main(["ipr", str(graph), "--k", "12", "--out", str(tmp_path / "ipr.csv")]) == 0
    assert (tmp_path / "ipr.csv").read_bytes() == (tmp_path / "rep" / "ipr.csv").read_bytes()
    for rank in (0, 3, 11):
        out = tmp_path / f"csl_{rank}.csv"
        assert main(["csl", str(graph), "--k", "12", "--rank", str(rank), "--out", str(out)]) == 0
        assert out.read_bytes() == (tmp_path / "rep" / f"eigvec_{rank}.csv").read_bytes()
    # the default k is the same for analyze and csl while rank < 100
    assert main(["analyze", str(graph), "--out", str(tmp_path / "rep_default")]) == 0
    assert main(["csl", str(graph), "--rank", "5", "--out", str(tmp_path / "c.csv")]) == 0
    assert (tmp_path / "c.csv").read_bytes() == (tmp_path / "rep_default" / "eigvec_5.csv").read_bytes()


# --------------------------------------------------------------- spec codec

BEAD_KINDS = ["er", "two_module"]
INTERACTION_KINDS = ["path_random", "path_identity", "global_random"]
# a value that fits each key some kind declares
FITTING = {
    "n": st.integers(1, 12), "n1": st.integers(1, 6), "n2": st.integers(1, 6),
    "p": st.floats(0, 1), "p1": st.floats(0, 1), "p2": st.floats(0, 1),
    "eps": st.floats(1e-3, 10), "label": st.one_of(st.none(), st.integers(0, 5)),
}
# bools, strings and floats where ints belong, 400-digit integer literals,
# out-of-range numbers and containers
ODD = st.one_of(
    st.booleans(), st.text(max_size=2), st.none(), st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True), st.floats(-0.5, 1.5),
    st.sampled_from([10**400, -(10**400), 2**63, 2**63 - 1, 1.0, 0.0, -0.0]),
    st.lists(st.integers(0, 1), max_size=1),
)


def _how(draw) -> str:
    """Whether a key gets a fitting value (most of the time), an odd one or none."""
    return draw(st.sampled_from(["fit"] * 10 + ["odd", "absent"]))


@st.composite
def kind_docs(draw, kinds):
    """An object of some kind: each key a kind may declare holds a fitting
    value, an odd one or is absent, and an undeclared key now and then."""
    doc = {}
    for key in draw(st.permutations(["kind", *FITTING, "extra"])):
        how = _how(draw)
        if how == "absent" or (key == "extra" and how == "fit"):
            continue
        if key == "kind":
            other = st.sampled_from(BEAD_KINDS + INTERACTION_KINDS + ["spiral"])
            doc[key] = draw(st.sampled_from(kinds) if how == "fit" else st.one_of(other, ODD))
        else:
            doc[key] = draw(FITTING[key] if how == "fit" else ODD)
    return doc


@st.composite
def spec_docs(draw):
    """A spec document as a dict, its JSON text or bytes, or something else."""
    size = draw(st.sampled_from([1, 2, 3, 1, 2, 0]))
    parts = {
        "beads": st.tuples(*[st.one_of(kind_docs(BEAD_KINDS), ODD) if _how(draw) == "odd"
                             else kind_docs(BEAD_KINDS) for _ in range(size)]).map(list),
        "interaction": kind_docs(INTERACTION_KINDS),
        "seed": st.one_of(st.integers(0, 2**70), st.just(10**400)),
        "extra": ODD,
    }
    doc = {}
    for key in draw(st.permutations(list(parts))):
        how = _how(draw)
        if how != "absent" and not (key == "extra" and how == "fit"):
            doc[key] = draw(parts[key] if how == "fit" else ODD)
    form = draw(st.sampled_from(["dict", "dict", "dict", "text", "bytes", "odd"]))
    if form == "odd":
        return draw(ODD)
    text = json.dumps(doc)
    return doc if form == "dict" else text if form == "text" else text.encode()


def _spec_outcome(parse, dump, doc):
    """What a codec's parse returns or raises, the warnings it gives, and
    what its dump writes for the spec it returns."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            spec = parse(doc)
            # repr tells 1 from 1.0, -0.0 from 0.0, and a dict's key order
            out = ("spec", repr(spec), repr(dump(spec)))
        except Exception as exc:  # every exception type is part of the contract
            out = ("raise", type(exc), str(exc))
    return out, [str(w.message) for w in seen]


@settings(max_examples=600, deadline=None)
@given(doc=spec_docs())
def test_spec_codec_matches_reference(doc):
    got = _spec_outcome(spec_from_json, spec_to_json, doc)
    assert got == _spec_outcome(ref_spec_from_json, ref_spec_to_json, doc)


ER = {"kind": "er", "n": 3, "p": 0.5}
RANDOM = {"kind": "path_random", "p": 0.1}


@pytest.mark.parametrize(
    "doc, message",
    [
        # a bead's checks: kind, label, unknown kind, then its fields in order
        ({"label": "x", "n": 3}, "bead 0: missing key 'kind'"),
        ({"kind": "spiral", "label": 1.5}, "bead 0: label must be an integer"),
        ({"kind": "spiral", "label": True}, "bead 0: label must be an integer"),
        ({"kind": "spiral", "n": "x"}, "bead 0: unknown kind 'spiral'"),
        ({"kind": "er", "p": "x"}, "bead 0: missing key 'n'"),
        ({"kind": "er", "n": 3.0, "p": "x"}, "bead 0: key 'n' has the wrong type"),
        ({"kind": "er", "n": 0, "p": "x"}, "bead 0: key 'p' has the wrong type"),
        ({"kind": "two_module", "n2": 2, "p1": 0.5, "p2": 0.5}, "bead 0: missing key 'n1'"),
        ({"kind": "two_module", "n1": 2, "n2": 2, "p1": 10**400}, "bead 0: key 'p1' is out of range"),
        ({"kind": "er", "n": 10**400, "p": 0.5}, "bead size must lie in 1..1000000000"),
        ({"kind": "er", "n": 3, "p": 0.5, "label": 2**63}, "bead label 9223372036854775808 outside"),
    ],
)
def test_spec_check_order_matches_reference(doc, message):
    # the interaction is unknown and the seed absent, so the bead fails first
    doc = {"beads": [doc], "interaction": {"kind": "warp"}}
    got = _spec_outcome(spec_from_json, spec_to_json, doc)
    assert got == _spec_outcome(ref_spec_from_json, ref_spec_to_json, doc)
    assert got[0][2].startswith(message)


@pytest.mark.parametrize(
    "interaction, seed, message",
    [
        ({"kind": "warp", "p": 2}, None, "interaction: unknown kind 'warp'"),
        ({"kind": "path_identity", "p": 0.1}, None, "interaction: missing key 'eps'"),
        ({"kind": "global_random", "p": 0.1, "label": "x"}, None, "spec: missing key 'seed'"),
        ({"kind": "path_random", "p": 2, "label": 1.5}, -1, "coupling probability must lie in [0, 1]"),
        (RANDOM, True, "spec: key 'seed' has the wrong type"),
        (RANDOM, -1, "seed -1 is negative"),
        ({**RANDOM, "label": None, "eps": "x"}, 10**400, None),
    ],
)
def test_spec_interaction_and_seed_match_reference(interaction, seed, message):
    doc = {"beads": [ER], "interaction": interaction, **({} if seed is None else {"seed": seed})}
    got = _spec_outcome(spec_from_json, spec_to_json, doc)
    assert got == _spec_outcome(ref_spec_from_json, ref_spec_to_json, doc)
    assert got[0][0] == "spec" if message is None else got[0][2].startswith(message)


PROBABILITY = st.one_of(st.floats(0, 1), st.sampled_from([0, 1]))
LABELS = st.one_of(st.none(), st.sampled_from([0, 7, 2**63 - 1]))
BEADS = st.one_of(
    st.builds(ERBead, st.integers(1, 9), PROBABILITY, LABELS),
    st.builds(TwoModuleBead, st.integers(1, 9), st.integers(1, 9), st.just(1.0), PROBABILITY, LABELS),
)


@st.composite
def built_specs(draw):
    chain = tuple(draw(st.lists(BEADS, min_size=1, max_size=3)))
    couplings = [st.builds(PathRandom, PROBABILITY), st.builds(GlobalRandom, PROBABILITY)]
    if len({b.size for b in chain}) == 1:
        couplings.append(st.builds(PathIdentity, st.one_of(st.floats(1e-3, 10), st.just(2))))
    return TwoLevelSpec(chain, draw(st.one_of(couplings)), draw(st.integers(0, 2**70)))


@settings(max_examples=300, deadline=None)
@given(built_specs())
def test_spec_to_json_matches_reference_on_built_specs(spec):
    # fields keep the values they were built with, ints in float fields too
    doc = spec_to_json(spec)
    assert repr(doc) == repr(ref_spec_to_json(spec))
    assert spec_from_json(json.dumps(doc)) == spec


# ------------------------------------------- graph and label bodies by the kernel

WEIGHTS = [1.0, 2.0, 2.0**53, 2.0**53 + 2, 1e16 - 2, 1e16, 1e17, 1.5, 1 / 3, 5e-324, 1e-300,
           0.9999999999999999, 1.7976931348623157e308]
# where a digit word of the kernel ends: 8 digits fill one uint64 word
GROUP_IDS = [-1, 0, 9, 10, 99_999_999, 100_000_000, 9_999_999_999_999_999, 2**63 - 1]


def _percent_graph(g) -> str:
    return ("%%MatrixMarket matrix coordinate real symmetric\n" f"{g.n} {g.n} {g.edge_count}\n"
            + percent_rows("%d %d %.17g\n", g.cols + 1, g.rows + 1, g.weights))


def _percent_labels(g) -> str:
    nodes = np.flatnonzero(g.labels >= 0)
    if g.sublabels is None:
        return "node_id,group_id\n" + percent_rows("%d,%d\n", nodes, g.labels[nodes])
    subs = g.sublabels[nodes]
    subs = np.where(subs >= 0, subs.astype(str), "")  # an empty cell for -1
    return "node_id,group_id,subgroup_id\n" + percent_rows("%d,%d,%s\n", nodes, g.labels[nodes], subs)


def _check_percent_writers(g, path):
    write_graph(g, path)
    assert path.read_text() == _percent_graph(g)
    if g.labels is not None:
        write_labels(g, path)
        assert path.read_text() == _percent_labels(g)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_graph_and_label_writers_match_percent_templates(tmp_path, data):
    n = data.draw(st.integers(2, 30))
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                               .filter(lambda p: p[0] != p[1]).map(lambda p: (min(p), max(p))),
                               unique=True, max_size=60))
    weight = st.sampled_from(WEIGHTS) | st.floats(min_value=5e-324, allow_infinity=False)
    w = data.draw(st.lists(weight, min_size=len(pairs), max_size=len(pairs)))
    ids = st.sampled_from(GROUP_IDS) | st.integers(-1, 2**63 - 1)
    labels = data.draw(st.lists(ids, min_size=n, max_size=n))
    subs = data.draw(st.none() | st.lists(ids, min_size=n, max_size=n))
    ij = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    g = WeightedGraph(n, ij[:, 0], ij[:, 1], np.array(w), np.array(labels),
                      None if subs is None else np.array(subs))
    _check_percent_writers(g, tmp_path / "g.txt")


def test_graph_and_label_writers_match_percent_templates_on_a_fixed_edge_list(tmp_path):
    # written node ids 9/10 and 99,999,999/100,000,000, one edge per weight
    nodes = [0, 8, 9, 10, 99_999_998, 99_999_999]
    pairs = list(itertools.combinations(nodes, 2))[: len(WEIGHTS)]
    g = WeightedGraph(10**8 + 1, [i for i, _ in pairs], [j for _, j in pairs], WEIGHTS)
    _check_percent_writers(g, tmp_path / "g.txt")
    slow = [1.5, 1e17, 3.25, 1e-310, 1.7976931348623157e308, 12345.678]  # no weight the kernel writes
    _check_percent_writers(WeightedGraph(7, np.arange(6), np.arange(1, 7), slow), tmp_path / "g.txt")
    labels = np.array(GROUP_IDS[1:] + [3, 4])
    g = WeightedGraph(9, [0], [1], [1.0], labels, np.array(GROUP_IDS + [7]))  # sublabel -1: empty cell
    _check_percent_writers(g, tmp_path / "g.txt")


def test_graph_and_label_writers_match_percent_templates_beyond_one_block(tmp_path):
    n = eio._G17_BLOCK + 1000
    w = np.resize(WEIGHTS, n - 1)
    sublabels = np.resize(GROUP_IDS, n)
    g = WeightedGraph(n, np.arange(n - 1), np.arange(1, n), w, np.arange(n) % 97, sublabels)
    _check_percent_writers(g, tmp_path / "g.txt")
    g = WeightedGraph(n, np.arange(n - 1), np.arange(1, n), np.ones(n - 1), np.arange(n) % 97)
    _check_percent_writers(g, tmp_path / "g.txt")


def test_generated_chain_is_written_without_the_fallback_or_the_float_tables(tmp_path, slow_values):
    # a drift back to '%.17g' per edge shows as a count here, not only as time
    g = generate_bead_chain(
        TwoLevelSpec((TwoModuleBead(50, 50, 0.2, 0.02),) * 20, PathRandom(0.01), seed=7)
    )
    eio._g17_powers.cache_clear()
    _check_percent_writers(g, tmp_path / "g.txt")
    assert g.edge_count > eio._G17_BLOCK
    assert slow_values == []
    assert eio._g17_powers.cache_info().currsize == 0  # unit weights need no powers of ten
