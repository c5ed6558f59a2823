import os
import re
import signal
import tracemalloc
import warnings

import numpy as np
import pytest

from eigenloc import (
    ERBead,
    GlobalRandom,
    PathIdentity,
    PathRandom,
    TransitionReport,
    TwoLevelSpec,
    TwoModuleBead,
    analyze,
    cli,
    eigensolver,
    emit_report,
    generate_bead_chain,
    generate_two_module,
    load_spec,
    migration_similarity,
    parse_graph,
    parse_labels,
    parse_migration,
    save_spec,
    spec_from_json,
    spec_to_json,
    write_graph,
    write_labels,
)
from eigenloc import io as eio
from eigenloc.clustering import Partition
from eigenloc.errors import (
    AsymmetricFlow,
    DuplicateEdge,
    InputError,
    IoError,
    MissingPopulation,
    NegativeWeight,
    ParseError,
)
from helpers import path_graph, ref_parse_migration


def mm(tmp_path, body, name="g.mtx"):
    p = tmp_path / name
    p.write_text(body)
    return p


SINGLE_EDGE = """%%MatrixMarket matrix coordinate real symmetric
2 2 1
2 1 1.0
"""


def test_parse_single_edge(tmp_path):
    g = parse_graph(mm(tmp_path, SINGLE_EDGE))
    assert g.n == 2
    assert (g.rows.tolist(), g.cols.tolist(), g.weights.tolist()) == ([0], [1], [1.0])


def test_parse_skips_comments_and_blanks(tmp_path):
    body = (
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "% a comment\n"
        "\n"
        "3 3 2\n"
        "2 1 1.0\n"
        "% another\n"
        "3 2 2.5\n"
    )
    g = parse_graph(mm(tmp_path, body))
    assert (g.rows.tolist(), g.cols.tolist(), g.weights.tolist()) == ([0, 1], [1, 2], [1.0, 2.5])


def test_parse_rejections(tmp_path):
    with pytest.raises(ParseError):
        parse_graph(mm(tmp_path, "not a matrix\n"))
    with pytest.raises(ParseError):
        parse_graph(mm(tmp_path, "%%MatrixMarket matrix array real general\n2 2\n1\n1\n1\n1\n"))
    with pytest.raises(ParseError):
        parse_graph(
            mm(tmp_path, "%%MatrixMarket matrix coordinate complex symmetric\n2 2 1\n2 1 1 0\n")
        )
    with pytest.raises(ParseError):
        # declared two entries, provided one
        parse_graph(mm(tmp_path, "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n2 1 1.0\n"))
    with pytest.raises(ParseError):
        # out of range
        parse_graph(mm(tmp_path, "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n3 1 1.0\n"))
    with pytest.raises(ParseError):
        # self-loop
        parse_graph(mm(tmp_path, "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 1 1.0\n"))
    with pytest.raises(ParseError):
        # rectangular
        parse_graph(mm(tmp_path, "%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n2 1 1.0\n"))
    with pytest.raises(NegativeWeight):
        parse_graph(mm(tmp_path, "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n2 1 -1.0\n"))
    with pytest.raises(DuplicateEdge):
        parse_graph(
            mm(tmp_path, "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n2 1 1.0\n1 2 1.0\n")
        )


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN"])
def test_parse_rejects_nonfinite_values(tmp_path, token):
    body = f"%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 1.0\n3 2 {token}\n"
    with pytest.raises(ParseError) as exc:
        parse_graph(mm(tmp_path, body))
    assert exc.value.line == 4
    flows = f"%%MatrixMarket matrix coordinate integer symmetric\n2 2 1\n2 1 {token}\n"
    pops = tmp_path / "pops.csv"
    pops.write_text("0,1\n1,1\n")
    with pytest.raises(ParseError):
        parse_migration(mm(tmp_path, flows, "flows.mtx"), pops)


@pytest.mark.parametrize("token", ["\u0662.5", "2_5", "2.\u0665"])
def test_non_standard_numerals_are_parse_errors(tmp_path, token, capsys):
    # float() and int() also read digit separators and non-ASCII digits
    # ("\u0662" is Arabic-Indic 2); the readers take ASCII numerals only
    body = f"%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 1.0\n3 2 {token}\n"
    path = mm(tmp_path, body)
    with pytest.raises(ParseError, match=re.escape(f"line 4: bad entry '3 2 {token}'")):
        parse_graph(path)
    assert cli.main(["ipr", str(path), "--k", "2"]) == 2
    assert "line 4: bad entry" in capsys.readouterr().err
    with pytest.raises(ParseError, match="line 3: bad entry"):
        parse_graph(mm(tmp_path, body.replace("2 1 1.0", "2 \u0661 1.0")))


def test_parse_error_carries_line_number(tmp_path):
    with pytest.raises(ParseError) as exc:
        parse_graph(mm(tmp_path, "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 1 1.0\n"))
    assert exc.value.line == 3


@pytest.mark.parametrize(
    "body, line, message",
    [
        ("%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 1.0\n", 1,
         "unsupported symmetry skew-symmetric"),
        ("%%MatrixMarket matrix coordinate real symmetric\n% size next\n2 2 x\n2 1 1.0\n", 3,
         "non-integer size line"),
        # int() alone would read "1_2" as 12
        ("%%MatrixMarket matrix coordinate real symmetric\n1_2 12 3\n", 2, "non-integer size line"),
        ("%%MatrixMarket matrix coordinate real symmetric\n0 0 0\n", 2, "empty matrix"),
        ("%%MatrixMarket matrix coordinate real symmetric\n% only a comment\n", 2, "missing size line"),
    ],
    ids=["skew_symmetric", "non_integer_size", "separator_in_size", "size_zero", "no_size_line"],
)
def test_bad_preamble_names_its_line(tmp_path, body, line, message):
    with pytest.raises(ParseError, match=message) as exc:
        parse_graph(mm(tmp_path, body))
    assert exc.value.line == line


def test_general_storage_rules(tmp_path):
    head = "%%MatrixMarket matrix coordinate real general\n"
    # single orientation is fine
    g = parse_graph(mm(tmp_path, head + "2 2 1\n1 2 0.5\n"))
    assert (g.rows.tolist(), g.cols.tolist(), g.weights.tolist()) == ([0], [1], [0.5])
    # mirrored pair with equal weights collapses to one edge
    g = parse_graph(mm(tmp_path, head + "2 2 2\n1 2 0.5\n2 1 0.5\n"))
    assert (g.rows.tolist(), g.cols.tolist(), g.weights.tolist()) == ([0], [1], [0.5])
    # mirrored pair with different weights is a conflict
    with pytest.raises(ParseError):
        parse_graph(mm(tmp_path, head + "2 2 2\n1 2 0.5\n2 1 0.75\n"))
    # same orientation twice is a duplicate
    with pytest.raises(DuplicateEdge):
        parse_graph(mm(tmp_path, head + "2 2 2\n1 2 0.5\n1 2 0.5\n"))


def test_zero_weight_entries_are_dropped(tmp_path):
    g = parse_graph(mm(tmp_path, "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 0\n3 2 1.0\n"))
    assert (g.rows.tolist(), g.cols.tolist(), g.weights.tolist()) == ([1], [2], [1.0])


def test_graph_round_trip_preserves_everything(tmp_path):
    g = generate_two_module(6, 5, 0.9, 0.3, seed=4)
    gp = tmp_path / "two_module.mtx"
    lp = tmp_path / "two_module.labels.csv"
    write_graph(g, gp)
    write_labels(g, lp)
    back = parse_graph(gp, lp)
    assert back.n == g.n
    assert np.array_equal(back.rows, g.rows) and np.array_equal(back.cols, g.cols)
    assert np.array_equal(back.weights, g.weights)
    assert np.array_equal(back.labels, g.labels)
    assert back.sublabels is None


def test_round_trip_with_sublabels_and_awkward_weights(tmp_path):
    spec = TwoLevelSpec(
        (TwoModuleBead(4, 4, 0.9, 0.2), ERBead(8, 0.5)), PathIdentity(1 / 3), seed=1
    )
    g = generate_bead_chain(spec)
    gp = tmp_path / "chain.mtx"
    lp = tmp_path / "chain.labels.csv"
    write_graph(g, gp)
    write_labels(g, lp)
    back = parse_graph(gp, lp)
    assert np.array_equal(back.rows, g.rows) and np.array_equal(back.cols, g.cols)
    assert np.array_equal(back.weights, g.weights)  # exact float equality via 17 digits
    assert np.array_equal(back.labels, g.labels)
    assert np.array_equal(back.sublabels, g.sublabels)


def test_write_labels_bytes_mixing_er_and_labeled_two_module_beads(tmp_path):
    # ER beads carry no module, so their subgroup cell is empty
    spec = TwoLevelSpec(
        (ERBead(3, 1.0), TwoModuleBead(2, 2, 1.0, 0.5, label=7), ERBead(2, 1.0, label=4)),
        PathRandom(1.0),
        seed=0,
    )
    lp = tmp_path / "chain.labels.csv"
    write_labels(generate_bead_chain(spec), lp)
    assert lp.read_bytes() == (
        b"node_id,group_id,subgroup_id\n"
        b"0,0,\n1,0,\n2,0,\n3,7,0\n4,7,0\n5,7,1\n6,7,1\n7,4,\n8,4,\n"
    )


def test_write_labels_requires_labels(tmp_path):
    with pytest.raises(InputError):
        write_labels(path_graph(3), tmp_path / "x.csv")


def test_parse_labels_headerless_and_duplicates(tmp_path):
    p = tmp_path / "lab.csv"
    p.write_text("0,1\n1,0\n2,1\n")
    labels, sublabels = parse_labels(p, 3)
    assert labels.tolist() == [1, 0, 1]
    assert sublabels is None
    p.write_text("node_id,group_id\n0,1\n0,2\n")
    with pytest.raises(ParseError):
        parse_labels(p, 3)


@pytest.mark.parametrize("first", ["+0,1", " +0 ,1", "0.0,1", "1e0,1", "nan,1"])
def test_numeric_first_row_is_data_not_a_header(tmp_path, first):
    # line 1 is a header only if float() rejects its first cell; otherwise
    # it parses, or fails naming its line, as the same row on line 2 does
    node = first.split(",")[0]
    parses = node.strip() == "+0"
    p = tmp_path / "lab.csv"
    p.write_text(f"{first}\n1,0\n2,1\n")
    if parses:
        assert parse_labels(p, 3)[0].tolist() == [1, 0, 1]
    else:
        with pytest.raises(ParseError, match=re.escape(f"line 1: bad label row {first.strip()!r}")):
            parse_labels(p, 3)
    flows = mm(tmp_path, "%%MatrixMarket matrix coordinate integer symmetric\n2 2 1\n2 1 10\n")
    pops = tmp_path / "pops.csv"
    pops.write_text(f"{node},100\n1,50\n")
    for parse in (parse_migration, ref_parse_migration):
        if parses:
            assert parse(flows, pops).pops.tolist() == [100.0, 50.0]
        else:
            with pytest.raises(ParseError, match="line 1: bad population row"):
                parse(flows, pops)


@pytest.mark.parametrize("blank", ["\n", "\n  \n", "\t\n"])
def test_header_is_the_first_non_blank_line(tmp_path, blank):
    labels = tmp_path / "lab.csv"
    labels.write_text(f"{blank}node_id,group_id\n0,1\n1,0\n")
    assert parse_labels(labels, 2)[0].tolist() == [1, 0]
    flows = mm(tmp_path, "%%MatrixMarket matrix coordinate integer symmetric\n2 2 1\n2 1 10\n")
    pops = tmp_path / "pops.csv"
    pops.write_text(f"{blank}node_id,population\n0,100\n1,50\n")
    for parse in (parse_migration, ref_parse_migration):
        assert parse(flows, pops).pops.tolist() == [100.0, 50.0]
    # a later non-numeric row is still a bad row, naming its line
    labels.write_text(f"{blank}0,1\nnode_id,group_id\n")
    line = blank.count("\n") + 2
    with pytest.raises(ParseError, match=f"line {line}: bad label row 'node_id,group_id'"):
        parse_labels(labels, 2)


BOM = b"\xef\xbb\xbf"  # the UTF-8 byte order mark, as Excel's "CSV UTF-8" writes it


def test_byte_order_mark_does_not_make_the_first_label_row_a_header(tmp_path):
    # read with the mark, node 0's cell is "\ufeff0", which float() rejects
    labels = tmp_path / "lab.csv"
    labels.write_bytes(BOM + b"0,1\n1,0\n2,1\n")
    assert parse_labels(labels, 3)[0].tolist() == [1, 0, 1]
    # a byte that is not UTF-8 still names its line, counted in the whole file
    labels.write_bytes(BOM + b"0,1\n\xe9\n")
    with pytest.raises(ParseError, match="line 2: .* not UTF-8"):
        parse_labels(labels, 3)


def test_byte_order_mark_before_a_matrix_market_header(tmp_path):
    plain = tmp_path / "g.mtx"
    write_graph(path_graph(5), plain)
    marked = tmp_path / "bom.mtx"
    marked.write_bytes(BOM + plain.read_bytes())
    a, b = parse_graph(plain), parse_graph(marked)
    assert (b.n, b.rows.tolist(), b.cols.tolist(), b.weights.tolist()) == (
        a.n, a.rows.tolist(), a.cols.tolist(), a.weights.tolist()
    )


def test_byte_order_mark_before_a_spec_json(tmp_path):
    spec = TwoLevelSpec((TwoModuleBead(5, 6, 0.8, 0.2, label=3), ERBead(4, 0.5)), PathRandom(0.05), 7)
    plain = tmp_path / "spec.json"
    save_spec(spec, plain)
    marked = tmp_path / "bom.json"
    marked.write_bytes(BOM + plain.read_bytes())
    assert load_spec(marked) == load_spec(plain) == spec


def test_parse_graph_memory_budget(tmp_path):
    # a canonical file (every write_graph file is one) is read into the
    # graph's own arrays: the text once as str and once as bytes, the
    # loaded entries, then i, j and w; no sort, gathers or line array
    g = generate_bead_chain(
        TwoLevelSpec((TwoModuleBead(150, 150, 0.2, 0.02),) * 10, PathRandom(0.01), seed=3)
    )
    path = tmp_path / "chain.mtx"
    write_graph(g, path)
    parse_graph(path)  # first-call state
    tracemalloc.start()
    try:
        got = parse_graph(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got.rows, g.rows) and np.array_equal(got.cols, g.cols)
    assert np.array_equal(got.weights, g.weights)
    budget = 80 * g.edge_count
    assert peak <= budget, f"peak {peak} B, budget {budget} B (E = {g.edge_count})"


def test_migration_round_trip(tmp_path):
    flows = mm(
        tmp_path,
        "%%MatrixMarket matrix coordinate integer symmetric\n2 2 1\n2 1 10\n",
        name="flows.mtx",
    )
    pops = tmp_path / "pops.csv"
    pops.write_text("node_id,population\n0,100\n1,50\n")
    m = parse_migration(flows, pops)
    g = migration_similarity(m)
    assert (g.rows.tolist(), g.cols.tolist()) == ([0], [1])
    assert g.weights.tolist() == [pytest.approx(0.02, abs=1e-15)]


def test_migration_rejections(tmp_path):
    pops = tmp_path / "pops.csv"
    pops.write_text("0,100\n1,50\n")
    with pytest.raises(ParseError):
        # flows must use the integer field
        parse_migration(
            mm(tmp_path, "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n2 1 10\n"),
            pops,
        )
    with pytest.raises(ParseError):
        # fractional value in an integer matrix
        parse_migration(
            mm(tmp_path, "%%MatrixMarket matrix coordinate integer symmetric\n2 2 1\n2 1 10.5\n"),
            pops,
        )
    with pytest.raises(ParseError):
        # self-flow
        parse_migration(
            mm(tmp_path, "%%MatrixMarket matrix coordinate integer symmetric\n2 2 1\n1 1 10\n"),
            pops,
        )
    with pytest.raises(AsymmetricFlow):
        parse_migration(
            mm(tmp_path, "%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 2 10\n"),
            pops,
        )
    with pytest.raises(MissingPopulation):
        pops.write_text("0,100\n")
        parse_migration(
            mm(tmp_path, "%%MatrixMarket matrix coordinate integer symmetric\n2 2 1\n2 1 10\n"),
            pops,
        )


@pytest.mark.parametrize(
    "symmetry, body, key",
    [
        # symmetric storage keys a flow by its unordered pair
        ("symmetric", "3 3 2\n3 1 5\n1 3 5\n", (0, 2)),
        # general storage keys it by (row, col), so the mirror is no duplicate
        ("general", "3 3 3\n3 1 5\n1 3 5\n3 1 5\n", (2, 0)),
    ],
)
def test_migration_duplicate_flow_names_its_key(tmp_path, symmetry, body, key):
    pops = tmp_path / "pops.csv"
    pops.write_text("0,1\n1,1\n2,1\n")
    flows = mm(tmp_path, f"%%MatrixMarket matrix coordinate integer {symmetry}\n" + body)
    with pytest.raises(DuplicateEdge) as exc:
        parse_migration(flows, pops)
    assert (exc.value.i, exc.value.j) == key


@pytest.mark.parametrize("body, line", [("2 1 10\n3 3 4\n", 4), ("2 1 10\n% note\n2 2 4\n", 5)])
def test_migration_self_flow_names_its_line(tmp_path, body, line):
    pops = tmp_path / "pops.csv"
    pops.write_text("0,1\n1,1\n2,1\n")
    flows = mm(tmp_path, "%%MatrixMarket matrix coordinate integer symmetric\n3 3 2\n" + body)
    with pytest.raises(ParseError, match=f"line {line}: self-flows are not allowed"):
        parse_migration(flows, pops)


def test_migration_flow_beyond_int64_names_its_line(tmp_path):
    pops = tmp_path / "pops.csv"
    pops.write_text("0,1\n1,1\n2,1\n")
    flows = mm(tmp_path, "%%MatrixMarket matrix coordinate integer symmetric\n3 3 2\n2 1 10\n3 1 1e19\n")
    with pytest.raises(ParseError, match="line 4: flow count 1e\\+19 beyond int64"):
        parse_migration(flows, pops)


def test_migration_two_defects_report_the_sign_first(tmp_path):
    # MigrationInput checks signs before symmetry, so a negative flow is the
    # error even though (0, 1) and (1, 0) also disagree
    pops = tmp_path / "pops.csv"
    pops.write_text("0,1\n1,1\n")
    flows = mm(tmp_path, "%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 2 10\n2 1 -3\n")
    with pytest.raises(InputError, match="negative flow count"):
        parse_migration(flows, pops)


@pytest.mark.parametrize(
    "body, key",
    [
        ("3 3 2\n3 2 4\n2 1 5\n", (0, 1)),  # two unmatched flows: the smaller key
        ("3 3 2\n1 2 0\n3 1 7\n", (0, 2)),  # an unmatched zero is no flow
        ("3 3 4\n2 1 5\n1 2 5\n3 2 4\n2 3 6\n", (1, 2)),  # a mirror that disagrees
    ],
)
def test_migration_asymmetric_flow_names_the_smallest_key(tmp_path, body, key):
    pops = tmp_path / "pops.csv"
    pops.write_text("0,1\n1,1\n2,1\n")
    flows = mm(tmp_path, "%%MatrixMarket matrix coordinate integer general\n" + body)
    with pytest.raises(AsymmetricFlow) as exc:
        parse_migration(flows, pops)
    assert (exc.value.i, exc.value.j) == key


def test_migration_memory_grows_with_nodes_and_flows_only(tmp_path):
    # a dense 5,000 x 5,000 int64 flow matrix alone would take 200 MB
    n = 5000
    body = f"%%MatrixMarket matrix coordinate integer symmetric\n{n} {n} 1\n2 1 10\n"
    flows = mm(tmp_path, body, name="flows.mtx")
    pops = tmp_path / "pops.csv"
    pops.write_text("".join(f"{v},{v + 1}\n" for v in range(n)))
    tracemalloc.start()
    try:
        g = migration_similarity(parse_migration(flows, pops))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (g.rows.tolist(), g.cols.tolist(), g.weights.tolist()) == ([0], [1], [50.0])
    assert peak < 16 * 2**20


@pytest.mark.parametrize(
    "row, message",
    [
        ("1,50,7", "expected node_id,population"),
        ("1,many", "bad population row '1,many'"),
        ("x1,50", "bad population row 'x1,50'"),
        ("1,5_0", "bad population row '1,5_0'"),
        ("1,\u0665", "bad population row '1,\u0665'"),  # Arabic-Indic 5
        ("3,50", "node 3 outside 0..2"),
        ("0,50", "duplicate population for node 0"),
    ],
)
def test_bad_population_row_names_its_line(tmp_path, row, message):
    flows = mm(tmp_path, "%%MatrixMarket matrix coordinate integer symmetric\n3 3 1\n2 1 10\n")
    pops = tmp_path / "pops.csv"
    pops.write_text(f"node_id,population\n\n0,100\n{row}\n1,5\n2,5\n")
    with pytest.raises(ParseError, match=re.escape(f"line 4: {message}")):
        parse_migration(flows, pops)


@pytest.mark.parametrize(
    "row, message",
    [
        ("1,0,0,0", "expected node_id,group_id[,subgroup_id]"),
        ("1", "expected node_id,group_id[,subgroup_id]"),
        ("1,a", "bad label row '1,a'"),
        ("9,a", "bad label row '9,a'"),
        ("1,\u0663", "bad label row '1,\u0663'"),  # Arabic-Indic 3
        ("1_0,0", "bad label row '1_0,0'"),
        ("1,0,\uff11", "bad label row '1,0,\uff11'"),  # fullwidth 1
        ("3,0", "node 3 outside 0..2"),
        ("0,2", "duplicate label for node 0"),
    ],
)
def test_bad_label_row_names_its_line(tmp_path, row, message):
    p = tmp_path / "lab.csv"
    p.write_text(f"node_id,group_id\n\n0,1\n{row}\n1,0\n")
    with pytest.raises(ParseError, match=re.escape(f"line 4: {message}")):
        parse_labels(p, 3)


def test_spec_json_round_trip(tmp_path):
    specs = [
        TwoLevelSpec((ERBead(10, 0.25),), PathRandom(0.05), seed=7),
        TwoLevelSpec(
            (TwoModuleBead(5, 6, 0.8, 0.2, label=3), ERBead(4, 0.5)),
            GlobalRandom(0.02),
            seed=0,
        ),
        TwoLevelSpec((ERBead(4, 0.5), ERBead(4, 0.5)), PathIdentity(0.1), seed=11),
    ]
    for spec in specs:
        assert spec_from_json(spec_to_json(spec)) == spec
        p = tmp_path / "spec.json"
        save_spec(spec, p)
        assert load_spec(p) == spec


def test_spec_json_validation():
    with pytest.raises(ParseError):
        spec_from_json("{not json")
    with pytest.raises(ParseError):
        spec_from_json([1, 2])
    with pytest.raises(ParseError):
        spec_from_json({"beads": [], "interaction": {"kind": "path_random", "p": 0.1}, "seed": 0})
    with pytest.raises(ParseError):
        spec_from_json({"interaction": {"kind": "path_random", "p": 0.1}, "seed": 0})
    with pytest.raises(ParseError):
        spec_from_json(
            {"beads": [{"kind": "spiral", "n": 3}], "interaction": {"kind": "path_random", "p": 0.1}, "seed": 0}
        )
    with pytest.raises(ParseError):
        spec_from_json(
            {"beads": [{"kind": "er", "n": 3, "p": 0.5}], "interaction": {"kind": "warp"}, "seed": 0}
        )
    with pytest.raises(ParseError):
        # seed must be an integer, not a bool
        spec_from_json(
            {"beads": [{"kind": "er", "n": 3, "p": 0.5}], "interaction": {"kind": "path_random", "p": 0.1}, "seed": True}
        )


def expected_report_files(ranks):
    names = {"spectrum.csv", "ipr.csv", "groups.csv", "transition.json", "partitions.json"}
    for r in ranks:
        names.add(f"eigvec_{r}.csv")
        names.add(f"hist_{r}.csv")
    return names


def test_emit_report_single_edge(tmp_path):
    report = analyze(path_graph(2), k=2)
    written = emit_report(report, tmp_path / "report")
    assert {p.name for p in written} == expected_report_files(range(2))
    spectrum = (tmp_path / "report" / "spectrum.csv").read_text().splitlines()
    assert spectrum[0] == "rank,eigenvalue,sq_spectrum_frac"
    assert len(spectrum) == 3
    assert spectrum[1].split(",")[0] == "0"
    groups = (tmp_path / "report" / "groups.csv").read_text()
    assert groups == "rank,group,l2_frac,l1_frac\n"
    assert (tmp_path / "report" / "partitions.json").read_text() == "[]\n"
    transition = (tmp_path / "report" / "transition.json").read_text()
    assert '"rank": null' in transition


def test_emit_report_values_round_trip_exactly(tmp_path):
    g = generate_two_module(8, 8, 0.9, 0.2, seed=2)
    report = analyze(g, k=4, sweep_ranks=(1,))
    emit_report(report, tmp_path)
    rows = (tmp_path / "eigvec_1.csv").read_text().splitlines()[1:]
    values = np.array([float(r.split(",")[1]) for r in rows])
    assert np.array_equal(values, report.basis.vectors[:, 1])
    ipr_rows = (tmp_path / "ipr.csv").read_text().splitlines()[1:]
    scores = [float(r.split(",")[2]) for r in ipr_rows]
    assert scores == report.curve.tolist()
    groups = (tmp_path / "groups.csv").read_text().splitlines()
    assert len(groups) == 1 + 4 * 2  # header + (rank, group) pairs


def test_emit_report_reruns_byte_identical(tmp_path):
    g = generate_two_module(8, 8, 0.9, 0.2, seed=3)
    a, b = tmp_path / "a", tmp_path / "b"
    emit_report(analyze(g, k=4, sweep_ranks=(1,)), a)
    emit_report(analyze(g, k=4, sweep_ranks=(1,)), b)
    files = sorted(p.name for p in a.iterdir())
    assert files == sorted(p.name for p in b.iterdir())
    for name in files:
        assert (a / name).read_bytes() == (b / name).read_bytes()


# emit_report forks report writers only when the CPU mask has two or more CPUs
two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs a CPU mask of at least two CPUs, so that report writers are forked",
)


def _bead_chain(coupling):
    # a small_full chain: 4 beads of 50 + 50 nodes, bead labels
    bead = TwoModuleBead(50, 50, 0.2, 0.02)
    return generate_bead_chain(TwoLevelSpec((bead,) * 4, PathRandom(coupling), seed=11))


@two_cpus
# a connected chain, and four disconnected beads (no sweep cut: it needs a connected graph)
@pytest.mark.parametrize("coupling, ranks", [(0.01, (1, 2)), (0.0, ())])
def test_report_bytes_do_not_depend_on_the_number_of_writers(tmp_path, coupling, ranks):
    g = _bead_chain(coupling)
    report = analyze(g, k=g.n, sweep_ranks=ranks)
    many = emit_report(report, tmp_path / "many")
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(mask)})
    try:
        one = emit_report(report, tmp_path / "one")
    finally:
        os.sched_setaffinity(0, mask)
    assert [p.name for p in many] == [p.name for p in one]
    assert len(many) == 2 * g.n + 5
    assert sorted(p.name for p in (tmp_path / "many").iterdir()) == sorted(p.name for p in many)
    for p in many:
        assert p.read_bytes() == (tmp_path / "one" / p.name).read_bytes(), p.name


@pytest.mark.parametrize(
    "blocked, named",
    [
        (("eigvec_1.csv",), "eigvec_1.csv"),  # a forked writer's rank when there are 2+ CPUs
        (("eigvec_0.csv",), "eigvec_0.csv"),  # this process's rank
        (("hist_2.csv", "eigvec_1.csv"), "eigvec_1.csv"),  # the lowest failed rank is named
    ],
)
def test_failed_report_write_is_an_io_error_and_leaves_no_child(tmp_path, capsys, blocked, named):
    g = generate_two_module(8, 8, 0.9, 0.2, seed=2)
    graph = tmp_path / "g.mtx"
    write_graph(g, graph)
    report = analyze(g, k=6)
    out = tmp_path / "lib"
    for name in blocked:  # a directory where a report file should go
        (out / name).mkdir(parents=True)
    with pytest.raises(IoError, match=rf"Is a directory: '.*{named}'"):
        emit_report(report, out)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

    out = tmp_path / "cli"
    for name in blocked:
        (out / name).mkdir(parents=True)
    assert cli.main(["analyze", str(graph), "--k", "6", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert re.search(rf"^error: cannot write report to .*: \[Errno \d+\] Is a directory: '.*{named}'$",
                     captured.err, re.M)
    assert captured.out == ""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@two_cpus
def test_fork_warning_of_a_threaded_process_is_not_an_error(tmp_path, monkeypatch):
    # from Python 3.12 os.fork warns, in the parent, when the process has threads
    fork = os.fork

    def warning_fork():
        pid = fork()
        if pid:
            warnings.warn(
                f"This process (pid={os.getpid()}) is multi-threaded, use of fork() may lead to deadlocks in the child.",
                DeprecationWarning,
                stacklevel=2,
            )
        return pid

    monkeypatch.setattr(os, "fork", warning_fork)
    report = analyze(generate_two_module(8, 8, 0.9, 0.2, seed=2), k=6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        written = emit_report(report, tmp_path)
    assert all(p.exists() for p in written)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@two_cpus
def test_report_is_written_when_no_process_can_be_forked(tmp_path, monkeypatch):
    report = analyze(generate_two_module(8, 8, 0.9, 0.2, seed=2), k=6, sweep_ranks=(1,))
    forked = emit_report(report, tmp_path / "forked")

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    fds = len(os.listdir("/proc/self/fd"))
    written = emit_report(report, tmp_path / "here")
    assert len(os.listdir("/proc/self/fd")) == fds  # a failed fork leaks no descriptor
    assert [p.name for p in written] == [p.name for p in forked]
    for p in forked:
        assert p.read_bytes() == (tmp_path / "here" / p.name).read_bytes(), p.name


@two_cpus
def test_report_is_complete_when_a_writer_process_dies(tmp_path, monkeypatch):
    report = analyze(generate_two_module(8, 8, 0.9, 0.2, seed=2), k=6, sweep_ranks=(1,))
    intact = emit_report(report, tmp_path / "intact")
    parent, write_ranks = os.getpid(), eio._write_ranks

    def dying_write(out, report, ranks):
        if os.getpid() != parent:  # a forked writer
            os.kill(os.getpid(), signal.SIGKILL)
        write_ranks(out, report, ranks)

    monkeypatch.setattr(eio, "_write_ranks", dying_write)
    written = emit_report(report, tmp_path / "died")
    assert [p.name for p in written] == [p.name for p in intact]
    assert sorted(p.name for p in (tmp_path / "died").iterdir()) == sorted(p.name for p in intact)
    for p in intact:
        assert p.read_bytes() == (tmp_path / "died" / p.name).read_bytes(), p.name
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _analyze(graph, out) -> int:
    return cli.main(["analyze", str(graph), "--k", "100", "--ranks", "1,2", "--out", str(out)])


def _tree(out) -> dict:
    return {p.name: p.read_bytes() for p in out.iterdir()}


@pytest.fixture(scope="module")
def chain4000(tmp_path_factory):
    """A dense_mid-size chain (8 beads of 250 + 250 nodes, n = 4,000) on the
    Lanczos route at k = 100, and its report written on one usable CPU, so
    by this process alone."""
    d = tmp_path_factory.mktemp("chain4000")
    bead = TwoModuleBead(250, 250, 0.2, 0.02)
    write_graph(generate_bead_chain(TwoLevelSpec((bead,) * 8, PathRandom(0.002), seed=29)), d / "g.mtx")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert _analyze(d / "g.mtx", d / "one") == 0
    return d / "g.mtx", _tree(d / "one")


def test_two_cpu_report_is_byte_identical_to_the_one_cpu_report(chain4000, tmp_path, monkeypatch):
    # two usable CPUs: one report writer is forked, after the solve
    graph, one = chain4000
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    forks, solving = {"solve": 0, "after": 0}, []
    lanczos, fork_writer = eigensolver._lanczos, eio._fork_writer

    def spy_lanczos(*args):
        solving.append(True)
        try:
            return lanczos(*args)
        finally:
            solving.pop()

    def spy_fork(*args):
        forks["solve" if solving else "after"] += 1
        return fork_writer(*args)

    monkeypatch.setattr(eigensolver, "_lanczos", spy_lanczos)
    monkeypatch.setattr(eio, "_fork_writer", spy_fork)
    assert _analyze(graph, tmp_path / "two") == 0
    assert forks == {"solve": 0, "after": 1}
    assert _tree(tmp_path / "two") == one
    assert [p.name for p in tmp_path.iterdir()] == ["two"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_failed_solve_leaves_the_report_directory_as_found(chain4000, tmp_path, monkeypatch, capsys):
    graph, one = chain4000
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(eigensolver, "MAX_RESTARTS", 3)  # ranks lock at each restart, then it fails
    existing = tmp_path / "existing"
    existing.mkdir()
    for name, data in one.items():
        (existing / name).write_bytes(data)
    assert _analyze(graph, existing) == 3
    assert _tree(existing) == one
    assert _analyze(graph, tmp_path / "fresh") == 3
    assert "failed the restarts check" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["existing"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_json_text_refuses_what_json_cannot_spell():
    with pytest.raises(TypeError, match="cannot serialize set"):
        eio._json_text({"side": {1, 2}})
    # nan and inf have no JSON spelling; json.loads would reject the output
    for value in (float("nan"), np.float64(np.inf), -np.inf):
        with pytest.raises(ValueError, match="cannot serialize"):
            eio._json_text({"factor": [value]})
    report = TransitionReport(2, 0.0, float("inf"))
    with pytest.raises(ValueError):
        eio.transition_json(report, 10, 5.0)


@pytest.mark.parametrize("n", [0, 1, 10000])
def test_partition_json_side_matches_the_element_by_element_text(n):
    side = np.random.default_rng(n).random(n) < 0.5
    doc = {"rank": 3, "conductance": 0.125, "side": [int(x) for x in side]}
    assert eio.partition_json(3, Partition(side, 0.125)) == eio._json_text(doc)
