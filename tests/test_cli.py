import json

import pytest

import numpy as np
import scipy.sparse.linalg as spla

from eigenloc import (
    PathRandom,
    TwoLevelSpec,
    TwoModuleBead,
    cli,
    eigensolver,
    generate_bead_chain,
    generate_grid,
    parse_graph,
    save_spec,
    spec_to_json,
    write_graph,
)
from eigenloc.errors import ConvergenceFailure
from helpers import path_graph


CHAIN = TwoLevelSpec(
    (TwoModuleBead(6, 6, 0.9, 0.2), TwoModuleBead(6, 6, 0.9, 0.2)),
    PathRandom(0.2),
    seed=5,
)


@pytest.fixture
def chain_files(tmp_path):
    spec_path = tmp_path / "chain.json"
    save_spec(CHAIN, spec_path)
    out = tmp_path / "chain.mtx"
    rc = cli.main(["generate", str(spec_path), "--out", str(out)])
    assert rc == 0
    return out, out.with_suffix(".labels.csv")


def test_generate_writes_graph_and_labels(chain_files, capsys):
    graph_path, label_path = chain_files
    assert graph_path.exists() and label_path.exists()
    g = parse_graph(graph_path, label_path)
    direct = generate_bead_chain(CHAIN)
    assert g.edges == direct.edges
    assert np.array_equal(g.labels, direct.labels)
    assert np.array_equal(g.sublabels, direct.sublabels)


def test_generate_seed_override(tmp_path):
    spec_path = tmp_path / "chain.json"
    save_spec(CHAIN, spec_path)
    a, b = tmp_path / "a.mtx", tmp_path / "b.mtx"
    assert cli.main(["generate", str(spec_path), "--out", str(a)]) == 0
    assert cli.main(["generate", str(spec_path), "--out", str(b), "--seed", "99"]) == 0
    assert parse_graph(a).edges != parse_graph(b).edges


def test_analyze_command(chain_files, tmp_path, capsys):
    graph_path, label_path = chain_files
    report_dir = tmp_path / "report"
    rc = cli.main(
        [
            "analyze",
            str(graph_path),
            "--labels",
            str(label_path),
            "--out",
            str(report_dir),
            "--k",
            "6",
            "--ranks",
            "1,2",
        ]
    )
    assert rc == 0
    printed = capsys.readouterr().out.splitlines()
    assert str(report_dir / "spectrum.csv") in printed
    assert (report_dir / "ipr.csv").exists()
    assert (report_dir / "eigvec_5.csv").exists()
    parts = json.loads((report_dir / "partitions.json").read_text())
    assert [p["rank"] for p in parts] == [1, 2]
    groups = (report_dir / "groups.csv").read_text().splitlines()
    assert len(groups) == 1 + 6 * 2


def test_ipr_command_stdout_and_file(chain_files, tmp_path, capsys):
    graph_path, _ = chain_files
    assert cli.main(["ipr", str(graph_path), "--k", "4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "rank,eigenvalue,ipr,degenerate_flag"
    assert len(out) == 5
    dest = tmp_path / "ipr.csv"
    assert cli.main(["ipr", str(graph_path), "--k", "4", "--out", str(dest)]) == 0
    assert dest.read_text().splitlines() == out


def test_csl_command(chain_files, capsys):
    graph_path, _ = chain_files
    assert cli.main(["csl", str(graph_path), "--rank", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "node,value,csl"
    total = sum(float(line.split(",")[2]) for line in out[1:])
    assert total == pytest.approx(1.0, abs=1e-10)


def test_sweep_command(chain_files, capsys):
    graph_path, _ = chain_files
    assert cli.main(["sweep", str(graph_path), "--rank", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rank"] == 1
    assert 0 < doc["conductance"] <= 1
    assert set(doc["side"]) <= {0, 1}


def test_transition_command(chain_files, capsys):
    graph_path, _ = chain_files
    assert cli.main(["transition", str(graph_path), "--window", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["window"] == 5
    assert "rank" in doc and "baseline" in doc and "factor" in doc


def test_transition_default_tau_is_a_json_float(chain_files, capsys):
    graph_path, _ = chain_files
    assert cli.main(["transition", str(graph_path)]) == 0
    tau = json.loads(capsys.readouterr().out)["tau"]
    assert type(tau) is float and tau == 5.0


def test_compare_restriction_command(chain_files, capsys):
    graph_path, label_path = chain_files
    rc = cli.main(
        [
            "compare-restriction",
            str(graph_path),
            "--labels",
            str(label_path),
            "--rank",
            "1",
            "--group",
            "0",
        ]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["subset_size"] == 12
    assert doc["distance"] >= 0
    assert isinstance(doc["identical_sweep_cut"], bool)


def test_migration_kernel_command(tmp_path, capsys):
    flows = tmp_path / "flows.mtx"
    flows.write_text("%%MatrixMarket matrix coordinate integer symmetric\n2 2 1\n2 1 10\n")
    pops = tmp_path / "pops.csv"
    pops.write_text("node_id,population\n0,100\n1,50\n")
    out = tmp_path / "kernel.mtx"
    assert cli.main(["migration-kernel", str(flows), str(pops), "--out", str(out)]) == 0
    g = parse_graph(out)
    assert g.edges == [(0, 1, pytest.approx(0.02, abs=1e-15))]


def test_bad_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.mtx"
    bad.write_text("this is not a graph\n")
    assert cli.main(["ipr", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
    missing = tmp_path / "missing.mtx"
    assert cli.main(["ipr", str(missing)]) == 2


def test_nonfinite_weight_exits_2(tmp_path, capsys):
    bad = tmp_path / "nan.mtx"
    bad.write_text("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n2 1 nan\n")
    assert cli.main(["ipr", str(bad)]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_rank_out_of_range_exits_2(chain_files, capsys):
    graph_path, _ = chain_files
    assert cli.main(["csl", str(graph_path), "--rank", "2", "--k", "2"]) == 2
    assert "rank" in capsys.readouterr().err


def test_numerical_failure_exits_3(chain_files, capsys, monkeypatch):
    graph_path, _ = chain_files

    def boom(*args, **kwargs):
        raise ConvergenceFailure(0)

    monkeypatch.setattr(eigensolver, "spectrum_random_walk", boom)
    assert cli.main(["ipr", str(graph_path)]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_partial_arpack_convergence_exits_3(tmp_path, capsys, monkeypatch):
    # above the dense limit analyze takes the ARPACK route
    graph_path = tmp_path / "path.mtx"
    write_graph(path_graph(5002), graph_path)

    def stalled(A, k, **kwargs):
        raise spla.ArpackNoConvergence("stalled", np.array([1.0, 0.9]), np.zeros((A.shape[0], 2)))

    monkeypatch.setattr(spla, "eigsh", stalled)
    rc = cli.main(["analyze", str(graph_path), "--out", str(tmp_path / "report")])
    assert rc == 3
    assert "eigenpair 2 failed" in capsys.readouterr().err


def test_arpack_error_exits_3(tmp_path, capsys, monkeypatch):
    # ARPACK's error 3 ("No shifts could be applied") is not a non-convergence
    graph_path = tmp_path / "path.mtx"
    write_graph(path_graph(5002), graph_path)

    def failed(A, k, **kwargs):
        raise spla.ArpackError(3)

    monkeypatch.setattr(spla, "eigsh", failed)
    rc = cli.main(["analyze", str(graph_path), "--out", str(tmp_path / "report")])
    assert rc == 3
    assert f"numerical failure: {spla.ArpackError(3)}" in capsys.readouterr().err


LATIN1 = b"% caf\xe9\n"  # a byte that is not UTF-8


@pytest.mark.parametrize("where", ["graph", "labels", "spec", "populations"])
def test_non_utf8_byte_exits_2(tmp_path, capsys, where):
    graph = tmp_path / "g.mtx"
    write_graph(path_graph(3), graph)
    if where == "graph":
        text = graph.read_bytes()
        graph.write_bytes(text.replace(b"\n", b"\n" + LATIN1, 1))
        argv = ["ipr", str(graph)]
    elif where == "labels":
        labels = tmp_path / "g.labels.csv"
        labels.write_bytes(b"node_id,group_id\n0,0\n1,0 " + LATIN1 + b"2,1\n")
        argv = ["ipr", str(graph), "--labels", str(labels)]
    elif where == "spec":
        spec = tmp_path / "chain.json"
        save_spec(CHAIN, spec)
        spec.write_bytes(spec.read_bytes() + LATIN1)
        argv = ["generate", str(spec), "--out", str(tmp_path / "out.mtx")]
    else:
        flows = tmp_path / "flows.mtx"
        flows.write_text("%%MatrixMarket matrix coordinate integer symmetric\n2 2 1\n2 1 10\n")
        pops = tmp_path / "pops.csv"
        pops.write_bytes(b"node_id,population\n0,100\n" + LATIN1 + b"1,50\n")
        argv = ["migration-kernel", str(flows), str(pops), "--out", str(tmp_path / "k.mtx")]
    assert cli.main(argv) == 2
    assert "not UTF-8" in capsys.readouterr().err


def test_size_line_beyond_int64_exits_2(tmp_path, capsys):
    bad = tmp_path / "huge.mtx"
    bad.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "99999999999999999999 99999999999999999999 1\n2 1 1.0\n"
    )
    assert cli.main(["ipr", str(bad)]) == 2
    assert "line 2: matrix size" in capsys.readouterr().err


@pytest.mark.parametrize(
    "row, message",
    [
        (f"4,{10**30}", "group 1000000000000000000000000000000 outside"),
        ("4,-1", "group -1 outside"),
        ("4,0,-3", "subgroup -3 outside"),
        ("9,0", "node 9 outside 0..8"),
    ],
)
def test_label_ids_out_of_range_exit_2(tmp_path, capsys, row, message):
    graph = tmp_path / "grid.mtx"
    write_graph(generate_grid(3, 3), graph)
    rows = [f"{v},0,0" for v in range(9)]
    rows[4] = row
    labels = tmp_path / "big.csv"
    labels.write_text("node_id,group_id,subgroup_id\n" + "\n".join(rows) + "\n")
    argv = ["analyze", str(graph), "--labels", str(labels), "--out", str(tmp_path / "r")]
    assert cli.main(argv) == 2
    assert f"line 6: {message}" in capsys.readouterr().err


def test_negative_bead_label_in_spec_exits_2(tmp_path, capsys):
    spec = tmp_path / "chain.json"
    doc = spec_to_json(CHAIN)
    doc["beads"][1]["label"] = -1
    spec.write_text(json.dumps(doc))
    assert cli.main(["generate", str(spec), "--out", str(tmp_path / "g.mtx")]) == 2
    assert "bead label -1 outside" in capsys.readouterr().err


@pytest.mark.parametrize("with_labels", [False, True])
def test_size_beyond_memory_exits_2(tmp_path, capsys, with_labels):
    # one int64 array of 10^15 nodes is 8 PB, beyond any 48-bit address
    # space, so the allocation fails at once even with memory overcommit
    graph = tmp_path / "huge.mtx"
    graph.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "1000000000000000 1000000000000000 1\n2 1 1.0\n"
    )
    argv = ["ipr", str(graph)]
    if with_labels:
        labels = tmp_path / "huge.labels.csv"
        labels.write_text("node_id,group_id\n0,0\n1,0\n")
        argv += ["--labels", str(labels)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and err.count("\n") == 1


def test_analyze_labels_components_once(chain_files, tmp_path, monkeypatch):
    # the solver and sweep_cut share the graph's cached component labels
    import scipy.sparse.csgraph as csgraph

    calls = []
    real = csgraph.connected_components

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(csgraph, "connected_components", spy)
    graph_path, _ = chain_files
    argv = ["analyze", str(graph_path), "--out", str(tmp_path / "r"), "--ranks", "1,2"]
    assert cli.main(argv) == 0
    assert len(calls) == 1


def er_spec_doc():
    return {"beads": [{"kind": "er", "n": 4, "p": 1.0}], "interaction": {"kind": "path_random", "p": 0.5}, "seed": 3}


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("p", 10**400, "bead 0: key 'p' is out of range"),
        ("n", 10**30, "bead size must lie in 1..1000000000"),
    ],
    ids=["p_1e400", "n_1e30"],
)
def test_out_of_range_bead_in_spec_exits_2(tmp_path, capsys, key, value, message):
    doc = er_spec_doc()
    doc["beads"][0][key] = value
    spec = tmp_path / "chain.json"
    spec.write_text(json.dumps(doc))
    assert cli.main(["generate", str(spec), "--out", str(tmp_path / "g.mtx")]) == 2
    assert message in capsys.readouterr().err


def test_huge_integer_interaction_in_spec_exits_2(tmp_path, capsys):
    doc = er_spec_doc()
    doc["interaction"]["p"] = -(10**400)
    spec = tmp_path / "chain.json"
    spec.write_text(json.dumps(doc))
    assert cli.main(["generate", str(spec), "--out", str(tmp_path / "g.mtx")]) == 2
    assert "interaction: key 'p' is out of range" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["spec", "flag"])
def test_negative_seed_exits_2(tmp_path, capsys, where):
    doc = er_spec_doc()
    argv = []
    if where == "spec":
        doc["seed"] = -5
    else:
        argv = ["--seed", "-5"]
    spec = tmp_path / "chain.json"
    spec.write_text(json.dumps(doc))
    assert cli.main(["generate", str(spec), "--out", str(tmp_path / "g.mtx"), *argv]) == 2
    assert "seed -5 is negative" in capsys.readouterr().err


@pytest.mark.parametrize(
    "pops, line",
    [
        # an infinite population rounds every kernel weight of its node to 0
        ("node_id,population\n0,100\n1,inf\n2,5\n", 3),
        # a node with no flows never meets its population in the kernel
        ("node_id,population\n0,100\n1,50\n2,nan\n", 4),
    ],
    ids=["inf", "nan"],
)
def test_nonfinite_population_exits_2(tmp_path, capsys, pops, line):
    flows = tmp_path / "flows.mtx"
    flows.write_text("%%MatrixMarket matrix coordinate integer symmetric\n3 3 1\n2 1 10\n")
    pop_path = tmp_path / "pops.csv"
    pop_path.write_text(pops)
    out = tmp_path / "kernel.mtx"
    assert cli.main(["migration-kernel", str(flows), str(pop_path), "--out", str(out)]) == 2
    assert f"line {line}: non-finite population" in capsys.readouterr().err
    assert not out.exists()


def test_compare_restriction_absent_group_exits_2(tmp_path, capsys):
    graph, labels = tmp_path / "g.mtx", tmp_path / "g.labels.csv"
    write_graph(path_graph(4), graph)
    labels.write_text("node_id,group_id\n0,0\n1,0\n2,7\n3,7\n")
    argv = ["compare-restriction", str(graph), "--labels", str(labels), "--rank", "1", "--group", "3"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "no node carries group 3" in err
    assert "at least 2 nodes" not in err


def test_compare_restriction_negative_group_exits_2(tmp_path, capsys):
    # group -1 is the "unlabeled" marker, not a group: nodes 5..7 carry no label
    graph, labels = tmp_path / "g.mtx", tmp_path / "g.labels.csv"
    write_graph(path_graph(8), graph)
    labels.write_text("node_id,group_id\n" + "".join(f"{i},0\n" for i in range(5)))
    argv = ["compare-restriction", str(graph), "--labels", str(labels), "--rank", "1", "--group", "-1"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert "group must be >= 0, got -1" in captured.err
    assert captured.out == ""


def test_analyze_bad_tau_on_a_short_curve_exits_2(tmp_path, capsys):
    graph = tmp_path / "grid.mtx"
    write_graph(generate_grid(4, 4), graph)
    argv = ["analyze", str(graph), "--k", "5", "--tau", "0.5", "--out", str(tmp_path / "r")]
    assert cli.main(argv) == 2
    assert "factor must be > 1" in capsys.readouterr().err


@pytest.mark.parametrize("command, tau", [("transition", "nan"), ("analyze", "inf")])
def test_nonfinite_tau_exits_2(tmp_path, capsys, command, tau):
    # nan and inf have no JSON spelling, so transition.json would not parse
    graph = tmp_path / "grid.mtx"
    write_graph(generate_grid(6, 6), graph)
    argv = [command, str(graph), "--k", "30", "--tau", tau, "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert "factor must be > 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
