"""Run with: python3 -m pytest perfbench/tests"""
import numpy as np
import pytest

import eigenloc as el
from checks import expected_report_files, reference_eigenvalues, report_digest, report_problems
from workloads import WORKLOADS, Workload, chain_docs

TINY = Workload("tiny", beads=3, module_size=20, couplings=(0.05,), k=10)


def has_isolated_node(doc) -> bool:
    return bool(np.any(el.generate_bead_chain(el.spec_from_json(doc)).degrees <= 0))


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("report")
    (doc,) = chain_docs(TINY, 7, has_isolated_node)
    g = el.generate_bead_chain(el.spec_from_json(doc))
    el.write_graph(g, tmp / "graph.mtx")
    rep = el.analyze(g, k=TINY.k, sweep_ranks=(1, 2))
    el.emit_report(rep, tmp / "report")
    return tmp, rep


@pytest.mark.parametrize("k", [TINY.k, 119])  # Arnoldi, and the dense full-spectrum routine
def test_reference_matches_program(report, k):
    tmp, _ = report
    g = el.parse_graph(tmp / "graph.mtx")
    ref = reference_eigenvalues(tmp / "graph.mtx", k, seed=0)
    np.testing.assert_allclose(ref, el.spectrum_random_walk(g, k).lambdas, atol=1e-10)


def test_clean_report_passes(report):
    tmp, rep = report
    ref = reference_eigenvalues(tmp / "graph.mtx", TINY.k, seed=0)
    assert report_problems(tmp / "report", TINY.k, ref) == []
    assert {p.name for p in (tmp / "report").iterdir()} == expected_report_files(TINY.k)


def test_missing_file_and_wrong_eigenvalue_are_caught(report, tmp_path):
    src, rep = report
    ref = reference_eigenvalues(src / "graph.mtx", TINY.k, seed=0)
    out = tmp_path / "r"
    el.emit_report(rep, out)
    before = report_digest(out)
    (out / "hist_3.csv").unlink()
    assert "hist_3.csv" in report_problems(out, TINY.k, ref)[0]

    el.emit_report(rep, out)
    assert report_digest(out) == before
    text = (out / "spectrum.csv").read_text().splitlines()
    row = text[2].split(",")
    row[1] = repr(float(row[1]) + 1e-6)
    (out / "spectrum.csv").write_text("\n".join(text[:2] + [",".join(row)] + text[3:]) + "\n")
    assert "differ from the reference" in report_problems(out, TINY.k, ref)[0]
    assert report_digest(out) != before


def test_chain_docs_are_seeded_and_skip_isolated_nodes():
    w = WORKLOADS["small_full"]
    docs = chain_docs(w, 5, lambda doc: False)
    assert docs == chain_docs(w, 5, lambda doc: False)
    assert docs != chain_docs(w, 6, lambda doc: False)
    assert [d["interaction"]["p"] for d in docs] == list(w.couplings)
    rejected = {docs[0]["seed"]}
    retry = chain_docs(w, 5, lambda doc: doc["seed"] in rejected)
    assert retry[0]["seed"] != docs[0]["seed"] and retry[1:] == docs[1:]
