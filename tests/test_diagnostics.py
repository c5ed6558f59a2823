import math

import numpy as np
import pytest

from eigenloc import (
    PathRandom,
    TwoLevelSpec,
    TwoModuleBead,
    analyze,
    generate_bead_chain,
    generate_grid,
    group_mass_table,
    spectrum_random_walk,
    tensor_block,
)
from eigenloc.errors import InputError, MissingLabels, SizeMismatch
from helpers import complete_graph, path_graph, random_connected_graph


def test_single_edge_report():
    report = analyze(path_graph(2), k=2)
    assert np.allclose(report.basis.lambdas, [1.0, -1.0], atol=1e-12)
    assert report.curve.tolist() == pytest.approx([0.5, 0.5], abs=1e-12)
    assert report.transition.rank is None
    assert report.partitions == ()


def test_block_copies_have_grouped_spectrum():
    g = tensor_block(3, complete_graph(4))
    report = analyze(g)
    lam = np.sort(report.basis.lambdas)[::-1]
    expected = np.sort(np.tile([1.0, -1 / 3, -1 / 3, -1 / 3], 3))[::-1]
    assert np.abs(lam - expected).max() <= 1e-8
    assert report.basis.degenerate.sum() >= 9


def test_chain_rank5_concentrates_on_one_bead():
    beads = tuple(TwoModuleBead(50, 50, 0.8, 0.2) for _ in range(5))
    g = generate_bead_chain(TwoLevelSpec(beads, PathRandom(0.05), seed=0))
    report = analyze(g, k=20)
    # the group holding most of rank 5's L2 mass
    l2_frac, top_group = max((l2, group) for rank, group, l2, _ in report.group_table if rank == 5)
    assert l2_frac >= 0.8
    assert top_group in range(5)
    assert report.transition.rank == 5


def test_group_mass_table_indicator_and_uniform():
    g = path_graph(4)
    labels = np.array([0, 0, 1, 1])
    basis = spectrum_random_walk(g)

    table = group_mass_table(basis, labels)
    by_rank = {}
    for rank, group, l2, l1 in table:
        by_rank.setdefault(rank, {})[group] = (l2, l1)
    for rank in range(4):
        assert sum(v[0] for v in by_rank[rank].values()) == pytest.approx(1.0, abs=1e-10)

    # hand-built indicator mass check
    from eigenloc.eigensolver import Eigenbasis

    v = np.array([[1.0], [0.0], [0.0], [0.0]])
    fake = Eigenbasis(
        lambdas=np.array([1.0]),
        vectors=v,
        gaps=np.array([]),
        clusters=np.array([0]),
    )
    rows = group_mass_table(fake, labels)
    masses = {group: (l2, l1) for _, group, l2, l1 in rows}
    assert masses[0] == (1.0, 1.0)
    assert masses[1] == (0.0, 0.0)

    half = np.full((4, 1), 0.5)
    fake2 = Eigenbasis(
        lambdas=np.array([1.0]),
        vectors=half,
        gaps=np.array([]),
        clusters=np.array([0]),
    )
    rows2 = group_mass_table(fake2, labels)
    for _, _, l2, l1 in rows2:
        assert l2 == pytest.approx(0.5)
        assert l1 == pytest.approx(0.5)


def test_group_mass_table_requires_complete_labels():
    g = path_graph(4)
    basis = spectrum_random_walk(g)
    with pytest.raises(MissingLabels):
        group_mass_table(basis, None)
    with pytest.raises(MissingLabels, match="node 2 has no label"):
        group_mass_table(basis, np.array([0, 0, -1, -1]))
    with pytest.raises(SizeMismatch, match="3 labels for 4 nodes"):
        group_mass_table(basis, np.array([0, 0, 1]))


def test_analyze_permutation_invariance():
    rng = np.random.default_rng(11)
    g = random_connected_graph(rng, n_max=40, weighted=False)
    perm = rng.permutation(g.n)
    relabeled = {}
    edges = [(min(perm[i], perm[j]), max(perm[i], perm[j]), w) for i, j, w in zip(g.rows, g.cols, g.weights)]
    from eigenloc import WeightedGraph

    h = WeightedGraph.from_edges(g.n, edges)
    a = analyze(g)
    b = analyze(h)
    assert np.allclose(a.basis.lambdas, b.basis.lambdas, atol=1e-9)
    assert np.allclose(
        a.curve, b.curve, atol=1e-9
    )
    assert a.transition.rank == b.transition.rank
    del relabeled


def test_analyze_sweep_ranks():
    g = path_graph(6)
    report = analyze(g, sweep_ranks=(1, 2))
    assert [rank for rank, _ in report.partitions] == [1, 2]
    assert all(p.conductance is not None for _, p in report.partitions)
    with pytest.raises(InputError):
        analyze(g, sweep_ranks=(9,))
    with pytest.raises(InputError):
        analyze(g, sweep_ranks=(-1,))


def test_analyze_default_rank_budget():
    rng = np.random.default_rng(5)
    g = random_connected_graph(rng, n_max=121, weighted=False)
    while g.n <= 100:
        g = random_connected_graph(rng, n_max=121, weighted=False)
    report = analyze(g)
    assert report.curve.size == len(report.hists) == 100
    small = analyze(path_graph(7))
    assert small.curve.size == len(small.hists) == 7


@pytest.mark.parametrize("k", [5, 16])
def test_analyze_rejects_bad_tau_whatever_the_curve_length(k):
    # k=5 gives a curve shorter than window+1, which used to skip the check
    for tau in (0.5, math.nan, math.inf):
        with pytest.raises(InputError, match="factor must be > 1"):
            analyze(generate_grid(4, 4), k=k, tau=tau)
    with pytest.raises(InputError, match="window must be >= 1"):
        analyze(generate_grid(4, 4), k=k, window=0)
    assert analyze(generate_grid(4, 4), k=5).transition.rank is None
