import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenloc import (
    MigrationInput,
    WeightedGraph,
    laplacian,
    migration_similarity,
    normalized_adjacency,
    random_walk,
)
from eigenloc.errors import (
    DuplicateEdge,
    InputError,
    IsolatedNode,
    NegativeWeight,
    NonpositivePopulation,
    SizeMismatch,
)
from helpers import graph_from_dense, path_graph, random_connected_graph


def test_laplacian_single_edge():
    g = WeightedGraph.from_edges(2, [(0, 1, 1.0)])
    L = laplacian(g).matrix.toarray()
    assert np.array_equal(L, [[1, -1], [-1, 1]])


def test_laplacian_empty_graph():
    g = WeightedGraph.from_edges(3, [])
    assert np.array_equal(laplacian(g).matrix.toarray(), np.zeros((3, 3)))


def test_laplacian_path():
    L = laplacian(path_graph(3)).matrix.toarray()
    assert np.array_equal(L, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])


def test_random_walk_single_edge():
    P = random_walk(WeightedGraph.from_edges(2, [(0, 1, 1.0)])).matrix.toarray()
    assert np.array_equal(P, [[0, 1], [1, 0]])


def test_random_walk_path():
    P = random_walk(path_graph(3)).matrix.toarray()
    assert np.array_equal(P, [[0, 1, 0], [0.5, 0, 0.5], [0, 1, 0]])


def test_random_walk_isolated_node():
    g = WeightedGraph.from_edges(3, [(0, 1, 1.0)])
    with pytest.raises(IsolatedNode) as exc:
        random_walk(g)
    assert exc.value.node == 2


def test_laplacian_allows_isolated_nodes():
    g = WeightedGraph.from_edges(3, [(0, 1, 1.0)])
    L = laplacian(g).matrix.toarray()
    assert np.array_equal(L[2], [0, 0, 0])


def test_migration_similarity_formula():
    m = MigrationInput(WeightedGraph.from_edges(2, [(1, 0, 10)]), np.array([100.0, 50.0]))
    g = migration_similarity(m)
    assert g.edges == [(0, 1, 100.0 / 5000.0)]


def test_migration_similarity_zero_flows():
    m = MigrationInput(WeightedGraph.from_edges(3, [(0, 1, 0)]), np.ones(3))
    assert migration_similarity(m).edge_count == 0


def test_migration_fractional_flow_rejected():
    # a count is an integer; truncating 2.5 would change the kernel silently
    with pytest.raises(InputError, match="flow count 2.5 is not an integer"):
        MigrationInput(WeightedGraph.from_edges(2, [(0, 1, 2.5)]), np.ones(2))


def test_migration_self_flow_rejected():
    with pytest.raises(InputError, match="self-loop"):
        MigrationInput(WeightedGraph.from_edges(2, [(0, 0, 1), (0, 1, 2)]), np.ones(2))


def test_migration_nonpositive_population():
    with pytest.raises(NonpositivePopulation):
        MigrationInput(WeightedGraph.from_edges(2, []), np.array([10.0, 0.0]))


def test_migration_population_count_must_match():
    with pytest.raises(SizeMismatch):
        MigrationInput(WeightedGraph.from_edges(3, [(0, 1, 4)]), np.ones(2))


@pytest.mark.parametrize("pop", [np.nan, np.inf])
def test_migration_nonfinite_population(pop):
    with pytest.raises(InputError, match="population of node 1 is not finite"):
        MigrationInput(WeightedGraph.from_edges(2, []), np.array([10.0, pop]))


def test_graph_rejects_duplicate_edge():
    with pytest.raises(DuplicateEdge):
        WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 0, 2.0)])


def test_graph_sorted_and_shuffled_input_agree():
    rng = np.random.default_rng(8)
    g = random_connected_graph(rng, n_max=60, weighted=True)
    e = rng.permutation(g.edge_count)
    flip = rng.random(e.size) < 0.5  # some edges arrive as (j, i)
    i = np.where(flip, g.cols[e], g.rows[e])
    j = np.where(flip, g.rows[e], g.cols[e])
    shuffled = WeightedGraph(g.n, i, j, g.weights[e])
    again = WeightedGraph(g.n, g.rows, g.cols, g.weights)
    for h in (shuffled, again):
        for name in ("rows", "cols", "weights"):
            assert np.array_equal(getattr(h, name), getattr(g, name))
            assert getattr(h, name).dtype == getattr(g, name).dtype


def test_graph_sorted_input_with_repeat_rejected():
    with pytest.raises(DuplicateEdge) as exc:
        WeightedGraph(4, [0, 1, 1, 2], [1, 2, 2, 3], [1.0, 1.0, 1.0, 1.0])
    assert (exc.value.i, exc.value.j) == (1, 2)


def test_graph_rejects_negative_weight():
    with pytest.raises(NegativeWeight):
        WeightedGraph.from_edges(2, [(0, 1, -1.0)])


@pytest.mark.parametrize("w", [np.nan, np.inf, -np.inf])
def test_graph_rejects_nonfinite_weight(w):
    with pytest.raises(InputError, match="non-finite"):
        WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, w)])


def test_graph_rejects_self_loop():
    with pytest.raises(InputError):
        WeightedGraph.from_edges(2, [(1, 1, 1.0)])


def test_graph_rejects_out_of_range():
    with pytest.raises(InputError):
        WeightedGraph.from_edges(2, [(0, 2, 1.0)])


def test_graph_drops_zero_weights():
    g = WeightedGraph.from_edges(3, [(0, 1, 0.0), (1, 2, 2.0)])
    assert g.edges == [(1, 2, 2.0)]


def test_graph_canonicalizes_edge_order():
    g = WeightedGraph.from_edges(4, [(2, 3, 1.0), (1, 0, 3.0)])
    assert g.edges == [(0, 1, 3.0), (2, 3, 1.0)]


def test_graph_label_validation():
    for bad in ([0], [0, 0, 0], [0, -2], [0.0, 1.0], np.array([0, 1], dtype=np.uint64)):
        with pytest.raises(InputError):
            WeightedGraph.from_edges(2, [(0, 1, 1.0)], labels=bad)
    with pytest.raises(InputError):
        WeightedGraph.from_edges(2, [(0, 1, 1.0)], sublabels=[[0, 1]])
    g = WeightedGraph.from_edges(2, [(0, 1, 1.0)], labels=np.array([3, -1], dtype=np.int8))
    assert g.labels.dtype == np.int64 and g.labels.tolist() == [3, -1]


def test_subgraph_induces_edges_and_labels():
    g = WeightedGraph.from_edges(
        5,
        [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (3, 4, 4.0)],
        labels=np.arange(5) % 2,
    )
    sub = g.subgraph([1, 2, 3])
    assert sub.n == 3
    assert sub.edges == [(0, 1, 2.0), (1, 2, 3.0)]
    assert sub.labels.tolist() == [1, 0, 1]


def test_row_sum_invariants_random_graphs():
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = random_connected_graph(rng, n_max=60)
        L = laplacian(g)
        P = random_walk(g)
        maxdeg = g.degrees.max()
        assert np.abs(np.asarray(L.matrix.sum(axis=1))).max() <= 1e-12 * maxdeg
        assert np.abs(np.asarray(P.matrix.sum(axis=1)) - 1.0).max() <= 1e-12
        # L = D (I - P) entrywise
        D = np.diag(g.degrees)
        lhs = L.matrix.toarray()
        rhs = D @ (np.eye(g.n) - P.matrix.toarray())
        assert np.abs(lhs - rhs).max() <= 1e-12 * maxdeg


def test_normalized_adjacency_symmetric():
    rng = np.random.default_rng(3)
    g = random_connected_graph(rng, n_max=40)
    S = normalized_adjacency(g).matrix.toarray()
    assert np.abs(S - S.T).max() <= 1e-14


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_migration_similarity_output_is_valid_graph(data):
    n = data.draw(st.integers(2, 8))
    flows = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            flows[i, j] = flows[j, i] = data.draw(st.integers(0, 1000))
    pops = np.array(
        [data.draw(st.integers(1, 10**6)) for _ in range(n)], dtype=np.float64
    )
    g = migration_similarity(MigrationInput(graph_from_dense(flows), pops))
    # constructor re-checks the invariants; verify content agrees with the formula
    assert g.n == n
    for i, j, w in g.edges:
        assert i < j and w > 0
        assert w == pytest.approx(flows[i, j] ** 2 / (pops[i] * pops[j]), rel=1e-15)
    assert g.edge_count == np.count_nonzero(np.triu(flows, 1))


def test_edge_arrays_must_align():
    with pytest.raises(SizeMismatch):
        WeightedGraph(2, np.array([0]), np.array([1, 1]), np.array([1.0]))
