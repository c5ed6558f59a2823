import time

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from eigenloc import io as eio
from eigenloc.operators import _pair_order
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
    assert (g.rows.tolist(), g.cols.tolist(), g.weights.tolist()) == ([0], [1], [100.0 / 5000.0])


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


def test_graph_rejects_zero_nodes_and_subgraph_out_of_range():
    with pytest.raises(InputError, match="graph needs at least one node"):
        WeightedGraph(0, [], [], [])
    with pytest.raises(InputError, match="subgraph node out of range"):
        path_graph(4).subgraph([1, 4])


def test_graph_drops_zero_weights():
    g = WeightedGraph.from_edges(3, [(0, 1, 0.0), (1, 2, 2.0)])
    assert (g.rows.tolist(), g.cols.tolist(), g.weights.tolist()) == ([1], [2], [2.0])


def test_graph_canonicalizes_edge_order():
    g = WeightedGraph.from_edges(4, [(2, 3, 1.0), (1, 0, 3.0)])
    assert (g.rows.tolist(), g.cols.tolist(), g.weights.tolist()) == ([0, 2], [1, 3], [3.0, 1.0])


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
    assert (sub.rows.tolist(), sub.cols.tolist(), sub.weights.tolist()) == ([0, 1], [1, 2], [2.0, 3.0])
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
    for i, j, w in zip(g.rows, g.cols, g.weights):
        assert i < j and w > 0
        assert w == pytest.approx(flows[i, j] ** 2 / (pops[i] * pops[j]), rel=1e-15)
    assert g.edge_count == np.count_nonzero(np.triu(flows, 1))


def test_edge_arrays_must_align():
    with pytest.raises(SizeMismatch):
        WeightedGraph(2, np.array([0]), np.array([1, 1]), np.array([1.0]))


@pytest.mark.parametrize("n", [2.5, 2.0, np.float64(2.0), True, "2", None])
def test_graph_node_count_must_be_an_integer(n):
    with pytest.raises(InputError, match="node count must be an integer"):
        WeightedGraph(n, [0], [1], [1.0])


def test_graph_node_count_stored_as_int():
    g = WeightedGraph(np.int32(3), [0], [1], [1.0])
    assert type(g.n) is int and g.n == 3


# ------------------------------------------------- numpy operators vs scipy
# Degrees and component labels are numpy; scipy is the reference here only.

def csgraph_components(g):
    from scipy.sparse.csgraph import connected_components

    return connected_components(g.adjacency, directed=False)


def assert_matches_scipy(g):
    count, labels = g.components
    ref_count, ref_labels = csgraph_components(g)
    assert count == ref_count
    assert np.array_equal(labels, ref_labels)
    assert np.array_equal(g.degrees, np.asarray(g.adjacency.sum(axis=1)).ravel())


@st.composite
def forests_of_components(draw):
    """Graphs on up to 60 nodes split into random groups (some of one node,
    so isolated), each group wired by random edges of widely spread weight."""
    n = draw(st.integers(1, 60))
    group = np.array(draw(st.lists(st.integers(0, 12), min_size=n, max_size=n)))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4 * n))
    pairs = sorted({(min(a, b), max(a, b)) for a, b in pairs if a != b and group[a] == group[b]})
    i = np.array([a for a, _ in pairs], dtype=np.int64)
    j = np.array([b for _, b in pairs], dtype=np.int64)
    exps = draw(st.lists(st.integers(-6, 6), min_size=i.size, max_size=i.size))
    mant = draw(st.lists(st.floats(1.0, 2.0), min_size=i.size, max_size=i.size))
    return WeightedGraph(n, i, j, np.array(mant) * 10.0 ** np.array(exps, dtype=np.float64))


@settings(max_examples=150, deadline=None)
@given(forests_of_components())
def test_components_and_degrees_match_scipy(g):
    assert_matches_scipy(g)


@settings(max_examples=150, deadline=None)
@given(forests_of_components(), st.integers(0, 2**32 - 1))
@example(WeightedGraph(1, [], [], []), 0)
@example(WeightedGraph(7, [], [], []), 0)
@example(WeightedGraph(7, [0, 2, 2], [6, 3, 5], [1.0, 2.0, 3.0]), 1)  # isolated 1 and 4
def test_symmetric_csr_matches_scipy_tocsr(g, seed):
    # laid out from the canonical edge order, the CSR must equal scipy's COO
    # conversion of both triangles array for array, index dtype included;
    # _row_order must place a lower triangle off by an ulp here and there
    # in the slots of scipy's data
    import scipy.sparse as sp

    from eigenloc.operators import _row_order, _symmetric_csr

    upper = g.weights
    step = np.random.default_rng(seed).integers(-1, 2, upper.size)
    lower = np.nextafter(upper, upper + step)
    ref = sp.coo_matrix(
        (np.concatenate([upper, lower]),
         (np.concatenate([g.rows, g.cols]), np.concatenate([g.cols, g.rows]))),
        shape=(g.n, g.n),
    ).tocsr()
    placed = _row_order(g.n, g.rows, g.cols, upper, lower)
    assert placed.dtype == ref.data.dtype and placed.tobytes() == ref.data.tobytes()
    data, indices, indptr = _symmetric_csr(g.n, g.rows, g.cols, upper)
    assert indptr.size == ref.shape[0] + 1
    for name, a in (("indptr", indptr), ("indices", indices)):
        b = getattr(ref, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert data.tobytes() == _row_order(g.n, g.rows, g.cols, upper, upper).tobytes()


@settings(max_examples=150, deadline=None)
@given(forests_of_components())
def test_normalized_adjacency_is_diag_h_w_diag_h(g):
    # S is W's CSR scaled to (h_i w) h_j in every slot: scipy's
    # diags(h) @ W @ diags(h) entry for entry, on non-integer weights
    import scipy.sparse as sp

    linked = np.flatnonzero(g.degrees > 0)
    if linked.size == 0:
        return
    g = g.subgraph(linked)
    h = 1.0 / np.sqrt(g.degrees)
    ref = (sp.diags(h) @ g.adjacency @ sp.diags(h)).toarray()
    assert np.array_equal(normalized_adjacency(g).matrix.toarray(), ref)


@settings(max_examples=60, deadline=None)
@given(forests_of_components())
def test_dense_blocks_match_normalized_adjacency(g):
    # the solver's dense route fills each component's block from the edge
    # list; it must equal the same block of the CSR operator bit for bit
    from eigenloc.eigensolver import spectrum_random_walk

    linked = np.flatnonzero(g.degrees > 0)
    if linked.size == 0:
        return
    h = g.subgraph(linked)
    blocks = []
    real = np.linalg.eigh

    def spy(A):
        blocks.append(A.copy())
        return real(A)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigh", spy)
        spectrum_random_walk(h)
    S = normalized_adjacency(h).matrix.toarray()
    count, labels = csgraph_components(h)
    assert len(blocks) == count
    for c, block in enumerate(blocks):
        members = np.flatnonzero(labels == c)
        assert np.array_equal(block, S[np.ix_(members, members)])


def test_lanczos_blocks_match_normalized_adjacency(monkeypatch):
    # the Lanczos route builds each component's CSR from the edge list: same
    # entries, same order within each row, as the slice of the operator
    from eigenloc import eigensolver

    rng = np.random.default_rng(11)
    graphs = (random_connected_graph(rng, n_max=80, weighted=True) for _ in range(20))
    parts = [p for p in graphs if p.n > 10][:3]
    n = sum(p.n for p in parts)
    perm = rng.permutation(n)
    offsets = np.cumsum([0] + [p.n for p in parts])
    g = WeightedGraph(
        n,
        np.concatenate([perm[p.rows + o] for p, o in zip(parts, offsets)]),
        np.concatenate([perm[p.cols + o] for p, o in zip(parts, offsets)]),
        np.concatenate([p.weights for p in parts]),
    )
    blocks = []
    real = eigensolver._lanczos

    def spy(A, *args):
        blocks.append((A.indptr.copy(), A.indices.copy(), A.data.copy()))
        return real(A, *args)

    monkeypatch.setattr(eigensolver, "_lanczos", spy)
    eigensolver.spectrum_random_walk(g, k=1, dense_limit=10)
    S = normalized_adjacency(g).matrix
    count, labels = csgraph_components(g)
    assert len(blocks) == count == 3
    for c, (indptr, indices, data) in enumerate(blocks):
        members = np.flatnonzero(labels == c)
        ref = S[members][:, members]
        assert all((np.diff(indices[a:b]) > 0).all() for a, b in zip(indptr[:-1], indptr[1:]))
        for name, a in (("indptr", indptr), ("indices", indices), ("data", data)):
            assert np.array_equal(a, getattr(ref, name)), name


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_lanczos_operator_products_match_csr_matrix(seed):
    # the solver multiplies by its CSR arrays without scipy.sparse, one
    # vector at a time, and gets csr_matrix's product bit for bit
    from eigenloc.eigensolver import _CSROperator

    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n_max=120, weighted=True)
    S = normalized_adjacency(g).matrix
    A = _CSROperator(g.n, S.data, S.indices, S.indptr)
    x = rng.standard_normal(g.n)
    a, b = A @ x, S @ x
    assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 400), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_degrees_with_hubs_match_scipy(n, hubs, seed):
    # hub rows past 128 entries take numpy's recursive pairwise sum
    rng = np.random.default_rng(seed)
    centers = rng.choice(n, size=min(hubs, n - 1), replace=False)
    a = np.concatenate([np.repeat(centers, n), rng.integers(0, n, 2 * n)])
    b = np.concatenate([np.tile(np.arange(n), centers.size), rng.integers(0, n, 2 * n)])
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    pairs = np.unique(np.stack([lo, hi])[:, lo < hi], axis=1)
    w = rng.uniform(1.0, 2.0, pairs.shape[1]) * 10.0 ** rng.integers(-6, 7, pairs.shape[1])
    g = WeightedGraph(n, pairs[0], pairs[1], w)
    assert np.array_equal(g.degrees, np.asarray(g.adjacency.sum(axis=1)).ravel())


def test_degrees_memory_budget():
    # the weights once in CSR row order (16 B per edge), one stable argsort
    # of cols and its gathered weights (8 + 8 B), a 2-byte-per-edge mask:
    # no 2E-long index arrays
    import tracemalloc

    from eigenloc import PathRandom, TwoLevelSpec, TwoModuleBead, generate_bead_chain

    g = generate_bead_chain(
        TwoLevelSpec((TwoModuleBead(150, 150, 0.2, 0.02),) * 10, PathRandom(0.01), seed=3)
    )
    fresh = WeightedGraph(g.n, g.rows, g.cols, g.weights)
    tracemalloc.start()
    try:
        fresh.degrees
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    budget = 28 * g.edge_count + 80 * g.n
    assert peak <= budget, f"peak {peak} B, budget {budget} B (E = {g.edge_count})"


def test_components_memory_budget():
    # the first hooking round reads rows and cols as they are (every node is
    # its own root): no root gathers, masks or min/max copies of every edge
    import tracemalloc

    from eigenloc import PathRandom, TwoLevelSpec, TwoModuleBead, generate_bead_chain

    g = generate_bead_chain(
        TwoLevelSpec((TwoModuleBead(150, 150, 0.2, 0.02),) * 10, PathRandom(0.01), seed=3)
    )
    fresh = WeightedGraph(g.n, g.rows, g.cols, g.weights)
    tracemalloc.start()
    try:
        count, labels = fresh.components
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 1 and not labels.any()
    budget = 40 * g.edge_count + 80 * g.n
    assert peak <= budget, f"peak {peak} B, budget {budget} B (E = {g.edge_count})"


def test_canonical_edges_are_kept_without_copies():
    i, j, w = np.array([0, 0, 1]), np.array([1, 2, 2]), np.array([1.0, 2.0, 3.0])
    for rows, cols in ((i, j), (j, i)):  # either triangle: the same arrays
        g = WeightedGraph(3, rows, cols, w)
        assert np.shares_memory(g.rows, i) and np.shares_memory(g.cols, j)
        assert np.shares_memory(g.weights, w)


def test_single_node_and_star_match_scipy():
    assert_matches_scipy(WeightedGraph(1, [], [], []))
    for center in (0, 500, 999):
        leaves = np.delete(np.arange(1000), center)
        star = WeightedGraph(1000, np.full(999, center), leaves, np.linspace(1.0, 3.0, 999))
        assert_matches_scipy(star)


@pytest.mark.parametrize("order", ["natural", "reversed", "shuffled"])
def test_long_path_components_within_budget(order):
    # hooking rounds can grow with the diameter; a 200,000-node path is the
    # long-diameter case, its nodes visited in natural, reversed or random order
    n = 200_000
    visit = np.arange(n)
    if order == "reversed":
        visit = visit[::-1].copy()
    elif order == "shuffled":
        visit = np.random.default_rng(4).permutation(n)
    g = WeightedGraph(n, visit[:-1], visit[1:], np.ones(n - 1))
    t = time.perf_counter()
    count, labels = g.components
    g.degrees
    elapsed = time.perf_counter() - t
    assert elapsed < 2.0, f"components and degrees took {elapsed:.2f} s"  # about 0.1 s on 2 vCPUs
    assert count == 1 and not labels.any()
    assert_matches_scipy(g)


KEY_LIMIT = 3037000499  # the largest n with n * n <= 2^63: above it, no int64 key


@st.composite
def _node_pairs(draw):
    """(n, pairs): pairs of nodes near 0 and near n - 1, some drawn twice."""
    n = draw(st.sampled_from([1, 2, 50, KEY_LIMIT, KEY_LIMIT + 1, 2**40, 2**63 - 1]))
    node = st.integers(0, min(n - 1, 3)) | st.integers(max(n - 4, 0), n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=30))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=10))
    return n, draw(st.permutations(pairs))


@settings(max_examples=300, deadline=None)
@given(_node_pairs())
@example((KEY_LIMIT, [(KEY_LIMIT - 1, KEY_LIMIT - 1), (0, 1), (KEY_LIMIT - 1, 0), (0, 1)]))
@example((KEY_LIMIT + 1, [(KEY_LIMIT, KEY_LIMIT), (0, KEY_LIMIT), (0, KEY_LIMIT), (KEY_LIMIT, 0)]))
def test_pair_order_is_the_stable_lexsort(case):
    # the one-key argsort of WeightedGraph and of the MatrixMarket parse
    # paths, with repeated pairs and at n beyond the int64 key limit
    n, pairs = case
    a = np.array([i for i, _ in pairs], dtype=np.int64)
    b = np.array([j for _, j in pairs], dtype=np.int64)
    expected = np.lexsort((b, a))
    assert np.array_equal(_pair_order(n, a, b), expected)
    order, again = eio._repeats(n, a, b)
    assert np.array_equal(order, expected)
    assert again.tolist() == [tuple(p) in pairs[:e] for e, p in enumerate(pairs)]
