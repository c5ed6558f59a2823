import numpy as np
import pytest

from eigenloc import (
    ERBead,
    GlobalRandom,
    Partition,
    PathIdentity,
    PathRandom,
    TwoLevelSpec,
    TwoModuleBead,
    generate_bead_chain,
    generate_er,
    generate_grid,
    generate_two_module,
    matched_er_density,
    partition_agreement,
    sign_cut,
    spectrum_random_walk,
    tensor_block,
)
from eigenloc import twolevel
from eigenloc.errors import InputError, UnequalBeadSizes
from helpers import complete_graph


def bead_edges(g, beads, t):
    """Edge subset inside bead t of a chain graph."""
    offsets = np.cumsum([0] + [b.size for b in beads])
    lo, hi = offsets[t], offsets[t + 1]
    return {
        (i, j, w)
        for i, j, w in zip(g.rows.tolist(), g.cols.tolist(), g.weights.tolist())
        if lo <= i < hi and lo <= j < hi
    }


def cross_edges(g, beads, t, u):
    offsets = np.cumsum([0] + [b.size for b in beads])
    return {
        (i, j, w)
        for i, j, w in zip(g.rows.tolist(), g.cols.tolist(), g.weights.tolist())
        if offsets[t] <= i < offsets[t + 1] and offsets[u] <= j < offsets[u + 1]
    }


def test_er_extremes():
    assert generate_er(10, 0.0, seed=1).edge_count == 0
    g = generate_er(10, 1.0, seed=1)
    assert g.edge_count == 45


def test_er_edge_count_within_binomial_bounds():
    # mean 4995, sigma ~= 70.3 for n=1000, p=0.01
    mean = 499500 * 0.01
    sigma = np.sqrt(499500 * 0.01 * 0.99)
    for seed in range(3):
        m = generate_er(1000, 0.01, seed=seed).edge_count
        assert abs(m - mean) <= 4 * sigma


def test_two_module_extremes():
    g = generate_two_module(4, 3, 1.0, 0.0, seed=0)
    assert g.edge_count == 6 + 3  # two cliques, no cross edges
    assert np.array_equal(g.rows < 4, g.cols < 4)
    assert g.labels.tolist() == [0, 0, 0, 0, 1, 1, 1]


def test_two_module_equal_densities_match_er_statistics():
    # with p1 = p2 = p the construction is distributionally ER(n1+n2, p)
    p = 0.3
    pairs = 4950
    counts = [generate_two_module(50, 50, p, p, seed=s).edge_count for s in range(200)]
    sigma = np.sqrt(pairs * p * (1 - p))
    assert abs(np.mean(counts) - pairs * p) <= 4 * sigma / np.sqrt(200)


def test_two_module_planted_split_recoverable():
    hits = 0
    for seed in range(10):
        g = generate_two_module(50, 50, 0.8, 0.2, seed=seed)
        basis = spectrum_random_walk(g, k=2)
        cut = sign_cut(basis.vectors[:, 1])
        planted = Partition(np.array([g.labels[i] == 1 for i in range(g.n)]))
        if partition_agreement(cut, planted) >= 0.95:
            hits += 1
    assert hits > 5


def test_anti_modular_warning():
    with pytest.warns(UserWarning):
        TwoModuleBead(5, 5, 0.1, 0.9)


def test_single_bead_chain_equals_bead_graph():
    spec = TwoLevelSpec((TwoModuleBead(8, 7, 0.7, 0.1),), PathRandom(0.5), seed=3)
    chain = generate_bead_chain(spec)
    alone = generate_two_module(8, 7, 0.7, 0.1, seed=3)
    assert np.array_equal(chain.rows, alone.rows) and np.array_equal(chain.cols, alone.cols)
    assert np.array_equal(chain.weights, alone.weights)
    assert all(chain.labels[v] == 0 for v in range(chain.n))
    assert np.array_equal(chain.sublabels, alone.labels)


def test_er_matches_bead_zero_stream():
    spec = TwoLevelSpec((ERBead(12, 0.4), ERBead(12, 0.4)), PathRandom(0.2), seed=9)
    chain = generate_bead_chain(spec)
    alone = generate_er(12, 0.4, seed=9)
    alone_edges = zip(alone.rows.tolist(), alone.cols.tolist(), alone.weights.tolist())
    assert bead_edges(chain, spec.beads, 0) == set(alone_edges)


def test_generators_refuse_negative_seed():
    # the one-bead chain's spec check, not numpy's bare ValueError
    with pytest.raises(InputError, match="seed -1 is negative"):
        generate_er(5, 0.5, -1)
    with pytest.raises(InputError, match="seed -2 is negative"):
        generate_two_module(3, 3, 0.5, 0.1, -2)


def test_identity_coupling_edges():
    beads = (ERBead(6, 0.5), ERBead(6, 0.5))
    chain = generate_bead_chain(TwoLevelSpec(beads, PathIdentity(0.1), seed=2))
    cross = cross_edges(chain, beads, 0, 1)
    assert cross == {(v, v + 6, 0.1) for v in range(6)}


def test_identity_coupling_requires_equal_sizes():
    with pytest.raises(UnequalBeadSizes):
        TwoLevelSpec((ERBead(5, 0.5), ERBead(6, 0.5)), PathIdentity(0.1), seed=0)


def test_path_coupling_counts_and_locality():
    beads = tuple(TwoModuleBead(50, 50, 0.8, 0.2) for _ in range(5))
    spec = TwoLevelSpec(beads, PathRandom(0.05), seed=0)
    g = generate_bead_chain(spec)
    sigma = np.sqrt(10000 * 0.05 * 0.95)
    for t in range(4):
        m = len(cross_edges(g, beads, t, t + 1))
        assert abs(m - 500) <= 4 * sigma
    assert not cross_edges(g, beads, 0, 2)
    assert not cross_edges(g, beads, 1, 4)


def test_global_coupling_reaches_nonadjacent_beads():
    beads = tuple(ERBead(20, 0.4) for _ in range(4))
    g = generate_bead_chain(TwoLevelSpec(beads, GlobalRandom(0.1), seed=1))
    assert cross_edges(g, beads, 0, 2)
    assert cross_edges(g, beads, 0, 3)


def test_seed_determinism_and_prefix_stability():
    beads5 = tuple(TwoModuleBead(10, 10, 0.8, 0.2) for _ in range(5))
    beads3 = beads5[:3]
    a = generate_bead_chain(TwoLevelSpec(beads5, PathRandom(0.05), seed=42))
    b = generate_bead_chain(TwoLevelSpec(beads5, PathRandom(0.05), seed=42))
    assert np.array_equal(a.rows, b.rows) and np.array_equal(a.cols, b.cols)
    assert np.array_equal(a.weights, b.weights)
    c = generate_bead_chain(TwoLevelSpec(beads3, PathRandom(0.05), seed=42))
    for t in range(3):
        assert bead_edges(a, beads5, t) == bead_edges(c, beads3, t)
    for t in range(2):
        assert cross_edges(a, beads5, t, t + 1) == cross_edges(c, beads3, t, t + 1)
    d = generate_bead_chain(TwoLevelSpec(beads5, PathRandom(0.05), seed=43))
    assert not (np.array_equal(d.rows, a.rows) and np.array_equal(d.cols, a.cols)
                and np.array_equal(d.weights, a.weights))


def test_chain_label_completeness():
    beads = (ERBead(5, 0.5), TwoModuleBead(3, 4, 0.9, 0.1), ERBead(5, 0.5, label=77))
    g = generate_bead_chain(TwoLevelSpec(beads, PathRandom(0.3), seed=0))
    assert g.labels.tolist() == [0] * 5 + [1] * 7 + [77] * 5
    assert g.sublabels.tolist() == [-1] * 5 + [0, 0, 0, 1, 1, 1, 1] + [-1] * 5


def test_tensor_block_identity():
    w = generate_er(6, 0.5, seed=5)
    g = tensor_block(1, w)
    assert np.array_equal(g.rows, w.rows) and np.array_equal(g.cols, w.cols)
    assert np.array_equal(g.weights, w.weights)


def test_tensor_block_two_edges():
    w = complete_graph(2)
    g = tensor_block(2, w)
    assert (g.rows.tolist(), g.cols.tolist(), g.weights.tolist()) == ([0, 2], [1, 3], [1.0, 1.0])
    assert g.labels.tolist() == [0, 0, 1, 1]


def test_tensor_block_spectrum_repeats():
    # oracle: K4 spectrum {1, -1/3 x3}; three copies repeat it threefold
    g = tensor_block(3, complete_graph(4))
    basis = spectrum_random_walk(g)
    expected = np.sort(np.tile([1.0, -1 / 3, -1 / 3, -1 / 3], 3))[::-1]
    assert np.abs(np.sort(basis.lambdas)[::-1] - expected).max() <= 1e-8


def test_tensor_block_disjoint_and_sublabels():
    w = generate_two_module(4, 4, 0.9, 0.2, seed=2)
    g = tensor_block(3, w)
    copy = np.array([g.labels[v] for v in range(g.n)])
    assert np.array_equal(copy[g.rows], copy[g.cols])
    assert g.sublabels[0] == w.labels[0]
    assert g.sublabels[8 + 3] == w.labels[3]


def test_grid_examples():
    g = generate_grid(2, 2)
    assert g.edge_count == 4
    path = generate_grid(1, 7)
    assert path.edge_count == 6
    assert generate_grid(3, 4).edge_count == 17


def test_grid_count_formula():
    rng = np.random.default_rng(0)
    for _ in range(10):
        r, c = (int(x) for x in rng.integers(1, 9, size=2))
        assert generate_grid(r, c).edge_count == r * (c - 1) + c * (r - 1)


def test_matched_er_density_value():
    assert matched_er_density(50, 50, 0.8, 0.2) == pytest.approx(2460 / 4950, rel=1e-15)


def test_spec_validation():
    with pytest.raises(InputError):
        TwoLevelSpec((), PathRandom(0.1), seed=0)
    with pytest.raises(InputError):
        ERBead(0, 0.5)
    with pytest.raises(InputError):
        ERBead(5, 1.5)
    with pytest.raises(InputError):
        PathIdentity(0.0)
    with pytest.raises(InputError, match="edge probability must lie in"):
        TwoModuleBead(2, 2, 1.5, 0.1)
    with pytest.raises(InputError, match="coupling probability must lie in"):
        GlobalRandom(1.5)
    # graphs keep group ids as int64 and reserve -1 for unlabeled nodes
    for label in (-1, 2**63):
        with pytest.raises(InputError):
            ERBead(3, 0.5, label=label)
        with pytest.raises(InputError):
            TwoModuleBead(2, 2, 0.5, 0.1, label=label)
    assert ERBead(3, 0.5, label=2**63 - 1).label == 2**63 - 1


def test_library_generators_reject_empty_shapes():
    with pytest.raises(InputError, match="k must be >= 1"):
        tensor_block(0, complete_graph(3))
    with pytest.raises(InputError, match="grid dimensions must be >= 1"):
        generate_grid(0, 3)
    with pytest.raises(InputError, match="bead too small to define a density"):
        matched_er_density(1, 0, 0.5, 0.1)


def test_spec_rejects_negative_seed():
    with pytest.raises(InputError, match="seed -1 is negative"):
        TwoLevelSpec((ERBead(3, 0.5),), PathRandom(0.1), seed=-1)


def test_bead_size_limit():
    ERBead(10**9, 0.5)
    TwoModuleBead(10**9 - 1, 1, 0.5, 0.1)
    with pytest.raises(InputError, match="bead size must lie in 1..1000000000"):
        ERBead(10**9 + 1, 0.5)
    with pytest.raises(InputError, match="bead size must lie in 1..1000000000"):
        TwoModuleBead(10**9, 1, 0.5, 0.1)


@pytest.mark.parametrize("eps", [float("nan"), float("inf")])
def test_identity_coupling_must_be_finite(eps):
    with pytest.raises(InputError):
        PathIdentity(eps)


@pytest.mark.parametrize("size", [1, 2, 3, 50, 251])
@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_pair_draws_match_the_index_array_reference(size, p):
    # the pairs come from flat indices of the draw; the reference builds the
    # full index arrays the draw covers, so the stream and the order are the same
    nodes = np.arange(size) + 7
    iu, ju = np.triu_indices(size, 1)
    mask = np.random.default_rng(3).random(iu.size) < p
    er = twolevel._er_pairs(np.random.default_rng(3), nodes, p)
    assert all(np.array_equal(a, b) for a, b in zip(er, (nodes[iu[mask]], nodes[ju[mask]])))
    other = np.arange(size + 2) + 1000
    ia, ib = np.nonzero(np.random.default_rng(4).random((size, size + 2)) < p)
    bi = twolevel._bipartite_pairs(np.random.default_rng(4), nodes, other, p)
    assert all(np.array_equal(a, b) for a, b in zip(bi, (nodes[ia], other[ib])))
