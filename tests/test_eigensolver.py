import time

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from eigenloc import (
    PathRandom,
    TwoLevelSpec,
    TwoModuleBead,
    WeightedGraph,
    generalized_laplacian_eigs,
    generate_bead_chain,
    generate_grid,
    generate_two_module,
    normalized_adjacency,
    normalized_square_spectrum,
    random_walk,
    spectrum_random_walk,
    tensor_block,
)
from eigenloc.errors import AllZeroSpectrum, ConvergenceFailure, InputError, IsolatedNode
from helpers import complete_graph, path_graph, random_connected_graph

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def brute_force_rw_spectrum(g):
    """Independent oracle: eigendecompose the nonsymmetric P directly."""
    P = random_walk(g).matrix.toarray()
    evals, vecs = np.linalg.eig(P)
    order = np.argsort(-evals.real)
    return evals.real[order], vecs.real[:, order]


def test_single_edge_spectrum_and_signs():
    basis = spectrum_random_walk(WeightedGraph.from_edges(2, [(0, 1, 1.0)]))
    assert np.allclose(basis.lambdas, [1.0, -1.0], atol=1e-12)
    assert np.allclose(basis.vectors[:, 0], [INV_SQRT2, INV_SQRT2], atol=1e-12)
    # sign rule: tied magnitudes resolve to the lowest index being positive
    assert np.allclose(basis.vectors[:, 1], [INV_SQRT2, -INV_SQRT2], atol=1e-12)


def test_complete_graph_spectrum():
    # oracle value: K4's walk matrix is (J - I)/3 with spectrum {1, -1/3 x3}
    g = complete_graph(4)
    basis = spectrum_random_walk(g)
    assert np.allclose(basis.lambdas, [1.0, -1 / 3, -1 / 3, -1 / 3], atol=1e-12)
    oracle, _ = brute_force_rw_spectrum(g)
    assert np.allclose(basis.lambdas, oracle, atol=1e-10)


def test_two_components_duplicate_top_eigenvalue():
    g = WeightedGraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
    basis = spectrum_random_walk(g)
    assert np.allclose(basis.lambdas[:2], [1.0, 1.0], atol=1e-10)
    assert basis.degenerate[0] and basis.degenerate[1]


def test_generalized_path_eigenvalues():
    # oracle value: brute-force eig of the 3-path's P gives lambda = 1, 0, -1
    pairs = generalized_laplacian_eigs(path_graph(3))
    mus = [mu for mu, _ in pairs]
    assert np.allclose(mus, [0.0, 1.0, 2.0], atol=1e-12)
    assert mus == sorted(mus)


def test_generalized_smallest_mode_is_constant():
    rng = np.random.default_rng(11)
    g = random_connected_graph(rng, n_max=30)
    mu, x = generalized_laplacian_eigs(g)[0]
    assert abs(mu) <= 1e-10
    assert np.abs(x - x[0]).max() <= 1e-8


def test_generalized_residuals():
    rng = np.random.default_rng(12)
    g = random_connected_graph(rng, n_max=50)
    L = np.diag(g.degrees) - g.adjacency.toarray()
    D = np.diag(g.degrees)
    for mu, x in generalized_laplacian_eigs(g):
        assert np.linalg.norm(L @ x - mu * D @ x) <= 1e-8 * g.n * g.degrees.max()


def test_spectrum_rejects_isolated_nodes():
    with pytest.raises(IsolatedNode):
        spectrum_random_walk(WeightedGraph.from_edges(3, [(0, 1, 1.0)]))


def test_k_validation():
    g = path_graph(4)
    with pytest.raises(InputError):
        spectrum_random_walk(g, k=0)
    with pytest.raises(InputError):
        spectrum_random_walk(g, k=5)
    assert spectrum_random_walk(g, k=2).lambdas.size == 2


def test_top_k_matches_full_head():
    rng = np.random.default_rng(4)
    g = random_connected_graph(rng, n_max=40)
    full = spectrum_random_walk(g)
    head = spectrum_random_walk(g, k=3)
    assert np.array_equal(full.lambdas[:3], head.lambdas)


def test_spectrum_invariants_random_graphs():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = random_connected_graph(rng, n_max=80)
        basis = spectrum_random_walk(g)
        n = g.n
        P = random_walk(g).matrix
        resid = np.linalg.norm(P @ basis.vectors - basis.vectors * basis.lambdas, axis=0)
        assert resid.max() <= 1e-8 * n
        assert abs(basis.lambdas[0] - 1.0) <= 1e-10
        assert np.abs(basis.lambdas).max() <= 1.0 + 1e-10
        norms = np.sum(basis.vectors**2, axis=0)
        assert np.abs(norms - 1.0).max() <= 1e-10
        # D-orthogonality outside degenerate clusters
        G = basis.vectors.T @ (g.degrees[:, None] * basis.vectors)
        np.fill_diagonal(G, 0.0)
        separate = basis.clusters[:, None] != basis.clusters[None, :]
        assert np.abs(G[separate]).max() <= 1e-8 * g.degrees.max()


def test_recomposition_of_symmetric_transform():
    rng = np.random.default_rng(6)
    g = random_connected_graph(rng, n_max=60)
    basis = spectrum_random_walk(g)
    S = normalized_adjacency(g).matrix.toarray()
    Y = np.sqrt(g.degrees)[:, None] * basis.vectors
    Y /= np.linalg.norm(Y, axis=0, keepdims=True)
    S_rec = (Y * basis.lambdas[None, :]) @ Y.T
    assert np.linalg.norm(S_rec - S) <= 1e-8 * np.linalg.norm(S)


def test_determinism_bitwise():
    rng = np.random.default_rng(8)
    g = random_connected_graph(rng, n_max=60)
    a = spectrum_random_walk(g)
    b = spectrum_random_walk(g)
    assert np.array_equal(a.lambdas, b.lambdas)
    assert np.array_equal(a.vectors, b.vectors)


def test_iterative_path_agrees_with_dense():
    rng = np.random.default_rng(9)
    g = random_connected_graph(rng, n_max=120)
    if g.n < 20:  # want a genuinely iterative-size case
        g = random_connected_graph(rng, n_max=120)
    dense = spectrum_random_walk(g, k=5)
    iterative = spectrum_random_walk(g, k=5, dense_limit=10)
    assert np.allclose(dense.lambdas, iterative.lambdas, atol=1e-9)
    for j in range(5):
        a, b = dense.vectors[:, j], iterative.vectors[:, j]
        assert min(np.abs(a - b).max(), np.abs(a + b).max()) <= 1e-7


def test_iterative_path_deterministic():
    rng = np.random.default_rng(10)
    g = random_connected_graph(rng, n_max=100)
    a = spectrum_random_walk(g, k=4, dense_limit=10)
    b = spectrum_random_walk(g, k=4, dense_limit=10)
    assert np.array_equal(a.lambdas, b.lambdas)
    assert np.array_equal(a.vectors, b.vectors)


def test_sign_convention_everywhere():
    rng = np.random.default_rng(13)
    g = random_connected_graph(rng, n_max=50)
    basis = spectrum_random_walk(g)
    for j in range(basis.k):
        v = basis.vectors[:, j]
        assert v[np.argmax(np.abs(v))] > 0


def test_gaps_and_clusters():
    basis = spectrum_random_walk(complete_graph(4))
    assert np.allclose(basis.gaps, [4 / 3, 0.0, 0.0], atol=1e-12)
    assert list(basis.clusters) == [0, 1, 1, 1]
    assert list(basis.degenerate) == [False, True, True, True]


def test_normalized_square_spectrum_examples():
    assert np.allclose(normalized_square_spectrum([1, 1]), [0.5, 0.5], atol=1e-12)
    assert np.allclose(normalized_square_spectrum([2, 0]), [1.0, 0.0], atol=1e-12)
    assert np.allclose(normalized_square_spectrum([3, 4]), [0.36, 0.64], atol=1e-12)
    assert abs(normalized_square_spectrum(np.arange(5)).sum() - 1.0) <= 1e-12


def test_normalized_square_spectrum_errors():
    with pytest.raises(AllZeroSpectrum):
        normalized_square_spectrum([0.0, 0.0])
    with pytest.raises(InputError):
        normalized_square_spectrum([])


# ---------------------------------------------------------------- routes
# A graph of n >= 1000 nodes solved for k <= n/8 takes the LAPACK subset
# route; k = n takes the full route and serves as the reference.

def bead_chain_1000(seed=3):
    bead = TwoModuleBead(100, 100, 0.2, 0.02)
    return generate_bead_chain(TwoLevelSpec((bead,) * 5, PathRandom(0.002), seed=seed))


def two_module_325():
    return generate_two_module(163, 162, 0.2, 0.05, seed=14)


def assert_same_spectrum(head, full):
    k = head.k
    assert np.abs(head.lambdas - full.lambdas[:k]).max() <= 1e-12
    assert np.array_equal(head.clusters, full.clusters[:k])
    assert np.array_equal(head.degenerate, full.degenerate[:k])


def test_subset_route_is_taken_only_for_large_n_small_k(monkeypatch):
    calls = []
    real = sla.eigh

    def spy(*args, **kwargs):
        calls.append(kwargs.get("subset_by_index"))
        return real(*args, **kwargs)

    monkeypatch.setattr(sla, "eigh", spy)
    g = bead_chain_1000()
    spectrum_random_walk(g, k=125)
    assert calls == [[874, 999]]  # k + 1 = 126 columns
    spectrum_random_walk(g, k=126)  # 8k > n: full route
    spectrum_random_walk(path_graph(999), k=3)  # n below the floor
    assert len(calls) == 1


def test_subset_route_matches_full_route_on_bead_chain():
    g = bead_chain_1000()
    full = spectrum_random_walk(g)
    head = spectrum_random_walk(g, k=20)
    assert_same_spectrum(head, full)
    assert not head.degenerate.any()
    for j in range(head.k):
        a, b = head.vectors[:, j], full.vectors[:, j]
        assert min(np.abs(a - b).max(), np.abs(a + b).max()) <= 1e-8
    # the Lanczos route agrees on a graph without repeated eigenvalues
    lanczos = spectrum_random_walk(g, k=20, dense_limit=10)
    assert np.abs(lanczos.lambdas - head.lambdas).max() <= 1e-9
    assert np.array_equal(lanczos.clusters, head.clusters)
    assert np.array_equal(lanczos.degenerate, head.degenerate)


def test_subset_route_keeps_multiplicities_of_tensor_block():
    g = tensor_block(4, two_module_325())
    full = spectrum_random_walk(g)
    head = spectrum_random_walk(g, k=12)
    assert_same_spectrum(head, full)
    assert np.bincount(head.clusters).tolist() == [4, 4, 4]
    G = head.vectors.T @ (g.degrees[:, None] * head.vectors)
    across = head.clusters[:, None] != head.clusters[None, :]
    assert np.abs(G[across]).max() <= 1e-12 * g.degrees.max()


def test_subset_route_deterministic_bitwise():
    g = bead_chain_1000(seed=4)
    a = spectrum_random_walk(g, k=10)
    b = spectrum_random_walk(g, k=10)
    assert np.array_equal(a.lambdas, b.lambdas)
    assert np.array_equal(a.vectors, b.vectors)


@pytest.mark.parametrize("base", [lambda: path_graph(6), two_module_325], ids=["full", "subset"])
def test_degenerate_flag_not_cut_off_at_k(base):
    # ranks 0-3 and 4-7 are 4-fold clusters; k = 5 cuts the second one
    g = tensor_block(4, base())
    basis = spectrum_random_walk(g, k=5)
    assert basis.degenerate.tolist() == [True] * 5
    assert basis.clusters.tolist() == [0, 0, 0, 0, 1]
    assert basis.gaps.shape == (4,)


def test_partial_arpack_convergence_is_a_convergence_failure(monkeypatch):
    def stalled(A, k, **kwargs):
        raise spla.ArpackNoConvergence("stalled", np.array([1.0, 0.9]), np.zeros((A.shape[0], 2)))

    monkeypatch.setattr(spla, "eigsh", stalled)
    with pytest.raises(ConvergenceFailure) as exc:
        spectrum_random_walk(path_graph(30), k=4, dense_limit=10)
    assert exc.value.rank == 2


def test_nan_residual_fails_the_check(monkeypatch):
    def junk(A):
        return np.ones(A.shape[0]), np.full(A.shape, np.nan)

    monkeypatch.setattr(np.linalg, "eigh", junk)
    with pytest.raises(ConvergenceFailure):
        spectrum_random_walk(path_graph(4))


def test_residual_bound_is_a_fixed_backward_error_on_s(monkeypatch):
    # one column off by 1e-6 in S-residual; n * 1e-8 on P would let it pass
    real = np.linalg.eigh

    def off(A):
        evals, Y = real(A)
        evals[-3] += 1e-6
        return evals, Y

    monkeypatch.setattr(np.linalg, "eigh", off)
    with pytest.raises(ConvergenceFailure) as exc:
        spectrum_random_walk(path_graph(200))
    assert exc.value.rank == 2


# ------------------------------------------------------------ ARPACK route
# Below the dense limit, n >= 1000 with 20k <= n takes ARPACK; dense_limit=10
# forces it on any graph whose components exceed 10 nodes.

def bead_chain(beads, seed=5):
    bead = TwoModuleBead(250, 250, 0.2, 0.02)
    return generate_bead_chain(TwoLevelSpec((bead,) * beads, PathRandom(0.002), seed=seed))


@pytest.mark.parametrize(
    "make, k",
    [
        (lambda: path_graph(2000), 6),
        (lambda: tensor_block(4, two_module_325()), 12),
        (lambda: tensor_block(3, generate_grid(20, 20)), 9),
    ],
    ids=["path_2000", "tensor_block_4_two_module", "tensor_block_3_grid"],
)
def test_arpack_route_matches_full_dense_solve(make, k):
    # a uniform start vector misses the antisymmetric eigenvectors of these
    g = make()
    full = spectrum_random_walk(g)
    lanczos = spectrum_random_walk(g, k=k, dense_limit=10)
    assert np.abs(lanczos.lambdas - full.lambdas[:k]).max() <= 1e-9
    assert np.array_equal(lanczos.clusters, full.clusters[:k])
    assert np.array_equal(lanczos.degenerate, full.degenerate[:k])


@pytest.mark.parametrize("beads, k", [(4, 50), (8, 100)])
def test_small_k_dense_range_takes_arpack(monkeypatch, beads, k):
    calls = []
    for mod, name in ((spla, "eigsh"), (sla, "eigh"), (np.linalg, "eigh")):
        real = getattr(mod, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(mod, name, spy)
    g = bead_chain(beads)
    spectrum_random_walk(g, k=k)
    assert calls == ["eigsh"]
    assert g.n == 500 * beads and g.components[0] == 1


def test_arpack_route_on_grid_keeps_multiplicities():
    g = generate_grid(60, 60)
    head = spectrum_random_walk(g, k=100)  # 20k <= n: ARPACK
    full = spectrum_random_walk(g)
    assert np.abs(head.lambdas - full.lambdas[:100]).max() <= 1e-9
    assert np.array_equal(head.clusters, full.clusters[:100])
    assert np.array_equal(head.degenerate, full.degenerate[:100])
    assert np.bincount(head.clusters).max() == 2


def test_many_components_solved_one_at_a_time():
    g = tensor_block(500, path_graph(4))
    t = time.perf_counter()
    basis = spectrum_random_walk(g, k=50)
    assert time.perf_counter() - t < 1.0
    # P of the 4-path has spectrum {1, 1/2, -1/2, -1}; each is 500-fold here
    ref = np.sort(np.linalg.eigvalsh(normalized_adjacency(g).matrix.toarray()))[::-1]
    assert np.abs(basis.lambdas - ref[:50]).max() <= 1e-9
    assert basis.clusters.tolist() == [0] * 50
    assert basis.degenerate.all() and basis.tail_cut
    # ties keep component order: rank j is the stationary vector of copy j
    support = np.abs(basis.vectors) > 0
    assert np.array_equal(support, np.repeat(np.eye(500, 50, dtype=bool), 4, axis=0))


def test_components_merge_with_mixed_routes():
    # a 2,000-node chain (ARPACK) beside a 3-path (full solve)
    chain = bead_chain(4)
    p3 = path_graph(3)
    g = WeightedGraph(
        chain.n + 3,
        np.concatenate([chain.rows, p3.rows + chain.n]),
        np.concatenate([chain.cols, p3.cols + chain.n]),
        np.concatenate([chain.weights, p3.weights]),
    )
    basis = spectrum_random_walk(g, k=50)
    ref = np.sort(np.linalg.eigvalsh(normalized_adjacency(g).matrix.toarray()))[::-1]
    assert np.abs(basis.lambdas - ref[:50]).max() <= 1e-9
    assert basis.clusters[:3].tolist() == [0, 0, 1]  # lambda = 1 twice
    # one stationary vector per component; their order is up to rounding
    on_chain = np.abs(basis.vectors[: chain.n, :2]).max(axis=0) > 0
    on_path = np.abs(basis.vectors[chain.n :, :2]).max(axis=0) > 0
    assert sorted(on_chain.tolist()) == [False, True]
    assert np.array_equal(on_path, ~on_chain)


def test_arpack_route_deterministic_bitwise():
    g = bead_chain(4, seed=6)
    a = spectrum_random_walk(g, k=50)
    b = spectrum_random_walk(g, k=50)
    assert np.array_equal(a.lambdas, b.lambdas)
    assert np.array_equal(a.vectors, b.vectors)
