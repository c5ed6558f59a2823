import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import eigenloc
from eigenloc import (
    PathRandom,
    TwoLevelSpec,
    TwoModuleBead,
    WeightedGraph,
    cli,
    eigensolver,
    generalized_laplacian_eigs,
    generate_bead_chain,
    generate_er,
    generate_grid,
    generate_two_module,
    normalized_adjacency,
    normalized_square_spectrum,
    random_walk,
    spectrum_random_walk,
    tensor_block,
    write_graph,
)
from eigenloc.errors import AllZeroSpectrum, ConvergenceFailure, InputError, IsolatedNode
from helpers import (
    complete_graph,
    cycle_product_graph,
    hypercube_graph,
    path_graph,
    random_connected_graph,
    torus_graph,
)

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
        # ||L x - mu D x|| <= d_max ||S y - lambda y||, which the solver bounds
        assert np.linalg.norm(L @ x - mu * D @ x) <= eigensolver.RESIDUAL_TOL * g.degrees.max()


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
# A graph of n >= 1000 nodes solved for n/20 < k <= n/8 takes the LAPACK
# subset route (evr); k = n takes the full route and serves as the reference.

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


@pytest.mark.parametrize(
    "make, k, options, route",
    [
        (bead_chain_1000, 50, {}, "lanczos"),  # 20k <= n
        (bead_chain_1000, 51, {}, "evr"),
        (bead_chain_1000, 125, {}, "evr"),  # 8k <= n
        (bead_chain_1000, 126, {}, "full"),
        (bead_chain_1000, 999, {}, "full"),  # k >= n - 1
        (lambda: path_graph(999), 3, {}, "full"),  # n below the floor
        (lambda: path_graph(40), 4, {"dense_limit": 10}, "lanczos"),  # n > dense_limit
        (lambda: path_graph(40), 39, {"dense_limit": 10}, "full"),  # k >= n - 1
        (lambda: torus_graph(32, 32), 40, {}, "lanczos"),
    ],
)
def test_route_rule_at_its_edges(make, k, options, route):
    g = make()
    basis = spectrum_random_walk(g, k=k, **options)
    assert basis.solves == ((route, g.n, min(k + 1, g.n)),)


def test_subset_route_matches_full_route_on_bead_chain():
    g = bead_chain_1000()
    full = spectrum_random_walk(g)
    head = spectrum_random_walk(g, k=100)
    assert head.solves == (("evr", 1000, 101),)
    assert_same_spectrum(head, full)
    assert not head.degenerate.any()
    for j in range(head.k):
        a, b = head.vectors[:, j], full.vectors[:, j]
        assert min(np.abs(a - b).max(), np.abs(a + b).max()) <= 1e-8
    # the Lanczos route agrees on a graph without repeated eigenvalues
    lanczos = spectrum_random_walk(g, k=100, dense_limit=10)
    assert lanczos.solves == (("lanczos", 1000, 101),)
    assert np.abs(lanczos.lambdas - head.lambdas).max() <= 1e-9
    assert np.array_equal(lanczos.clusters, head.clusters)
    assert np.array_equal(lanczos.degenerate, head.degenerate)


def test_subset_route_keeps_multiplicities_of_tensor_block():
    # two copies of a 1,000-node chain: every eigenvalue is 2-fold
    g = tensor_block(2, bead_chain_1000())
    full = spectrum_random_walk(g)
    head = spectrum_random_walk(g, k=100)
    assert head.solves == (("evr", 1000, 101),) * 2  # one subset solve per component
    assert_same_spectrum(head, full)
    assert np.bincount(head.clusters).tolist() == [2] * 50
    G = head.vectors.T @ (g.degrees[:, None] * head.vectors)
    across = head.clusters[:, None] != head.clusters[None, :]
    assert np.abs(G[across]).max() <= 1e-12 * g.degrees.max()


def test_subset_route_deterministic_bitwise():
    g = bead_chain_1000(seed=4)
    a = spectrum_random_walk(g, k=100)
    b = spectrum_random_walk(g, k=100)
    assert a.solves == b.solves == (("evr", 1000, 101),)
    assert np.array_equal(a.lambdas, b.lambdas)
    assert np.array_equal(a.vectors, b.vectors)


@pytest.mark.parametrize(
    "base, k, solve",
    # 4 copies: ranks 0-3, 4-7, ... are 4-fold clusters, and k cuts the last one
    [(lambda: path_graph(6), 5, ("full", 6, 6)), (bead_chain_1000, 101, ("evr", 1000, 102))],
    ids=["full", "subset"],
)
def test_degenerate_flag_not_cut_off_at_k(base, k, solve):
    g = tensor_block(4, base())
    basis = spectrum_random_walk(g, k=k)
    assert basis.solves == (solve,) * 4
    assert basis.degenerate.tolist() == [True] * k
    assert basis.clusters.tolist() == [j // 4 for j in range(k)]
    assert basis.gaps.shape == (k - 1,)


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


def test_failure_in_second_component_reports_merged_rank(monkeypatch):
    # path 0..5 has lambda = cos(pi j / 5); triangle 6, 7, 8 has 1, -1/2, -1/2.
    # Merged: 1, 1, .809, .309, -.309, then the triangle's first -1/2 at rank 5.
    g = WeightedGraph(9, [0, 1, 2, 3, 4, 6, 6, 7], [1, 2, 3, 4, 5, 7, 8, 8], np.ones(8))
    real = np.linalg.eigh

    def off(A):
        evals, Y = real(A)
        if A.shape[0] == 3:
            evals[0] += 1e-6  # ascending: the lower copy of -1/2
        return evals, Y

    monkeypatch.setattr(np.linalg, "eigh", off)
    with pytest.raises(ConvergenceFailure) as exc:
        spectrum_random_walk(g)
    assert exc.value.rank == 5
    assert exc.value.residual == pytest.approx(1e-6, rel=1e-3)


# ----------------------------------------------------------- Lanczos route
# Below the dense limit, n >= 1000 with 20k <= n takes Lanczos; dense_limit=10
# forces it on any graph whose components exceed 10 nodes.

def bead_chain(beads, seed=5):
    bead = TwoModuleBead(250, 250, 0.2, 0.02)
    return generate_bead_chain(TwoLevelSpec((bead,) * beads, PathRandom(0.002), seed=seed))


@pytest.mark.parametrize(
    "make, k, copies",
    [
        (lambda: path_graph(2000), 6, 1),
        (lambda: tensor_block(4, two_module_325()), 12, 4),
        (lambda: tensor_block(3, generate_grid(20, 20)), 9, 3),
    ],
    ids=["path_2000", "tensor_block_4_two_module", "tensor_block_3_grid"],
)
def test_lanczos_route_matches_full_dense_solve(make, k, copies):
    # a uniform start vector misses the antisymmetric eigenvectors of these
    g = make()
    full = spectrum_random_walk(g)
    lanczos = spectrum_random_walk(g, k=k, dense_limit=10)
    assert lanczos.solves == (("lanczos", g.n // copies, k + 1),) * copies
    assert np.abs(lanczos.lambdas - full.lambdas[:k]).max() <= 1e-9
    assert np.array_equal(lanczos.clusters, full.clusters[:k])
    assert np.array_equal(lanczos.degenerate, full.degenerate[:k])


@pytest.mark.parametrize(
    "make, k",
    [
        (lambda: bead_chain(2), 30),
        (lambda: generate_grid(30, 40), 40),
        (lambda: torus_graph(20, 30), 20),
        (lambda: path_graph(500), 20),
        (lambda: hypercube_graph(10), 10),  # 1 and all ten copies of 4/5
        # a random spectrum, 2-fold degenerate: a missing or a ghost copy moves every later rank
        (lambda: cycle_product_graph(generate_er(200, 0.05, 0), 10), 60),
    ],
    ids=["bead_chain", "grid_30x40", "torus_20x30", "path_500", "hypercube_10", "er_200_x_c10"],
)
def test_lanczos_route_matches_dense_eigvalsh(make, k):
    g = make()
    ref = np.linalg.eigvalsh(normalized_adjacency(g).matrix.toarray())[::-1]
    basis = spectrum_random_walk(g, k=k, dense_limit=10)
    assert basis.solves == (("lanczos", g.n, k + 1),)
    assert np.abs(basis.lambdas - ref[:k]).max() <= 1e-12
    # D-orthogonal: the returned columns are D^-1/2 times orthonormal ones
    G = basis.vectors.T @ (g.degrees[:, None] * basis.vectors)
    G /= np.sqrt(np.outer(np.diag(G), np.diag(G)))
    assert np.abs(G - np.eye(k)).max() <= 1e-10


def test_lanczos_route_finds_every_copy_on_hypercube_12():
    # S of Q12 has eigenvalue 1 - i/6 with multiplicity C(12, i): 13 distinct
    # values, so the Krylov space breaks down again and again, and a basis
    # kept by single Gram-Schmidt passes loses its orthogonality here
    basis = spectrum_random_walk(hypercube_graph(12), k=100)
    assert basis.solves == (("lanczos", 4096, 101),)
    ref = np.repeat(1 - np.arange(13) / 6, [math.comb(12, i) for i in range(13)])
    assert np.abs(basis.lambdas - ref[:100]).max() <= 1e-12


def test_clustered_top_spectrum_converges_quickly(monkeypatch):
    # a path's top eigenvalues crowd toward 1; ARPACK's 20-vector basis
    # took 2.9 s here, a 60-vector floor converges in a fraction of that.
    # Counting matvecs rather than seconds keeps the bound free of load.
    g = path_graph(2000)
    ref = np.linalg.eigvalsh(normalized_adjacency(g).matrix.toarray())[::-1]
    matvecs = []
    real = eigensolver._CSROperator.__matmul__

    def spy(self, x):
        if x.ndim == 1:
            matvecs.append(1)
        return real(self, x)

    monkeypatch.setattr(eigensolver._CSROperator, "__matmul__", spy)
    basis = spectrum_random_walk(g, k=6, dense_limit=10)
    assert basis.solves == (("lanczos", 2000, 7),)
    assert np.abs(basis.lambdas - ref[:6]).max() <= 1e-12
    assert len(matvecs) <= 5000, f"path(2000), k=6 took {len(matvecs)} matvecs"  # 4,704


def test_lanczos_route_runs_under_a_profile_hook():
    # a profiler's or debugger's hook holds a reference to the solver's
    # frame; the in-place cut of the basis must not refuse because of it
    g = bead_chain_1000()
    plain = spectrum_random_walk(g, k=20, dense_limit=10)
    assert plain.solves == (("lanczos", 1000, 21),)
    previous = sys.getprofile()
    sys.setprofile(lambda *a: None)
    try:
        hooked = spectrum_random_walk(g, k=20, dense_limit=10)
    finally:
        sys.setprofile(previous)
    assert hooked.lambdas.tobytes() == plain.lambdas.tobytes()
    assert hooked.vectors.tobytes() == plain.vectors.tobytes()


@pytest.mark.parametrize("beads, k", [(4, 50), (8, 100)])
def test_small_k_dense_range_takes_lanczos(monkeypatch, beads, k):
    # Lanczos runs once and diagonalizes only its small projected matrices
    sizes = []
    real = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda T: sizes.append(T.shape[0]) or real(T))
    basis = spectrum_random_walk(bead_chain(beads), k=k)
    assert basis.solves == (("lanczos", 500 * beads, k + 1),)
    assert max(sizes) <= 2 * k + 3


def blas_thread_count():
    pair = eigensolver._openblas_threads()
    if pair is None:
        pytest.skip("numpy's BLAS has no thread-count setter here")
    return pair[0]


def test_lanczos_route_same_bytes_at_one_and_two_blas_threads():
    # the solve runs on one BLAS thread whatever the caller's count; at one
    # thread all along, full reorthogonalization lost copies here (off by 1.6e-2)
    blas_thread_count()
    g = torus_graph(45, 45)
    ref = np.linalg.eigvalsh(normalized_adjacency(g).matrix.toarray())[::-1]
    bases = []
    for threads in (1, 2):
        with eigensolver._blas_threads(threads):
            bases.append(spectrum_random_walk(g, k=100))
    for basis in bases:
        assert basis.solves == (("lanczos", 2025, 101),)
        assert np.abs(basis.lambdas - ref[:100]).max() <= 1e-9
    assert bases[0].lambdas.tobytes() == bases[1].lambdas.tobytes()
    assert bases[0].vectors.tobytes() == bases[1].vectors.tobytes()


def test_only_the_lanczos_route_caps_blas_threads(monkeypatch):
    get = blas_thread_count()
    import scipy.linalg

    seen = []

    def spy(real):
        return lambda *args, **kwargs: seen.append(get()) or real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy(np.linalg.eigh))  # Lanczos's T; the full route
    monkeypatch.setattr(scipy.linalg, "eigh", spy(scipy.linalg.eigh))  # evr
    with eigensolver._blas_threads(2):
        caller = get()
        assert caller == 2
        for k, route in [(20, "lanczos"), (100, "evr"), (999, "full")]:
            seen.clear()
            basis = spectrum_random_walk(bead_chain_1000(), k=k)
            assert basis.solves[0][0] == route
            assert set(seen) == {1 if route == "lanczos" else caller}
            assert get() == caller
        monkeypatch.setattr(eigensolver, "MAX_RESTARTS", 1)
        with pytest.raises(ConvergenceFailure):
            spectrum_random_walk(bead_chain(4), k=50)
        assert get() == caller


def test_lanczos_restart_cap_is_a_convergence_failure(monkeypatch):
    # one restart leaves the top few pairs converged and the rest not; the
    # failure names the first rank not converged
    monkeypatch.setattr(eigensolver, "MAX_RESTARTS", 1)
    with pytest.raises(ConvergenceFailure) as exc:
        spectrum_random_walk(bead_chain(4), k=50)
    assert 0 < exc.value.rank < 50


def test_lanczos_ghost_copy_is_a_convergence_failure(monkeypatch):
    # a Ritz vector returned twice passes every residual check; only the
    # orthonormality check on the returned basis can refuse it
    real = np.linalg.eigh

    def ghost(T):
        theta, Q = real(T)
        theta[-2], Q[:, -2] = theta[-1], Q[:, -1]
        return theta, Q

    monkeypatch.setattr(np.linalg, "eigh", ghost)
    with pytest.raises(ConvergenceFailure) as exc:
        spectrum_random_walk(path_graph(40), k=4, dense_limit=10)  # 40 <= 60: one basis fill
    assert exc.value.rank == 0


@pytest.mark.parametrize("kind", ["residual", "orthogonality", "restarts"])
def test_convergence_failure_names_the_check_that_failed(tmp_path, monkeypatch, capsys, kind):
    if kind == "residual":  # the full route, rank 2's eigenvalue off by 1e-6
        g, k = path_graph(200), 100
        real = np.linalg.eigh

        def off(A):
            evals, Y = real(A)
            evals[-3] += 1e-6
            return evals, Y

        monkeypatch.setattr(np.linalg, "eigh", off)
    else:  # the Lanczos route
        g, k = bead_chain(4), 50
        setting = {"orthogonality": ("ORTH_TOL", 0.0), "restarts": ("MAX_RESTARTS", 3)}[kind]
        monkeypatch.setattr(eigensolver, *setting)
    with pytest.raises(ConvergenceFailure) as exc:
        spectrum_random_walk(g, k=k)
    assert exc.value.kind == kind
    assert (exc.value.rank == 2) if kind == "residual" else (0 <= exc.value.rank < k)
    message = f"eigenpair {exc.value.rank} failed the {kind} check"
    assert str(exc.value).startswith(message)
    write_graph(g, tmp_path / "g.mtx")
    assert cli.main(["ipr", str(tmp_path / "g.mtx"), "--k", str(k)]) == 3
    assert f"numerical failure: {message}" in capsys.readouterr().err


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the Lanczos route loses copies of "
                   "repeated eigenvalues below the dense limit")
def test_default_settings_match_dense_eigvalsh_on_torus_32x32():
    # the route is pinned by test_route_rule_at_its_edges; this is the result
    g = torus_graph(32, 32)
    ref = np.linalg.eigvalsh(normalized_adjacency(g).matrix.toarray())[::-1]
    basis = spectrum_random_walk(g, k=40)
    assert np.abs(basis.lambdas - ref[:40]).max() <= 1e-9


def test_lanczos_route_on_grid_keeps_multiplicities():
    g = generate_grid(60, 60)
    head = spectrum_random_walk(g, k=100)  # 20k <= n: Lanczos
    assert head.solves == (("lanczos", 3600, 101),)
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
    assert basis.solves == (("full", 4, 4),) * 500
    # P of the 4-path has spectrum {1, 1/2, -1/2, -1}; each is 500-fold here
    ref = np.sort(np.linalg.eigvalsh(normalized_adjacency(g).matrix.toarray()))[::-1]
    assert np.abs(basis.lambdas - ref[:50]).max() <= 1e-9
    assert basis.clusters.tolist() == [0] * 50
    assert basis.degenerate.all() and basis.tail_cut
    # ties keep component order: rank j is the stationary vector of copy j
    support = np.abs(basis.vectors) > 0
    assert np.array_equal(support, np.repeat(np.eye(500, 50, dtype=bool), 4, axis=0))


def test_components_merge_with_mixed_routes():
    # a 2,000-node chain (Lanczos) beside a 3-path (full solve)
    chain = bead_chain(4)
    p3 = path_graph(3)
    g = WeightedGraph(
        chain.n + 3,
        np.concatenate([chain.rows, p3.rows + chain.n]),
        np.concatenate([chain.cols, p3.cols + chain.n]),
        np.concatenate([chain.weights, p3.weights]),
    )
    basis = spectrum_random_walk(g, k=50)
    assert basis.solves == (("lanczos", 2000, 51), ("full", 3, 3))
    ref = np.sort(np.linalg.eigvalsh(normalized_adjacency(g).matrix.toarray()))[::-1]
    assert np.abs(basis.lambdas - ref[:50]).max() <= 1e-9
    assert basis.clusters[:3].tolist() == [0, 0, 1]  # lambda = 1 twice
    # one stationary vector per component; their order is up to rounding
    on_chain = np.abs(basis.vectors[: chain.n, :2]).max(axis=0) > 0
    on_path = np.abs(basis.vectors[chain.n :, :2]).max(axis=0) > 0
    assert sorted(on_chain.tolist()) == [False, True]
    assert np.array_equal(on_path, ~on_chain)


def test_lanczos_route_deterministic_bitwise():
    g = bead_chain(4, seed=6)
    a = spectrum_random_walk(g, k=50)
    b = spectrum_random_walk(g, k=50)
    assert a.solves == b.solves == (("lanczos", 2000, 51),)
    assert np.array_equal(a.lambdas, b.lambdas)
    assert np.array_equal(a.vectors, b.vectors)


# three Lanczos solves of one chain, each after a pad that moves every later
# allocation; prints a digest of each result
SHIFTED_SOLVES = """
import hashlib
import numpy as np
from eigenloc import generate_bead_chain, spec_from_json, spectrum_random_walk
bead = {"kind": "two_module", "n1": 250, "n2": 250, "p1": 0.2, "p2": 0.02}
doc = {"beads": [bead] * 4, "interaction": {"kind": "path_random", "p": 0.002}, "seed": 6}
g = generate_bead_chain(spec_from_json(doc))
pads = []
for r in range(3):
    pads.append(np.ones(r * 77777))
    basis = spectrum_random_walk(g, 50)
    print(hashlib.sha256(basis.lambdas.tobytes() + basis.vectors.tobytes()).hexdigest())
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_lanczos_route_bytes_do_not_follow_allocations(threads):
    src = str(Path(eigenloc.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", SHIFTED_SOLVES], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    digests = proc.stdout.split()
    assert len(digests) == 3 and len(set(digests)) == 1, digests


@pytest.mark.parametrize("k", [20, 100])
def test_lanczos_route_memory_budget(k):
    # Past the n x (p+1) Lanczos basis and one n x m block, the solve may
    # hold one CSR of S (2E values, 2E int32 indices: 24 B per edge) and
    # little else per edge: no relabeled edge copies, no COO, no per-edge S
    # values while Lanczos runs, no 2E-long index arrays for the degrees, no
    # n x m residual block or merge copy beside the basis.
    g = generate_bead_chain(
        TwoLevelSpec((TwoModuleBead(150, 150, 0.2, 0.02),) * 10, PathRandom(0.01), seed=3)
    )
    assert g.n == 3000 and g.components[0] == 1
    spectrum_random_walk(path_graph(30), 2, dense_limit=10)  # imports and first-call state
    m = k + 1
    p = max(2 * m + 1, 60)  # _lanczos's basis size
    tracemalloc.start()
    try:
        basis = spectrum_random_walk(g, k, dense_limit=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert basis.solves == (("lanczos", g.n, m),)
    budget = 8 * g.n * (p + 1 + m) + 36 * g.edge_count
    assert peak <= budget, f"peak {peak} B, budget {budget} B (E = {g.edge_count})"


def test_post_solve_memory_budget(monkeypatch):
    # rescaling, normalizing and sign-fixing the solved vectors goes a column
    # at a time: no n x m temporary (2.4 MB here) beside the vectors
    g = generate_bead_chain(
        TwoLevelSpec((TwoModuleBead(150, 150, 0.2, 0.02),) * 10, PathRandom(0.01), seed=3)
    )
    assert g.n == 3000
    solved = eigensolver._solve_components(g, 101, eigensolver.DENSE_LIMIT)
    ref = spectrum_random_walk(g, 100)
    monkeypatch.setattr(eigensolver, "_solve_components", lambda *args: solved)
    tracemalloc.start()
    try:
        basis = spectrum_random_walk(g, 100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert basis.vectors.tobytes() == ref.vectors.tobytes()
    assert peak <= 64 * g.n, f"peak {peak} B, budget {64 * g.n} B"


def test_sign_flip_leaves_no_negative_zero():
    # an exact zero stays +0.0 when its vector is flipped, so a report never
    # prints "-0" for a node off the vector's component
    x = np.array([0.0, -2.0, 1.0, 0.0])
    eigensolver._sign_normalize(x)
    assert x.tolist() == [0.0, 2.0, -1.0, 0.0] and not np.signbit(x[[0, 3]]).any()
    g = generate_bead_chain(TwoLevelSpec((TwoModuleBead(20, 20, 0.5, 0.1),) * 3, PathRandom(0.0), seed=5))
    basis = spectrum_random_walk(g, 12)
    V = basis.vectors
    assert (V == 0.0).any()
    assert not np.signbit(V[V == 0.0]).any()
