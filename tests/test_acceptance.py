"""Shipping gate: one test per release criterion.

Under pytest -v each test prints a single pass/fail line for its criterion.
Every test asserts both the stated tolerance and its runtime budget.
"""
import time
from contextlib import contextmanager
from functools import lru_cache

import numpy as np
import pytest

from eigenloc import (
    ERBead,
    GlobalRandom,
    Partition,
    PathRandom,
    TwoLevelSpec,
    TwoModuleBead,
    analyze,
    csl,
    detect_transition,
    emit_report,
    generate_bead_chain,
    generate_er,
    generate_grid,
    group_mass_table,
    ipr,
    ipr_curve,
    matched_er_density,
    parse_graph,
    partition_agreement,
    restrict_and_compare,
    sign_cut,
    spectrum_random_walk,
    sweep_cut,
    tensor_block,
    write_graph,
    write_labels,
)
from helpers import random_connected_graph, two_triangles_bridge


@contextmanager
def budget(seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"runtime {elapsed:.1f}s exceeds {seconds}s budget"


CHAIN_BEADS = tuple(TwoModuleBead(50, 50, 0.8, 0.2) for _ in range(5))


@lru_cache(maxsize=None)
def chain_case(seed, coupling):
    inter = PathRandom(0.05) if coupling == "path" else GlobalRandom(0.02)
    g = generate_bead_chain(TwoLevelSpec(CHAIN_BEADS, inter, seed=seed))
    return g, spectrum_random_walk(g, k=20)


def top_bead_by_rank(g, basis):
    """rank -> (bead label with most L2 mass, that mass)."""
    best = {}
    for rank, group, l2, _ in group_mass_table(basis, g.labels):
        if rank not in best or l2 > best[rank][1]:
            best[rank] = (group, l2)
    return best


def localized_midrank(g, basis, threshold=0.8):
    best = top_bead_by_rank(g, basis)
    for rank in (5, 6):
        bead, l2 = best[rank]
        if l2 >= threshold:
            return rank, bead
    return None


def test_c01_ipr_csl_limiting_cases_exact():
    with budget(1.0):
        for n in (2, 10, 1000):
            uniform = np.full(n, 1 / np.sqrt(n))
            assert abs(ipr(uniform) - 1 / n) <= 1e-12
            assert np.abs(csl(uniform) - 1 / n).max() <= 1e-12
            delta = np.zeros(n)
            delta[0] = 1.0
            assert abs(ipr(delta) - 1.0) <= 1e-12
            e1 = np.zeros(n)
            e1[0] = 1.0
            assert np.abs(csl(delta) - e1).max() <= 1e-12


def test_c02_eigensolver_invariants_100_random_graphs():
    with budget(60.0):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            g = random_connected_graph(rng, n_max=200)
            basis = spectrum_random_walk(g)
            n = g.n
            P = g.adjacency.toarray() / g.degrees[:, None]
            resid = P @ basis.vectors - basis.vectors * basis.lambdas
            assert np.linalg.norm(resid, axis=0).max() <= 1e-8 * n
            assert abs(basis.lambdas[0] - 1.0) <= 1e-10
            gram = basis.vectors.T @ (g.degrees[:, None] * basis.vectors)
            np.fill_diagonal(gram, 0.0)
            cross = basis.clusters[:, None] != basis.clusters[None, :]
            assert np.abs(gram[cross]).max() <= 1e-8 * g.degrees.max()


def test_c03_tensor_block_spectrum_kfold_repetition():
    with budget(60.0):
        rng = np.random.default_rng(3)
        for _ in range(20):
            w = random_connected_graph(rng, n_max=50)
            lam_w = np.sort(spectrum_random_walk(w).lambdas)
            for k in (2, 3, 5):
                lam = np.sort(spectrum_random_walk(tensor_block(k, w)).lambdas)
                assert np.abs(lam - np.repeat(lam_w, k)).max() <= 1e-8


def test_c04_flat_ipr_baselines_grid_and_random():
    with budget(300.0):

        def is_flat(g):
            vals = ipr_curve(spectrum_random_walk(g))
            return (
                vals.max() <= 10 * np.median(vals)
                and detect_transition(vals).rank is None
            )

        assert is_flat(generate_grid(20, 30))
        hits = sum(is_flat(generate_er(1000, 0.03, seed=s)) for s in range(10))
        assert hits >= 8


def test_c05_chain_localization_signatures():
    with budget(300.0):
        low_vs_mid = bead_mass = planted_split = fires_at_5 = 0
        for seed in range(10):
            g, basis = chain_case(seed, "path")
            vals = ipr_curve(basis)
            if vals[1:5].mean() < vals[5:10].mean():
                low_vs_mid += 1
            found = localized_midrank(g, basis)
            if found is not None:
                bead_mass += 1
                rank, bead = found
                nodes = [v for v in range(g.n) if g.labels[v] == bead]
                restriction = basis.vectors[nodes, rank]
                planted = Partition(np.array([g.sublabels[v] == 1 for v in nodes]))
                if partition_agreement(sign_cut(restriction), planted) >= 0.95:
                    planted_split += 1
            if detect_transition(vals).rank == 5:
                fires_at_5 += 1
        assert low_vs_mid >= 8
        assert bead_mass >= 8
        assert planted_split >= 8
        assert fires_at_5 >= 8


def test_c06_global_coupling_lowers_midrank_ipr():
    with budget(300.0):
        wins = 0
        for seed in range(10):
            _, path_basis = chain_case(seed, "path")
            _, glob_basis = chain_case(seed, "global")
            path_max = max(ipr(path_basis.vectors[:, r]) for r in range(5, 10))
            glob_max = max(ipr(glob_basis.vectors[:, r]) for r in range(5, 10))
            if glob_max < path_max:
                wins += 1
        assert wins >= 7


def test_c07_first_localized_eigenvector_on_structured_bead():
    with budget(300.0):
        p_match = matched_er_density(50, 50, 0.8, 0.2)
        kinds = ("er", "er", "two", "er", "two")
        beads = tuple(
            ERBead(100, p_match) if kind == "er" else TwoModuleBead(50, 50, 0.8, 0.2)
            for kind in kinds
        )
        structured = {i for i, kind in enumerate(kinds) if kind == "two"}
        hits = 0
        for seed in range(10):
            g = generate_bead_chain(TwoLevelSpec(beads, PathRandom(0.05), seed=seed))
            basis = spectrum_random_walk(g, k=20)
            best = top_bead_by_rank(g, basis)
            first = next(
                (best[r][0] for r in range(1, basis.k) if best[r][1] >= 0.6), None
            )
            if first in structured:
                hits += 1
        assert hits >= 7


def test_c08_restriction_distance_and_partition_match():
    with budget(300.0):
        hits = 0
        for seed in range(10):
            g, basis = chain_case(seed, "path")
            found = localized_midrank(g, basis)
            if found is None:
                continue
            rank, bead = found
            nodes = [v for v in range(g.n) if g.labels[v] == bead]
            dist, v_r, v_local = restrict_and_compare(basis.vectors[:, rank], nodes, g)
            sub = g.subgraph(nodes)
            same = (
                partition_agreement(sweep_cut(v_r, sub), sweep_cut(v_local, sub)) == 1.0
            )
            if dist <= 0.1 and same:
                hits += 1
        assert hits >= 8


def test_c09_sweep_cut_exhaustive_oracle():
    with budget(30.0):
        g = two_triangles_bridge()
        part = sweep_cut(spectrum_random_walk(g).vectors[:, 1], g)
        assert part.conductance == 1 / 7

        def exhaustive(v, h):
            order = np.lexsort((np.arange(h.n), -v))
            A = h.adjacency.toarray()
            total = h.degrees.sum()
            best = None
            for size in range(1, h.n):
                side = np.zeros(h.n, dtype=bool)
                side[order[:size]] = True
                cut = A[np.ix_(side, ~side)].sum()
                vol = h.degrees[side].sum()
                phi = cut / min(vol, total - vol)
                if best is None or phi < best:
                    best = phi
            return best

        rng = np.random.default_rng(9)
        for _ in range(50):
            h = random_connected_graph(rng, n_max=8, weighted=False)
            v = spectrum_random_walk(h).vectors[:, min(1, h.n - 1)]
            assert sweep_cut(v, h).conductance == exhaustive(v, h)


def test_c10_round_trip_and_byte_identical_reports(tmp_path):
    with budget(60.0):
        spec = TwoLevelSpec(
            (TwoModuleBead(20, 20, 0.8, 0.2), ERBead(30, 0.3)),
            PathRandom(0.1),
            seed=6,
        )
        g = generate_bead_chain(spec)
        gp = tmp_path / "chain.mtx"
        lp = tmp_path / "chain.labels.csv"
        write_graph(g, gp)
        write_labels(g, lp)
        back = parse_graph(gp, lp)
        assert np.array_equal(back.rows, g.rows) and np.array_equal(back.cols, g.cols)
        assert np.array_equal(back.weights, g.weights)
        assert np.array_equal(back.labels, g.labels)

        dirs = (tmp_path / "first", tmp_path / "second")
        for d in dirs:
            emit_report(analyze(back, k=12, sweep_ranks=(1,)), d)
        names = sorted(p.name for p in dirs[0].iterdir())
        assert names == sorted(p.name for p in dirs[1].iterdir())
        for name in names:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
