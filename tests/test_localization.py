import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import eigenloc
from eigenloc import (
    Eigenbasis,
    WeightedGraph,
    csl,
    histogram,
    ipr,
    ipr_curve,
    mass_concentration,
    spectrum_random_walk,
)
from eigenloc.errors import EmptySubset, InputError, NotNormalized

unit_vectors = arrays(
    np.float64,
    st.integers(2, 60),
    elements=st.floats(-1.0, 1.0, allow_nan=False),
).filter(lambda v: np.linalg.norm(v) > 1e-3).map(lambda v: v / np.linalg.norm(v))


def test_ipr_uniform_and_indicator():
    for n in (2, 10, 1000):
        uniform = np.full(n, 1.0 / np.sqrt(n))
        assert abs(ipr(uniform) - 1.0 / n) <= 1e-12
        e1 = np.zeros(n)
        e1[0] = 1.0
        assert abs(ipr(e1) - 1.0) <= 1e-12


def test_ipr_half_split():
    v = np.zeros(8)
    v[:2] = 1.0 / np.sqrt(2.0)
    assert abs(ipr(v) - 0.5) <= 1e-12


def test_ipr_rejects_unnormalized():
    with pytest.raises(NotNormalized):
        ipr(np.ones(4))


@pytest.mark.parametrize("v", [[np.nan, 1.0], [np.nan, np.nan], [np.inf, 0.0]])
def test_ipr_and_csl_reject_nonfinite(v):
    with pytest.raises(NotNormalized):
        ipr(v)
    with pytest.raises(NotNormalized):
        csl(v)


def test_csl_uniform_and_indicator():
    for n in (2, 10, 1000):
        uniform = np.full(n, 1.0 / np.sqrt(n))
        assert np.abs(csl(uniform) - 1.0 / n).max() <= 1e-12
        e1 = np.zeros(n)
        e1[0] = 1.0
        expected = np.zeros(n)
        expected[0] = 1.0
        assert np.abs(csl(e1) - expected).max() <= 1e-12


def test_csl_example():
    v = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    assert np.allclose(csl(v), [0.5, 0.5, 0.0], atol=1e-12)


def test_ipr_curve_identity_basis():
    n = 5
    basis = Eigenbasis(
        lambdas=np.ones(n),
        vectors=np.eye(n),
        gaps=np.zeros(n - 1),
        clusters=np.zeros(n, dtype=int),
    )
    curve = ipr_curve(basis)
    assert curve.dtype == np.float64 and curve.shape == (n,)
    assert np.allclose(curve, 1.0, atol=1e-12)


def test_ipr_curve_single_edge_graph():
    basis = spectrum_random_walk(WeightedGraph.from_edges(2, [(0, 1, 1.0)]))
    assert np.allclose(ipr_curve(basis), [0.5, 0.5], atol=1e-12)


def test_mass_concentration_indicator():
    v = np.zeros(6)
    v[[1, 4]] = 1.0 / np.sqrt(2.0)
    assert mass_concentration(v, [1, 4]) == (1.0, 1.0)


def test_mass_concentration_uniform_half():
    v = np.full(8, 1.0 / np.sqrt(8.0))
    l2, l1 = mass_concentration(v, range(4))
    assert abs(l2 - 0.5) <= 1e-12 and abs(l1 - 0.5) <= 1e-12


def test_mass_concentration_arithmetic():
    l2, l1 = mass_concentration(np.array([0.6, 0.8, 0.0]), [0])
    assert abs(l2 - 0.36) <= 1e-12
    assert abs(l1 - 0.6 / 1.4) <= 1e-12


def test_mass_concentration_errors():
    with pytest.raises(EmptySubset):
        mass_concentration(np.ones(3), [])
    with pytest.raises(InputError):
        mass_concentration(np.ones(3), [3])


@settings(max_examples=60, deadline=None)
@given(unit_vectors, st.randoms(use_true_random=False))
def test_complementary_masses_sum_to_one(v, rnd):
    n = v.size
    cut = rnd.randrange(1, n)
    nodes = list(range(n))
    rnd.shuffle(nodes)
    s, s_comp = nodes[:cut], nodes[cut:]
    l2a, l1a = mass_concentration(v, s)
    l2b, l1b = mass_concentration(v, s_comp)
    assert abs(l2a + l2b - 1.0) <= 1e-12
    assert abs(l1a + l1b - 1.0) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(unit_vectors, st.randoms(use_true_random=False))
def test_permutation_invariance(v, rnd):
    perm = list(range(v.size))
    rnd.shuffle(perm)
    perm = np.array(perm)
    assert abs(ipr(v[perm]) - ipr(v)) <= 1e-12
    assert np.abs(csl(v[perm]) - csl(v)[perm]).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(unit_vectors)
def test_ipr_bounds_and_csl_peak(v):
    score = ipr(v)
    assert 1.0 / v.size - 1e-12 <= score <= 1.0 + 1e-12
    assert abs(csl(v).max() - np.abs(v).max() ** 2) <= 1e-12


def test_ipr_floor_only_for_flat_vectors():
    n = 16
    flat = np.full(n, 1.0 / np.sqrt(n))
    flat[::2] *= -1  # signs must not matter
    assert abs(ipr(flat) - 1.0 / n) <= 1e-12
    tilted = np.ones(n)
    tilted[0] = 2.0
    tilted /= np.linalg.norm(tilted)
    assert ipr(tilted) > 1.0 / n + 1e-4


def test_histogram_basic():
    h = histogram(np.array([0.0, 0.5, 1.0]), nbins=2)
    assert list(h.counts) == [1, 2]
    assert np.allclose(h.bin_edges, [0.0, 0.5, 1.0])


def test_histogram_right_inclusive_last_bin():
    h = histogram(np.array([-1.0, -1.0, 1.0, 1.0]), nbins=2)
    assert list(h.counts) == [2, 2]


def test_histogram_constant_vector():
    for nbins in (1, 3, 50):
        h = histogram(np.full(7, 0.25), nbins=nbins)
        assert h.counts.sum() == 7
        assert np.count_nonzero(h.counts) == 1
        assert h.bin_edges[-1] - h.bin_edges[0] == pytest.approx(1e-12)


def test_histogram_rounding_of_a_constant_fills_one_bin():
    v = np.full(4000, 1 / np.sqrt(4000))
    v[:1500] += 3e-14  # spread 3e-14: rounding, not structure
    h = histogram(v)
    assert h.counts.tolist() == [4000] + [0] * 49
    assert np.array_equal(h.bin_edges, np.linspace(v.min(), v.min() + 1e-12, 51))


def test_histogram_tiny_entries_that_differ_keep_their_bins():
    h = histogram(np.array([0.0, 0.0, 1.5e-13]), nbins=10)
    assert h.counts.tolist() == [2, 1, 0, 0, 0, 0, 0, 0, 0, 0]


# rank 0 of this 4,000-node chain is the stationary vector, whose entries
# differ by rounding that follows the BLAS thread count
STATIONARY_HIST = """
import numpy as np
from eigenloc import generate_bead_chain, histogram, spec_from_json, spectrum_random_walk
bead = {"kind": "two_module", "n1": 250, "n2": 250, "p1": 0.2, "p2": 0.02}
doc = {"beads": [bead] * 8, "interaction": {"kind": "path_random", "p": 0.002}, "seed": 11}
basis = spectrum_random_walk(generate_bead_chain(spec_from_json(doc)), 100)
print(np.count_nonzero(histogram(basis.vectors[:, 0]).counts))
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_stationary_vector_fills_one_bin_at_any_thread_count(threads):
    src = str(Path(eigenloc.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", STATIONARY_HIST], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "1"


def test_histogram_validation():
    with pytest.raises(InputError):
        histogram(np.ones(3), nbins=0)


@settings(max_examples=40, deadline=None)
@given(
    arrays(np.float64, st.integers(1, 80), elements=st.floats(-5, 5, allow_nan=False)),
    st.integers(1, 20),
)
def test_histogram_totals_and_edges(v, nbins):
    h = histogram(v, nbins)
    assert h.counts.sum() == v.size
    assert np.all(np.diff(h.bin_edges) > 0)
    assert len(h.counts) == nbins
    assert len(h.bin_edges) == nbins + 1
