import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from eigenloc import (
    Partition,
    PathRandom,
    TwoLevelSpec,
    TwoModuleBead,
    detect_transition,
    generate_bead_chain,
    ipr_curve,
    partition_agreement,
    restrict_and_compare,
    sign_cut,
    spectrum_random_walk,
    sweep_cut,
)
from eigenloc.errors import (
    CurveTooShort,
    DisconnectedGraph,
    DisconnectedSubgraph,
    InputError,
    SizeMismatch,
    SubsetTooSmall,
)
from helpers import (
    complete_graph,
    graph_from_dense,
    path_graph,
    random_connected_graph,
    ref_sweep_cut,
    two_triangles_bridge,
)


def exhaustive_best_prefix(v, g):
    """Check every prefix of the sorted order from scratch."""
    order = np.lexsort((np.arange(g.n), -np.asarray(v, dtype=float)))
    A = g.adjacency.toarray()
    total = g.degrees.sum()
    best = None
    for size in range(1, g.n):
        side = np.zeros(g.n, dtype=bool)
        side[order[:size]] = True
        cut = A[np.ix_(side, ~side)].sum()
        vol = g.degrees[side].sum()
        phi = cut / min(vol, total - vol)
        if best is None or phi < best[0]:
            best = (phi, side)
    return best


def test_two_triangles_bridge_conductance():
    g = two_triangles_bridge()
    basis = spectrum_random_walk(g)
    part = sweep_cut(basis.vectors[:, 1], g)
    assert part.conductance == 1 / 7
    assert {frozenset(np.flatnonzero(part.side)), frozenset(np.flatnonzero(~part.side))} == {
        frozenset({0, 1, 2}),
        frozenset({3, 4, 5}),
    }


def test_sweep_matches_exhaustive_enumeration():
    rng = np.random.default_rng(7)
    for _ in range(30):
        g = random_connected_graph(rng, n_max=12, weighted=False)
        if g.n < 2:
            continue
        v = rng.normal(size=g.n)
        part = sweep_cut(v, g)
        phi, _ = exhaustive_best_prefix(v, g)
        assert part.conductance == phi


def test_sweep_matches_node_by_node_reference():
    rng = np.random.default_rng(12)
    for _ in range(40):
        # unit weights sum exactly, so the prefix sums reproduce the loop bitwise
        g = random_connected_graph(rng, n_max=60, weighted=False)
        v = rng.normal(size=g.n)
        side, phi = ref_sweep_cut(v, g)
        part = sweep_cut(v, g)
        assert np.array_equal(part.side, side)
        assert part.conductance == phi
        # weighted sums are added in another order: phi agrees to rounding
        g = random_connected_graph(rng, n_max=60, weighted=True)
        v = rng.normal(size=g.n)
        side, phi = ref_sweep_cut(v, g)
        assert sweep_cut(v, g).conductance == pytest.approx(phi, rel=1e-12, abs=0)
    chain = generate_bead_chain(
        TwoLevelSpec((TwoModuleBead(100, 100, 0.2, 0.02),) * 5, PathRandom(0.002), seed=9)
    )
    basis = spectrum_random_walk(chain, k=4)
    for rank in range(1, 4):
        side, phi = ref_sweep_cut(basis.vectors[:, rank], chain)
        part = sweep_cut(basis.vectors[:, rank], chain)
        assert np.array_equal(part.side, side)
        assert part.conductance == phi


def test_sweep_single_edge():
    g = path_graph(2)
    part = sweep_cut(np.array([1.0, -1.0]), g)
    assert part.conductance == 1.0
    assert part.side.sum() == 1


def test_sweep_constant_vector_uses_index_order():
    g = path_graph(5)
    v = np.ones(5)
    part = sweep_cut(v, g)
    phi, side = exhaustive_best_prefix(v, g)
    assert part.conductance == phi
    assert np.array_equal(part.side, side)


def test_sweep_prefers_smaller_tie_prefix():
    # on a 4-path both {0,1} and prefix {0} hit phi at different sizes;
    # equal-phi ties must keep the earliest (smallest) prefix
    g = path_graph(4)
    v = np.array([4.0, 3.0, 2.0, 1.0])
    part = sweep_cut(v, g)
    phi, _ = exhaustive_best_prefix(v, g)
    assert part.conductance == phi
    sizes = []
    for size in range(1, 4):
        side = np.zeros(4, dtype=bool)
        side[:size] = True
        cut = sum(g.weights[side[g.rows] != side[g.cols]].tolist())
        vol = g.degrees[side].sum()
        p = cut / min(vol, g.degrees.sum() - vol)
        if p == phi:
            sizes.append(size)
    assert part.side.sum() == min(sizes)


def test_sweep_rejects_disconnected():
    A = np.zeros((4, 4))
    A[0, 1] = A[1, 0] = 1
    A[2, 3] = A[3, 2] = 1
    g = graph_from_dense(A)
    with pytest.raises(DisconnectedGraph):
        sweep_cut(np.arange(4.0), g)


def test_sweep_size_mismatch():
    with pytest.raises(SizeMismatch):
        sweep_cut(np.ones(3), path_graph(4))


def test_sweep_needs_two_nodes():
    with pytest.raises(InputError, match="sweep cut needs at least 2 nodes"):
        sweep_cut(np.ones(1), path_graph(1))


@pytest.mark.parametrize("v", [[3.0, -0.0, 0.0, 3.0, np.nan, -1.0, np.nan, 0.0], [1.0] * 6, [-np.inf, 2.0, np.inf]])
def test_sweep_order_breaks_ties_by_index(v):
    # equal entries (0.0 and -0.0 included) keep index order and NaNs come
    # last, as in the reference's lexsort
    rng = np.random.default_rng(3)
    A = np.triu(rng.random((len(v), len(v))), 1)
    g = graph_from_dense(A + A.T)
    side, _ = ref_sweep_cut(v, g)
    assert np.array_equal(sweep_cut(v, g).side, side)


def test_sign_cut_examples():
    part = sign_cut(np.array([1.0, -1.0]))
    assert part.conductance is None
    assert set(np.flatnonzero(part.side)) == {0}
    trivial = sign_cut(np.array([0.2, 0.3, 0.1]))
    assert trivial.is_trivial
    zero_on_boundary = sign_cut(np.array([0.3, -0.2, 0.0]))
    assert set(np.flatnonzero(zero_on_boundary.side)) == {0, 2}


def test_partition_agreement_examples():
    a = Partition(np.array([True, True, False, False]))
    assert partition_agreement(a, a) == 1.0
    comp = Partition(~a.side)
    assert partition_agreement(a, comp) == 1.0
    b = Partition(np.array([True, False, False, False]))
    assert partition_agreement(a, b) == 0.75
    with pytest.raises(SizeMismatch):
        partition_agreement(a, Partition(np.array([True, False])))


def test_restriction_of_global_eigenvector_to_whole_graph():
    g = two_triangles_bridge()
    basis = spectrum_random_walk(g)
    dist, v_r, v_local = restrict_and_compare(basis.vectors[:, 1], list(range(6)), g)
    assert dist <= 1e-8
    assert abs(np.linalg.norm(v_r) - 1) <= 1e-12
    assert abs(np.linalg.norm(v_local) - 1) <= 1e-12


def test_restriction_exact_on_embedded_component_eigenvector():
    # two cliques of different sizes, no bridge inside the subset's component:
    # an eigenvector of the induced subgraph, padded with zeros, is an exact
    # eigenvector of the full disconnected-component structure
    k5 = complete_graph(5)
    A = np.zeros((12, 12))
    A[:5, :5] = k5.adjacency.toarray()
    A[5:, 5:] = complete_graph(7).adjacency.toarray()
    A[4, 5] = A[5, 4] = 1e-9  # faint bridge keeps full graph connected
    g = graph_from_dense(A)
    local = spectrum_random_walk(g.subgraph(list(range(5))), k=2).vectors[:, 1]
    v_full = np.zeros(12)
    v_full[:5] = local
    dist, _, _ = restrict_and_compare(v_full, list(range(5)), g)
    assert dist <= 1e-6


def test_restriction_errors():
    g = two_triangles_bridge()
    v = spectrum_random_walk(g).vectors[:, 1]
    with pytest.raises(SubsetTooSmall):
        restrict_and_compare(v, [0], g)
    with pytest.raises(DisconnectedSubgraph):
        restrict_and_compare(v, [0, 5], g)
    with pytest.raises(SizeMismatch, match="vector length 5 != node count 6"):
        restrict_and_compare(v[:5], [0, 1, 2], g)
    vanishing = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    with pytest.raises(InputError, match="vector vanishes on the subset"):
        restrict_and_compare(vanishing, [0, 1, 2], g)


def fake_curve(values):
    return np.array(values, dtype=np.float64)


def test_detect_transition_flat_curve_silent():
    curve = fake_curve([1 / 500] * 60)
    report = detect_transition(curve)
    assert report.rank is None
    assert report.baseline is None
    assert report.factor is None


def test_detect_transition_step():
    values = [1 / 500] * 41 + [0.5] * 10
    report = detect_transition(fake_curve(values))
    assert report.rank == 41
    assert report.baseline == pytest.approx(1 / 500)
    assert report.factor == pytest.approx(0.5 / (1 / 500))


def test_detect_transition_fires_inside_first_window():
    # jump at rank 3 is a transition even though fewer than `window`
    # entries precede it
    values = [0.01, 0.012, 0.011, 0.2] + [0.2] * 20
    report = detect_transition(fake_curve(values))
    assert report.rank == 3


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([1e-3, 2e-3, 0.1, 1 / 3, 0.5, 1.0]) | st.floats(1e-6, 1.0),
                min_size=1, max_size=10))
def test_transition_median_matches_numpy_bitwise(values):
    # the baseline median avoids np.median (which imports numpy.ma) but must
    # give its bits, ties and even windows included
    from eigenloc.clustering import _median

    ref = np.array(values)
    assert np.float64(_median(ref)).tobytes() == np.median(ref).tobytes()


def test_transition_median_matches_numpy_on_random_windows():
    from eigenloc.clustering import _median

    rng = np.random.default_rng(7)
    for size in range(1, 11):
        for _ in range(500):
            ref = rng.random(size)
            if rng.random() < 0.5:  # ties
                ref = np.round(ref, 1)
            assert np.float64(_median(ref)).tobytes() == np.median(ref).tobytes()


def test_detect_transition_curve_too_short():
    with pytest.raises(CurveTooShort):
        detect_transition(fake_curve([0.5] * 5), window=10)


def test_detect_transition_parameter_validation():
    curve = fake_curve([0.1] * 30)
    with pytest.raises(InputError):
        detect_transition(curve, window=0)
    for factor in (0.5, 1.0, np.nan, np.inf):
        with pytest.raises(InputError, match="factor must be > 1"):
            detect_transition(curve, factor=factor)


@pytest.mark.parametrize(
    "curve, entry",
    [
        ([0.0] * 12, 0),
        ([0.1, 0.0, 0.5] + [0.1] * 9, 1),
        ([-1.0] + [0.1] * 11, 0),
        ([0.1] * 11 + [np.nan], 11),
        ([0.1] * 5 + [np.inf] + [0.1] * 6, 5),
    ],
    ids=["zeros", "zero_floor", "negative", "nan", "inf"],
)
def test_detect_transition_rejects_junk_curves(curve, entry):
    # an IPR lies in [1/n, 1]; a zero floor gave factor nan or inf, and a
    # negative one fired below the threshold
    with pytest.raises(InputError, match=f"curve entry {entry} is "):
        detect_transition(fake_curve(curve))


def test_detect_transition_on_real_curve_of_homogeneous_graph():
    rng = np.random.default_rng(0)
    g = random_connected_graph(rng, n_max=60, weighted=False)
    basis = spectrum_random_walk(g)
    report = detect_transition(ipr_curve(basis), window=10, factor=8.0)
    assert report.rank is None or report.rank >= 2


@given(
    v=hnp.arrays(
        np.float64,
        st.integers(2, 12),
        elements=st.floats(-5, 5, allow_nan=False),
    ),
    scale=st.floats(0.1, 10),
)
@settings(max_examples=40, deadline=None)
def test_sweep_scale_invariance(v, scale):
    # scaling can round two entries together or underflow (v=[-5e-324, 0],
    # scale=0.5 gives [-0.0, 0.0]); the cut is invariant whenever the sweep
    # order is
    idx = np.arange(len(v))
    assume(np.array_equal(np.lexsort((idx, -v)), np.lexsort((idx, -(v * scale)))))
    g = path_graph(len(v))
    a = sweep_cut(v, g)
    b = sweep_cut(v * scale, g)
    assert np.array_equal(a.side, b.side)
    assert a.conductance == b.conductance


@given(
    v=hnp.arrays(
        np.float64,
        st.integers(2, 20),
        elements=st.floats(-5, 5, allow_nan=False).filter(lambda x: abs(x) > 1e-9),
    )
)
@settings(max_examples=40, deadline=None)
def test_sign_cut_negation_gives_complement(v):
    a = sign_cut(v)
    b = sign_cut(-v)
    assert np.array_equal(a.side, ~b.side)


def test_restriction_distance_sign_invariant():
    g = two_triangles_bridge()
    v = spectrum_random_walk(g).vectors[:, 1]
    d1, _, _ = restrict_and_compare(v, [0, 1, 2], g)
    d2, _, _ = restrict_and_compare(-v, [0, 1, 2], g)
    assert d1 == pytest.approx(d2, abs=1e-12)
