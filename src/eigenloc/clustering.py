"""Eigenvector-driven partitioning and the localization transition detector."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CurveTooShort,
    DisconnectedGraph,
    DisconnectedSubgraph,
    InputError,
    SizeMismatch,
    SubsetTooSmall,
)
from .eigensolver import _sign_normalize, spectrum_random_walk
from .operators import WeightedGraph


@dataclass(frozen=True, eq=False)
class Partition:
    """Two-way node split. conductance is None for cuts never evaluated
    against a graph (plain sign cuts)."""

    side: np.ndarray
    conductance: float | None = None

    @property
    def is_trivial(self) -> bool:
        return bool(self.side.all() or (~self.side).all())


@dataclass(frozen=True)
class TransitionReport:
    """First localized rank, if any.

    baseline is the median IPR over the window preceding the transition;
    factor is the trigger ratio (transition IPR over the window minimum),
    which is >= the detection threshold whenever rank is present.
    """

    rank: int | None
    baseline: float | None
    factor: float | None


def _require_connected(g: WeightedGraph):
    """DisconnectedGraph unless g is connected: a sweep cut needs that, and
    callers check it before they solve for the vector to cut."""
    if g.components[0] > 1:
        raise DisconnectedGraph("sweep cut needs a connected graph")


def sweep_cut(v, g: WeightedGraph) -> Partition:
    """Minimum-conductance prefix along v.

    Nodes are sorted by v descending (ties by index); each of the n-1
    prefixes S is scored by phi(S) = cut(S) / min(vol(S), vol(complement));
    the smallest minimizing prefix wins.

    The cut of every prefix comes from one prefix sum over the edges, so on
    weighted graphs phi can differ in the last digits from adding the cut
    up node by node; integer weights sum exactly.
    """
    v = np.asarray(v, dtype=np.float64).ravel()
    n = g.n
    if v.size != n:
        raise SizeMismatch(f"vector length {v.size} != node count {n}")
    if n < 2:
        raise InputError("sweep cut needs at least 2 nodes")
    _require_connected(g)

    order = np.argsort(-v, kind="stable")
    pos = np.argsort(order)  # the sort position of each node
    # an edge is cut exactly by the prefixes that hold its first endpoint
    # in sort order but not its second: t = lo .. hi-1
    lo = np.minimum(pos[g.rows], pos[g.cols])
    hi = np.maximum(pos[g.rows], pos[g.cols])
    cut = np.cumsum(np.bincount(lo, g.weights, n) - np.bincount(hi, g.weights, n))[:-1]
    vol = np.cumsum(g.degrees[order])[:-1]
    phi = cut / np.minimum(vol, float(g.degrees.sum()) - vol)
    t = int(np.argmin(phi))  # the first minimum: the smallest prefix
    side = np.zeros(n, dtype=bool)
    side[order[: t + 1]] = True
    return Partition(side, float(phi[t]))


def sign_cut(v) -> Partition:
    """side_i = (v_i >= 0); zero entries join the nonnegative side."""
    v = np.asarray(v, dtype=np.float64).ravel()
    return Partition(v >= 0.0, None)


def partition_agreement(a: Partition, b: Partition) -> float:
    """Fraction of nodes on matching sides, maximized over the label swap."""
    if a.side.size != b.side.size:
        raise SizeMismatch("partitions cover different node counts")
    same = float(np.mean(a.side == b.side))
    return max(same, 1.0 - same)


def _restricted_subgraph(g: WeightedGraph, idx: np.ndarray) -> WeightedGraph:
    """g's subgraph induced on the sorted distinct nodes idx, or
    SubsetTooSmall / DisconnectedSubgraph when no restriction can be compared
    on it; callers check it before they solve for the vector to restrict."""
    if idx.size < 2:
        raise SubsetTooSmall("restriction needs at least 2 nodes")
    sub = g.subgraph(idx)
    if sub.components[0] > 1:
        raise DisconnectedSubgraph("subset induces a disconnected subgraph")
    return sub


def restrict_and_compare(v_full, subset, g: WeightedGraph):
    """Compare a full-graph eigenvector against its subgraph-native twin.

    Returns (distance, v_restricted, v_local): v_restricted is v_full cut
    down to the subset, renormalized and sign-normalized; v_local is the top
    nontrivial eigenvector of the induced subgraph's random-walk operator;
    distance is the max-entry absolute difference after the better global
    sign flip.
    """
    v_full = np.asarray(v_full, dtype=np.float64).ravel()
    if v_full.size != g.n:
        raise SizeMismatch(f"vector length {v_full.size} != node count {g.n}")
    idx = np.unique(np.asarray(list(subset), dtype=np.int64))
    sub = _restricted_subgraph(g, idx)
    v_r = v_full[idx]
    norm = np.linalg.norm(v_r)
    if norm == 0.0:
        raise InputError("vector vanishes on the subset")
    v_r = v_r / norm
    _sign_normalize(v_r)
    basis = spectrum_random_walk(sub, k=2)
    v_local = basis.vectors[:, 1]
    dist = min(
        float(np.max(np.abs(v_r - v_local))),
        float(np.max(np.abs(v_r + v_local))),
    )
    return dist, v_r, v_local


def _median(values: np.ndarray) -> float:
    """np.median(values), bit for bit, without the numpy.ma import it makes."""
    s = np.sort(values)
    mid = s.size // 2
    return float(s[mid] if s.size % 2 else (s[mid - 1] + s[mid]) / 2)


def _check_transition_args(window: int, factor: float, size: int | None = None) -> None:
    """detect_transition's checks, which callers make before they solve; the
    curve's length is checked when a size is given (analyze passes none and
    reports no transition on a short curve)."""
    if window < 1:
        raise InputError("window must be >= 1")
    if not 1 < factor < np.inf:  # <= 1 fires on every curve; JSON has no nan or inf
        raise InputError(f"factor must be > 1 and finite, got {factor}")
    if size is not None and size < window + 1:
        raise CurveTooShort(f"curve has {size} entries; need at least {window + 1}")


def detect_transition(curve, window: int = 10, factor: float = 5.0) -> TransitionReport:
    """First rank whose IPR jumps clear of the preceding delocalized floor.

    curve holds one IPR per rank, in rank order, as ipr_curve returns it.
    A rank j >= 2 fires when ipr_j >= factor * min(ipr over the up-to-window
    preceding ranks). The minimum anchors the floor at the flattest preceding
    eigenvector; on a connected graph rank 0 scores exactly 1/n, so factor
    reads "localized on <= 1/factor of the nodes". The median of the same
    window is reported as the baseline level. Every entry must be finite and
    > 0, as an IPR in [1/n, 1] is; anything else is an InputError.
    """
    values = np.asarray(curve, dtype=np.float64)
    _check_transition_args(window, factor, values.size)
    bad = ~((values > 0) & (values < np.inf))  # a NaN fails too
    if bad.any():
        j = int(np.argmax(bad))
        raise InputError(f"curve entry {j} is {values[j]}; an IPR is finite and > 0")
    for j in range(2, values.size):
        ref = values[max(0, j - window) : j]
        floor = float(ref.min())
        if values[j] >= factor * floor:
            return TransitionReport(j, _median(ref), float(values[j] / floor))
    return TransitionReport(None, None, None)
