"""Top-level analysis workflow: spectra, localization scores, transitions,
group mass tables, and sweep partitions assembled into one report."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import (
    Partition,
    TransitionReport,
    _check_transition_args,
    _require_connected,
    detect_transition,
    sweep_cut,
)
from .eigensolver import Eigenbasis, _check_k, normalized_square_spectrum, spectrum_random_walk
from .errors import CurveTooShort, InputError, MissingLabels, SizeMismatch
from .localization import Histogram, _check_nbins, histogram, ipr_curve
from .operators import WeightedGraph

DEFAULT_K = 100


@dataclass(frozen=True, eq=False)
class AnalysisReport:
    """Each quantity once: eigenvalues and degeneracy flags live in basis;
    curve[j] is rank j's IPR and hists[j] the histogram of its entries."""

    basis: Eigenbasis
    sq_spectrum: np.ndarray
    curve: np.ndarray
    hists: tuple[Histogram, ...]
    transition: TransitionReport
    partitions: tuple[tuple[int, Partition], ...]
    group_table: tuple[tuple[int, int, float, float], ...] | None
    window: int
    tau: float


def _check_labels(labels, n: int) -> None:
    """group_mass_table's check of labels, which analyze makes before the solve."""
    if labels is None:
        raise MissingLabels("graph carries no labels")
    if labels.shape != (n,):
        raise SizeMismatch(f"{labels.size} labels for {n} nodes")
    if (labels < 0).any():
        raise MissingLabels(f"node {int(np.argmax(labels < 0))} has no label")


def group_mass_table(basis: Eigenbasis, labels) -> list[tuple[int, int, float, float]]:
    """(rank, group, l2 fraction, l1 fraction) for every rank and group.

    labels is a graph's int64 label array and must label every node (no -1);
    each rank's l2 fractions sum to one.
    """
    _check_labels(labels, basis.n)
    groups, compact = np.unique(labels, return_inverse=True)
    rows: list[tuple[int, int, float, float]] = []
    for j in range(basis.k):
        v = basis.vectors[:, j]
        sq = v * v
        ab = np.abs(v)
        l2 = np.bincount(compact, weights=sq, minlength=groups.size) / sq.sum()
        l1 = np.bincount(compact, weights=ab, minlength=groups.size) / ab.sum()
        for gi, group in enumerate(groups):
            rows.append((j, int(group), float(l2[gi]), float(l1[gi])))
    return rows


def analyze(
    g: WeightedGraph,
    k: int | None = None,
    sweep_ranks=(),
    window: int = 10,
    tau: float = 5.0,
    nbins: int = 50,
) -> AnalysisReport:
    """Full pipeline over the top-k spectrum (default k = min(n, 100)).

    Curves shorter than window+1 entries report no transition rather than
    failing: a two-eigenvector curve has nothing to detect against. k, the
    sweep ranks, window, tau, nbins and any labels are all checked before
    the solve.
    """
    if k is None:
        k = min(g.n, DEFAULT_K)
    _check_k(g.n, k)
    sweep_ranks = tuple(int(r) for r in sweep_ranks)
    for r in sweep_ranks:
        if not 0 <= r < k:
            raise InputError(f"sweep rank {r} outside computed range 0..{k - 1}")
    if sweep_ranks:
        _require_connected(g)
    _check_transition_args(window, tau)
    _check_nbins(nbins)
    if g.labels is not None:
        _check_labels(g.labels, g.n)
    basis = spectrum_random_walk(g, k)
    curve = ipr_curve(basis)
    try:
        transition = detect_transition(curve, window, tau)
    except CurveTooShort:
        transition = TransitionReport(None, None, None)

    table = group_mass_table(basis, g.labels) if g.labels is not None else None
    partitions = tuple((r, sweep_cut(basis.vectors[:, r], g)) for r in sweep_ranks)
    return AnalysisReport(
        basis=basis,
        sq_spectrum=normalized_square_spectrum(basis.lambdas),
        curve=curve,
        hists=tuple(histogram(basis.vectors[:, j], nbins) for j in range(basis.k)),
        transition=transition,
        partitions=partitions,
        group_table=tuple(table) if table is not None else None,
        window=window,
        tau=tau,
    )
