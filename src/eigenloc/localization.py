"""Per-eigenvector and per-node localization scores.

ipr scores one eigenvector: 1/n when perfectly uniform, 1 when all mass sits
on a single node. csl spreads one unit of leverage across nodes. Both insist
on unit-L2 input instead of silently rescaling.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import EmptySubset, InputError, NotNormalized

if TYPE_CHECKING:
    from .eigensolver import Eigenbasis

NORM_TOL = 1e-6  # |sum(v^2) - 1| above this is rejected
# histogram takes a spread (max - min) up to CONSTANT_RTOL * max|v| as rounding
# of a constant. A solved constant eigenvector spreads about n * eps relative
# (9e-14 at n = 400, 1.5e-11 at n = 10,000 on bead chains), so 1e-9 covers it
# to n near 1e6, while entries of 0 and 1e-13 still differ.
CONSTANT_RTOL = 1e-9


@dataclass(frozen=True, eq=False)
class Histogram:
    bin_edges: np.ndarray
    counts: np.ndarray


def _check_unit(v: np.ndarray) -> float:
    sq = float(np.sum(v * v))
    if not abs(sq - 1.0) <= NORM_TOL:  # NaN fails too
        raise NotNormalized(f"vector has squared norm {sq:.9g}, expected 1")
    return sq


def ipr(v) -> float:
    """Inverse participation ratio of a unit vector.

    Computed in the scale-invariant form sum(v^4)/sum(v^2)^2, which equals
    the plain sum(v^4)/sum(v^2) at unit norm and is confined to [1/n, 1]
    for any accepted input.
    """
    v = np.asarray(v, dtype=np.float64).ravel()
    sq = _check_unit(v)
    return float(np.sum(v ** 4) / (sq * sq))


def csl(v) -> np.ndarray:
    """Leverage scores v_i^2 / sum(v^2); nonnegative, summing to one."""
    v = np.asarray(v, dtype=np.float64).ravel()
    sq = _check_unit(v)
    return v * v / sq


def ipr_curve(basis: Eigenbasis) -> np.ndarray:
    """The IPR of every rank's eigenvector, in rank order (float64, length k).

    One ipr() per column: a single reduction over the whole matrix would add
    in another order and change the last digit.
    """
    return np.array([ipr(basis.vectors[:, j]) for j in range(basis.k)], dtype=np.float64)


def mass_concentration(v, subset) -> tuple[float, float]:
    """(L2 fraction, L1 fraction) of the vector's mass on the subset."""
    v = np.asarray(v, dtype=np.float64).ravel()
    idx = np.unique(np.asarray(list(subset), dtype=np.int64))
    if idx.size == 0:
        raise EmptySubset("mass_concentration needs a nonempty subset")
    if idx.min() < 0 or idx.max() >= v.size:
        raise InputError("subset index out of range")
    sq = v * v
    ab = np.abs(v)
    return float(sq[idx].sum() / sq.sum()), float(ab[idx].sum() / ab.sum())


def _check_nbins(nbins: int) -> None:
    """histogram's check of nbins, which callers make before they solve."""
    if nbins < 1:
        raise InputError("nbins must be >= 1")


def histogram(v, nbins: int = 50) -> Histogram:
    """Uniform-width bins over [min, max]; the last bin is right-inclusive.

    A range below 1e-12 is widened to 1e-12, and a vector constant up to
    rounding (spread <= CONSTANT_RTOL * max|v|) fills the first bin. Bins
    numpy cannot make finite-sized are an InputError.
    """
    _check_nbins(nbins)
    v = np.asarray(v, dtype=np.float64).ravel()
    lo, hi = float(v.min()), float(v.max())
    if hi - lo < 1e-12:
        if hi - lo <= CONSTANT_RTOL * max(-lo, hi):  # max(-lo, hi) = max|v|
            v = np.full_like(v, lo)
        hi = lo + 1e-12
    try:
        counts, edges = np.histogram(v, bins=nbins, range=(lo, hi))
    except ValueError as exc:  # e.g. bins narrower than the spacing of floats near lo
        raise InputError(f"histogram over [{lo!r}, {hi!r}]: {exc}") from None
    return Histogram(edges, counts)
