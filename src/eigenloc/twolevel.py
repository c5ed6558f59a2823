"""Synthetic graph families: ER blocks, planted 2-modules, bead chains, grids.

A bead chain is a sequence of base graphs ("beads") joined by an interaction
model: path_random couples consecutive beads by Bernoulli edges, path_identity
couples same-index nodes of consecutive equal-size beads with one scalar
weight, global_random couples every bead pair.

Randomness contract: everything derives from numpy's default_rng over
SeedSequence(entropy=seed, spawn_key=...), with one substream per bead
(spawn_key (0, t)), one per consecutive-bead pair ((1, t)), and one for the
global coupling ((2, 0)). Appending beads to a chain therefore never changes
the edges of earlier beads, and generate_er and generate_two_module, being
one-bead chains, draw the edge set of bead 0 of any chain with the same seed.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .errors import InputError, UnequalBeadSizes
from .operators import WeightedGraph


# every pair array a bead's generation allocates stays below numpy's size limit
MAX_BEAD_NODES = 10**9


def _check_size(size: int) -> None:
    if not 1 <= size <= MAX_BEAD_NODES:
        raise InputError(f"bead size must lie in 1..{MAX_BEAD_NODES}")


def _check_label(label) -> None:
    # graphs store group ids as int64 and reserve -1 for "unlabeled"
    if label is not None and not 0 <= label <= np.iinfo(np.int64).max:
        raise InputError(f"bead label {label} outside 0..2^63-1")


@dataclass(frozen=True)
class ERBead:
    n: int
    p: float
    label: int | None = None

    def __post_init__(self):
        _check_size(self.n)
        if not 0.0 <= self.p <= 1.0:
            raise InputError("edge probability must lie in [0, 1]")
        _check_label(self.label)

    @property
    def size(self) -> int:
        return self.n


@dataclass(frozen=True)
class TwoModuleBead:
    """Two ER blocks with intra-density p1 and cross-density p2."""

    n1: int
    n2: int
    p1: float
    p2: float
    label: int | None = None

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1:
            raise InputError("module sizes must be >= 1")
        _check_size(self.size)
        for p in (self.p1, self.p2):
            if not 0.0 <= p <= 1.0:
                raise InputError("edge probability must lie in [0, 1]")
        _check_label(self.label)
        if self.p1 < self.p2:
            warnings.warn("p1 < p2: the planted split is anti-modular", stacklevel=2)

    @property
    def size(self) -> int:
        return self.n1 + self.n2


Bead = ERBead | TwoModuleBead


@dataclass(frozen=True)
class PathRandom:
    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise InputError("coupling probability must lie in [0, 1]")


@dataclass(frozen=True)
class PathIdentity:
    eps: float

    def __post_init__(self):
        if not 0 < self.eps < np.inf:
            raise InputError("identity coupling weight must be finite and > 0")


@dataclass(frozen=True)
class GlobalRandom:
    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise InputError("coupling probability must lie in [0, 1]")


Interaction = PathRandom | PathIdentity | GlobalRandom


@dataclass(frozen=True)
class TwoLevelSpec:
    beads: tuple[Bead, ...]
    interaction: Interaction
    seed: int

    def __post_init__(self):
        beads = tuple(self.beads)
        object.__setattr__(self, "beads", beads)
        if len(beads) == 0:
            raise InputError("need at least one bead")
        if self.seed < 0:  # SeedSequence takes nonnegative entropy only
            raise InputError(f"seed {self.seed} is negative")
        if isinstance(self.interaction, PathIdentity):
            sizes = {b.size for b in beads}
            if len(sizes) > 1:
                raise UnequalBeadSizes(
                    f"identity coupling needs equal bead sizes, got {sorted(sizes)}"
                )


def _stream(seed: int, key: tuple[int, ...]) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _er_pairs(rng, nodes: np.ndarray, p: float):
    """Bernoulli(p) over unordered pairs, upper-triangle index order."""
    n, r = nodes.size, np.arange(nodes.size)
    k = np.flatnonzero(rng.random(n * (n - 1) // 2) < p)  # flat indices: no n^2/2 index arrays
    starts = r * (2 * n - 1 - r) // 2  # row i's first flat index
    i = np.searchsorted(starts, k, side="right") - 1
    return nodes[i], nodes[k - starts[i] + i + 1]


def _bipartite_pairs(rng, a: np.ndarray, b: np.ndarray, p: float):
    ia, ib = np.divmod(np.flatnonzero(rng.random((a.size, b.size)) < p), b.size)
    return a[ia], b[ib]


def _bead_pairs(rng, bead: Bead, nodes: np.ndarray):
    if isinstance(bead, ERBead):
        return _er_pairs(rng, nodes, bead.p)
    first = nodes[: bead.n1]
    second = nodes[bead.n1 :]
    i1, j1 = _er_pairs(rng, first, bead.p1)
    i2, j2 = _er_pairs(rng, second, bead.p1)
    ic, jc = _bipartite_pairs(rng, first, second, bead.p2)
    return np.concatenate([i1, i2, ic]), np.concatenate([j1, j2, jc])


def generate_er(n: int, p: float, seed: int) -> WeightedGraph:
    """ER graph: each pair present independently with probability p, unit weight."""
    g = generate_bead_chain(TwoLevelSpec((ERBead(n, p),), PathRandom(0.0), seed))
    return replace(g, labels=None)


def generate_two_module(
    n1: int, n2: int, p1: float, p2: float, seed: int
) -> WeightedGraph:
    """Planted 2-module; labels record module membership (0 or 1)."""
    g = generate_bead_chain(TwoLevelSpec((TwoModuleBead(n1, n2, p1, p2),), PathRandom(0.0), seed))
    return replace(g, labels=g.sublabels, sublabels=None)


def generate_bead_chain(spec: TwoLevelSpec) -> WeightedGraph:
    """Union of bead subgraphs plus interaction edges.

    Node labels record the bead index (or the bead's explicit label);
    sublabels record module membership inside 2-module beads (-1 in ER
    beads), and are None when no bead has modules.
    """
    offsets = np.cumsum([0] + [b.size for b in spec.beads])
    nodes = [np.arange(lo, hi) for lo, hi in zip(offsets[:-1], offsets[1:])]
    groups = [t if b.label is None else b.label for t, b in enumerate(spec.beads)]
    labels = np.repeat(np.array(groups, dtype=np.int64), np.diff(offsets))
    sublabels = np.concatenate([
        np.repeat([0, 1], [b.n1, b.n2]) if isinstance(b, TwoModuleBead) else np.full(b.n, -1)
        for b in spec.beads
    ])

    # (i, j, weight) edge blocks: one per bead, then one per coupled bead pair
    blocks = [
        (*_bead_pairs(_stream(spec.seed, (0, t)), bead, nodes[t]), 1.0)
        for t, bead in enumerate(spec.beads)
    ]
    inter = spec.interaction
    if isinstance(inter, PathIdentity):
        blocks += [(a, b, inter.eps) for a, b in zip(nodes, nodes[1:])]
    elif isinstance(inter, PathRandom):
        blocks += [
            (*_bipartite_pairs(_stream(spec.seed, (1, t)), a, b, inter.p), 1.0)
            for t, (a, b) in enumerate(zip(nodes, nodes[1:]))
        ]
    else:
        rng = _stream(spec.seed, (2, 0))
        blocks += [(*_bipartite_pairs(rng, a, b, inter.p), 1.0) for a, b in combinations(nodes, 2)]
    i, j, w = zip(*blocks)
    return WeightedGraph(
        int(offsets[-1]), np.concatenate(i), np.concatenate(j), np.repeat(w, [x.size for x in i]),
        labels, sublabels if (sublabels >= 0).any() else None,
    )


def tensor_block(k: int, w: WeightedGraph) -> WeightedGraph:
    """k disjoint copies of w; labels record the copy index.

    If w carries labels of its own they land in sublabels, the same in every copy.
    """
    if k < 1:
        raise InputError("k must be >= 1")
    n = w.n
    parts_i = [w.rows + c * n for c in range(k)]
    parts_j = [w.cols + c * n for c in range(k)]
    weights = np.tile(w.weights, k)
    sublabels = None if w.labels is None else np.tile(w.labels, k)
    return WeightedGraph(
        k * n, np.concatenate(parts_i), np.concatenate(parts_j), weights,
        np.repeat(np.arange(k), n), sublabels,
    )


def generate_grid(rows: int, cols: int) -> WeightedGraph:
    """4-neighbor lattice with unit weights."""
    if rows < 1 or cols < 1:
        raise InputError("grid dimensions must be >= 1")
    idx = np.arange(rows * cols).reshape(rows, cols)
    right = np.stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()])
    down = np.stack([idx[:-1, :].ravel(), idx[1:, :].ravel()])
    i = np.concatenate([right[0], down[0]])
    j = np.concatenate([right[1], down[1]])
    return WeightedGraph(rows * cols, i, j, np.ones(i.size))


def matched_er_density(n1: int, n2: int, p1: float, p2: float) -> float:
    """ER density whose expected edge count matches a 2-module of the same size."""
    intra = n1 * (n1 - 1) // 2 + n2 * (n2 - 1) // 2
    cross = n1 * n2
    total = intra + cross
    if total == 0:
        raise InputError("bead too small to define a density")
    return (p1 * intra + p2 * cross) / total
