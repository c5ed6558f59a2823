"""Weighted graphs and the matrix operators built from them.

A WeightedGraph stores an undirected edge set (i < j, positive weights) plus
optional per-node group labels. Degrees and component labels come straight
from the edge arrays with numpy. laplacian, random_walk and
normalized_adjacency return an OperatorMatrix whose .matrix is a scipy CSR
matrix; normalized_adjacency's is built on the CSR arrays the solver uses
without scipy.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    DuplicateEdge,
    InputError,
    IsolatedNode,
    NegativeWeight,
    NonpositivePopulation,
    SizeMismatch,
)

if TYPE_CHECKING:
    import scipy.sparse as sp

# the solver's default dense limit: above this node count it runs Lanczos
DENSE_LIMIT = 5000


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Undirected weighted graph on nodes 0..n-1.

    rows/cols/weights are parallel arrays, one entry per edge, canonically
    sorted with rows[e] < cols[e]. Given edge arrays that are already int64
    and float64, sorted, distinct and free of zero weights are kept, not
    copied; given with rows > cols on every edge, they are kept swapped.
    labels (and sublabels) are None or an int64 array of length n holding
    each node's group id (>= 0), or -1 for an unlabeled node; generators use
    them for bead and module membership.
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray
    labels: np.ndarray | None = None
    sublabels: np.ndarray | None = None

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer)):
            raise InputError(f"node count must be an integer, got {self.n!r}")
        if self.n < 1:
            raise InputError("graph needs at least one node")
        object.__setattr__(self, "n", int(self.n))
        i = np.asarray(self.rows, dtype=np.int64).ravel()
        j = np.asarray(self.cols, dtype=np.int64).ravel()
        w = np.asarray(self.weights, dtype=np.float64).ravel()
        if not (i.size == j.size == w.size):
            raise SizeMismatch("edge arrays have different lengths")
        finite = np.isfinite(w)
        if not finite.all():
            e = int(np.argmax(~finite))
            raise InputError(f"non-finite weight on edge ({int(i[e])}, {int(j[e])})")
        if np.any(w < 0):
            e = int(np.argmax(w < 0))
            raise NegativeWeight(int(i[e]), int(j[e]))
        if not w.all():  # zero-weight edges are simply absent
            keep = w > 0
            i, j, w = i[keep], j[keep], w[keep]
        if np.any(i == j):
            e = int(np.argmax(i == j))
            raise InputError(f"self-loop on node {int(i[e])}")
        lo, hi = _canonical_pairs(i, j)
        if lo.size and (lo.min() < 0 or hi.max() >= self.n):
            raise InputError("edge endpoint out of range")
        # pairs already strictly increasing (as parse_graph passes them) are
        # kept as they are; anything else is sorted and scanned for repeats
        if not _sorted_distinct(lo, hi):
            order = _pair_order(self.n, lo, hi)
            lo, hi, w = lo[order], hi[order], w[order]
            dup = (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
            if np.any(dup):
                e = int(np.argmax(dup))
                raise DuplicateEdge(int(lo[e]), int(hi[e]))
        for name, val in (("rows", lo), ("cols", hi), ("weights", w)):
            object.__setattr__(self, name, val)
        for name in ("labels", "sublabels"):
            a = getattr(self, name)
            if a is not None:
                a = np.asarray(a)
                integer = a.dtype.kind in "iu" and np.can_cast(a.dtype, np.int64)
                if a.shape != (self.n,) or not integer or (a < -1).any():
                    raise InputError(f"{name} must be integers >= -1 of shape ({self.n},)")
                object.__setattr__(self, name, a.astype(np.int64))

    @classmethod
    def from_edges(cls, n: int, edges, labels=None, sublabels=None) -> "WeightedGraph":
        """Build from an iterable of (i, j, w) triples."""
        triples = list(edges)
        if triples:
            i, j, w = (np.array(x) for x in zip(*triples))
        else:
            i = j = np.zeros(0, dtype=np.int64)
            w = np.zeros(0)
        return cls(n, i, j, w, labels, sublabels)

    @property
    def edge_count(self) -> int:
        return int(self.rows.size)

    @cached_property
    def adjacency(self) -> sp.csr_matrix:
        """Symmetric weighted adjacency, CSR."""
        import scipy.sparse as sp

        csr = _symmetric_csr(self.n, self.rows, self.cols, self.weights)
        return sp.csr_matrix(csr, shape=(self.n, self.n))

    @cached_property
    def degrees(self) -> np.ndarray:
        """Weighted degree per node, bitwise equal to adjacency.sum(axis=1).

        That row sum is numpy's add.reduceat over each CSR row, lower
        neighbours first, each side ascending, pairwise beyond 8 terms; this
        makes the same call on the same weights in _row_order's CSR order,
        without index arrays.
        """
        count = np.bincount(self.rows, minlength=self.n) + np.bincount(self.cols, minlength=self.n)
        w = _row_order(self.n, self.rows, self.cols, self.weights, self.weights)
        d = np.zeros(self.n)
        has = count > 0
        d[has] = np.add.reduceat(w, (np.cumsum(count) - count)[has])
        return d

    @cached_property
    def components(self) -> tuple[int, np.ndarray]:
        """(count, component label per node), components numbered in the
        order of their lowest node."""
        return _label_components(self.n, self.rows, self.cols)

    def subgraph(self, nodes) -> "WeightedGraph":
        """Induced subgraph on the given nodes, relabeled 0..len-1 in sorted order."""
        idx = np.unique(np.asarray(list(nodes), dtype=np.int64))
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            raise InputError("subgraph node out of range")
        members = np.zeros(self.n, dtype=bool)
        members[idx] = True
        keep = members[self.rows] & members[self.cols]
        remap = np.zeros(self.n, dtype=np.int64)
        remap[idx] = np.arange(idx.size)
        labels = None if self.labels is None else self.labels[idx]
        subl = None if self.sublabels is None else self.sublabels[idx]
        return WeightedGraph(
            idx.size, remap[self.rows[keep]], remap[self.cols[keep]],
            self.weights[keep], labels, subl,
        )


@dataclass(frozen=True, eq=False)
class MigrationInput:
    """Flow counts (one integral weight per edge) plus finite positive populations."""

    flows: WeightedGraph
    pops: np.ndarray

    def __post_init__(self):
        P = np.asarray(self.pops, dtype=np.float64).ravel()
        if self.flows.n != P.size:
            raise SizeMismatch("population vector length must match the flow graph")
        w = self.flows.weights
        if (np.trunc(w) != w).any():
            raise InputError(f"flow count {w[np.trunc(w) != w][0]:.17g} is not an integer")
        if not np.isfinite(P).all():
            raise InputError(f"population of node {int(np.argmax(~np.isfinite(P)))} is not finite")
        if np.any(P <= 0):
            raise NonpositivePopulation(int(np.argmax(P <= 0)))
        object.__setattr__(self, "pops", P)

    @property
    def n(self) -> int:
        return int(self.pops.size)


def _canonical_pairs(i: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(minimum(i, j), maximum(i, j)): i and j themselves, not copies, when
    one lies below the other on every entry."""
    if (i < j).all():
        return i, j
    if (j < i).all():
        return j, i
    return np.minimum(i, j), np.maximum(i, j)


def _sorted_distinct(lo: np.ndarray, hi: np.ndarray) -> bool:
    """Whether the pairs (lo[e], hi[e]) strictly increase, so are sorted and distinct."""
    return bool(((lo[1:] > lo[:-1]) | ((lo[1:] == lo[:-1]) & (hi[1:] > hi[:-1]))).all())


def _pair_order(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.lexsort((b, a)) for nodes 0..n-1: a stable argsort of a * n + b while n * n fits int64."""
    return np.argsort(a * n + b, kind="stable") if n * n <= 2**63 else np.lexsort((b, a))


def _label_components(n: int, rows: np.ndarray, cols: np.ndarray) -> tuple[int, np.ndarray]:
    """Connected components of canonical edges (rows < cols) by min-label
    hooking with pointer jumping.

    Each round hooks the larger root of every edge still joining two trees
    under the smaller one, then flattens every tree onto its root, and drops
    the edges now inside one tree. A root only ever takes a smaller label,
    so each component ends rooted at its lowest node. In the first round
    every node is its own root, so it hooks cols under rows as they are.
    """
    root = np.arange(n)
    lo, hi = rows, cols
    while lo.size:
        np.minimum.at(root, hi, lo)
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
        ri, rj = root[rows], root[cols]
        split = ri != rj
        rows, cols, ri, rj = rows[split], cols[split], ri[split], rj[split]
        lo, hi = np.minimum(ri, rj), np.maximum(ri, rj)
    lowest = root == np.arange(n)
    return int(lowest.sum()), (np.cumsum(lowest) - 1)[root]


def _row_order(n: int, rows, cols, upper, lower) -> np.ndarray:
    """The 2E entries of the n x n CSR matrix holding upper[e] at (rows[e],
    cols[e]) and lower[e] at (cols[e], rows[e]), in CSR row order with column
    indices sorted within each row, for edges in canonical order (rows <
    cols, sorted by (rows, cols)).

    Row i holds its lower entries (edges with cols[e] == i) and then its
    upper ones (rows[e] == i), each in edge order, so sorted: one stable
    argsort of cols orders the lower entries, and a boolean mask of each
    row's lower slots places both sides.
    """
    lower = lower[np.argsort(cols, kind="stable")]
    below = np.bincount(cols, minlength=n)
    above = np.bincount(rows, minlength=n)
    # True on the lower slots of each row, then False on its upper ones
    is_lower = np.repeat(np.tile([True, False], n), np.column_stack([below, above]).ravel())
    out = np.empty(2 * rows.size, dtype=upper.dtype)
    out[is_lower] = lower
    del lower
    out[~is_lower] = upper
    return out


def _symmetric_csr(n: int, rows, cols, w) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(data, indices, indptr) of the symmetric n x n CSR matrix holding w[e]
    at (rows[e], cols[e]) and (cols[e], rows[e]), laid out by _row_order for
    edges in canonical order: the same arrays and index dtype as scipy's
    coo_matrix(...).tocsr(), without its 2E-long coordinates. The public
    builders wrap them in a scipy csr_matrix; the solver reads them as they
    are, without importing scipy.sparse.
    """
    nnz = 2 * rows.size
    index = np.int32 if max(nnz, n) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(np.bincount(rows, minlength=n) + np.bincount(cols, minlength=n), out=indptr[1:])
    data = _row_order(n, rows, cols, w, w)  # before the indices: a lower peak RSS
    indices = _row_order(n, rows, cols, cols.astype(index), rows.astype(index))
    return data, indices, indptr


def _normalized_csr(n: int, rows, cols, w, h) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(data, indices, indptr) of S = D^(-1/2) W D^(-1/2), with h = 1/sqrt(d):
    W's CSR with each entry scaled to (h_i w) h_j, the products
    diag(h) @ W @ diag(h) forms in that order, so the two triangles can
    differ in the last bit just as in that product."""
    data, indices, indptr = _symmetric_csr(n, rows, cols, w)
    data *= np.repeat(h, np.diff(indptr))
    data *= h[indices]
    return data, indices, indptr


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """A CSR operator built from a graph. Held only for the benchmark's
    .matrix reads until the operator functions return the matrix itself."""

    matrix: sp.csr_matrix


def laplacian(g: WeightedGraph) -> OperatorMatrix:
    """L = D - W. Isolated nodes are fine here (zero rows)."""
    import scipy.sparse as sp

    L = sp.diags(g.degrees, format="csr") - g.adjacency
    return OperatorMatrix(L.tocsr())


def _require_positive_degrees(g: WeightedGraph) -> np.ndarray:
    d = g.degrees
    if np.any(d <= 0):
        raise IsolatedNode(int(np.argmax(d <= 0)))
    return d


def random_walk(g: WeightedGraph) -> OperatorMatrix:
    """P = D^-1 W, row-stochastic."""
    import scipy.sparse as sp

    d = _require_positive_degrees(g)
    P = sp.diags(1.0 / d, format="csr") @ g.adjacency
    return OperatorMatrix(P.tocsr())


def normalized_adjacency(g: WeightedGraph) -> OperatorMatrix:
    """S = D^(-1/2) W D^(-1/2); symmetric, similar to the random-walk operator."""
    import scipy.sparse as sp

    h = 1.0 / np.sqrt(_require_positive_degrees(g))
    csr = _normalized_csr(g.n, g.rows, g.cols, g.weights, h)
    return OperatorMatrix(sp.csr_matrix(csr, shape=(g.n, g.n)))


def migration_similarity(m: MigrationInput) -> WeightedGraph:
    """Similarity graph with w_ij = flows_ij^2 / (pops_i * pops_j), one edge
    per flow."""
    f, rows, cols = m.flows.weights, m.flows.rows, m.flows.cols
    return WeightedGraph(m.n, rows, cols, f * f / (m.pops[rows] * m.pops[cols]))
