"""Weighted graphs and the matrix operators built from them.

A WeightedGraph stores an undirected edge set (i < j, positive weights) plus
optional per-node group labels. Operators are kept sparse (CSR); callers ask
for a dense view explicitly and only below a size guard.
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

# construction never densifies above this node count by default
DENSE_LIMIT = 5000


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Undirected weighted graph on nodes 0..n-1.

    rows/cols/weights are parallel arrays, one entry per edge, canonically
    sorted with rows[e] < cols[e]. labels (and sublabels) are None or an
    int64 array of length n holding each node's group id (>= 0), or -1 for
    an unlabeled node; generators use them for bead and module membership.
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray
    labels: np.ndarray | None = None
    sublabels: np.ndarray | None = None

    def __post_init__(self):
        if self.n < 1:
            raise InputError("graph needs at least one node")
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
        keep = w > 0  # zero-weight edges are simply absent
        i, j, w = i[keep], j[keep], w[keep]
        if np.any(i == j):
            e = int(np.argmax(i == j))
            raise InputError(f"self-loop on node {int(i[e])}")
        lo = np.minimum(i, j)
        hi = np.maximum(i, j)
        if lo.size and (lo.min() < 0 or hi.max() >= self.n):
            raise InputError("edge endpoint out of range")
        # pairs already strictly increasing (as parse_graph passes them) are
        # sorted and distinct; anything else is sorted and scanned for repeats
        step = (lo[1:] > lo[:-1]) | ((lo[1:] == lo[:-1]) & (hi[1:] > hi[:-1]))
        if not step.all():
            order = np.lexsort((hi, lo))
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
    def edges(self) -> list[tuple[int, int, float]]:
        return [
            (int(i), int(j), float(w))
            for i, j, w in zip(self.rows, self.cols, self.weights)
        ]

    @property
    def edge_count(self) -> int:
        return int(self.rows.size)

    @cached_property
    def adjacency(self) -> sp.csr_matrix:
        """Symmetric weighted adjacency, CSR."""
        import scipy.sparse as sp

        i = np.concatenate([self.rows, self.cols])
        j = np.concatenate([self.cols, self.rows])
        w = np.concatenate([self.weights, self.weights])
        return sp.coo_matrix((w, (i, j)), shape=(self.n, self.n)).tocsr()

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.asarray(self.adjacency.sum(axis=1)).ravel()

    @cached_property
    def components(self) -> tuple[int, np.ndarray]:
        """(count, component label per node); scipy numbers the components
        in the order of their lowest node."""
        from scipy.sparse.csgraph import connected_components

        return connected_components(self.adjacency, directed=False)

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


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """A matrix built from a graph: kind is one of laplacian / random_walk /
    normalized_adjacency. Stored sparse; .dense() is guarded by a node limit."""

    kind: str
    matrix: sp.csr_matrix
    degrees: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def dense(self, limit: int = DENSE_LIMIT) -> np.ndarray:
        if self.n > limit:
            raise ValueError(
                f"refusing to densify a {self.n}-node operator (limit {limit})"
            )
        return self.matrix.toarray()


def laplacian(g: WeightedGraph) -> OperatorMatrix:
    """L = D - W. Isolated nodes are fine here (zero rows)."""
    import scipy.sparse as sp

    d = g.degrees
    L = sp.diags(d, format="csr") - g.adjacency
    return OperatorMatrix("laplacian", L.tocsr(), d)


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
    return OperatorMatrix("random_walk", P.tocsr(), d)


def normalized_adjacency(g: WeightedGraph) -> OperatorMatrix:
    """S = D^(-1/2) W D^(-1/2); symmetric, similar to the random-walk operator."""
    import scipy.sparse as sp

    d = _require_positive_degrees(g)
    half = sp.diags(1.0 / np.sqrt(d), format="csr")
    S = half @ g.adjacency @ half
    return OperatorMatrix("normalized_adjacency", S.tocsr(), d)


def migration_similarity(m: MigrationInput) -> WeightedGraph:
    """Similarity graph with w_ij = flows_ij^2 / (pops_i * pops_j), one edge
    per flow."""
    f, rows, cols = m.flows.weights, m.flows.rows, m.flows.cols
    return WeightedGraph(m.n, rows, cols, f * f / (m.pops[rows] * m.pops[cols]))
