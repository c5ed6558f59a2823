"""Spectra of the random-walk operator via its symmetric similarity transform.

P = D^-1 W is similar to S = D^(-1/2) W D^(-1/2): if S y = lambda y then
x = D^(-1/2) y solves P x = lambda x. Solving the symmetric problem keeps the
spectrum real and the returned basis D-orthogonal. Columns are renormalized
to unit L2 because every localization measure downstream assumes
sum(v_i^2) = 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .errors import AllZeroSpectrum, ConvergenceFailure, InputError
from .operators import DENSE_LIMIT, WeightedGraph, normalized_adjacency, random_walk

RESIDUAL_TOL = 1e-8  # per-column residual bound, scaled by n
DEGENERACY_TOL = 1e-9  # eigenvalues closer than this form one cluster
# Dense graphs of at least SUBSET_MIN_N nodes solved for k <= n / SUBSET_RATIO
# pairs compute only those columns (LAPACK evr, index range). Below the floor
# a full solve costs less than process start; above k = n / 8 the subset
# solve stops winning (measured crossover between n/8 and n/4).
SUBSET_MIN_N = 1000
SUBSET_RATIO = 8


@dataclass(frozen=True, eq=False)
class Eigenbasis:
    """Eigenpairs of the random-walk operator, descending by eigenvalue.

    vectors[:, j] is the rank-j eigenvector, unit L2, sign-normalized so its
    largest-magnitude entry is positive. clusters[j] groups ranks whose
    eigenvalues sit within the degeneracy tolerance of their neighbors;
    localization inside such a cluster is basis-dependent, so downstream
    reports flag it. tail_cut is True when the cluster of rank k-1 has
    partners beyond rank k-1 that were solved for but not returned.
    """

    lambdas: np.ndarray
    vectors: np.ndarray
    gaps: np.ndarray
    clusters: np.ndarray
    tail_cut: bool = False

    @property
    def k(self) -> int:
        return int(self.lambdas.size)

    @property
    def n(self) -> int:
        return int(self.vectors.shape[0])

    @cached_property
    def degenerate(self) -> np.ndarray:
        """True for ranks living in a cluster of size > 1, counting partners
        beyond rank k-1."""
        sizes = np.bincount(self.clusters)
        flags = sizes[self.clusters] > 1
        if self.tail_cut:
            flags |= self.clusters == self.clusters[-1]
        return flags


def _sign_normalize(X: np.ndarray) -> np.ndarray:
    # largest-|entry| positive; argmax takes the lowest index on ties
    amax = np.argmax(np.abs(X), axis=0)
    signs = np.where(X[amax, np.arange(X.shape[1])] < 0, -1.0, 1.0)
    return X * signs


def spectrum_random_walk(
    g: WeightedGraph,
    k: int | None = None,
    dense_limit: int = DENSE_LIMIT,
) -> Eigenbasis:
    """Top-k eigenpairs of P = D^-1 W (default: all of them).

    Three routes, chosen from n and k:

    - full dense (LAPACK syevd via numpy) when n <= dense_limit and the
      subset rule does not apply, or when k >= n - 1;
    - dense subset (LAPACK evr, index range) when n <= dense_limit,
      n >= SUBSET_MIN_N and SUBSET_RATIO * k <= n: computes only the top
      pairs, not all n columns;
    - Lanczos (ARPACK) with a fixed start vector above dense_limit.

    All three are deterministic: identical inputs give identical output
    bytes. The top-k eigenvalues are a bitwise prefix of the full spectrum
    only on the full dense route; the subset route agrees with it to
    rounding (about 1e-15), not bitwise.

    One pair beyond k is solved for (when k < n) so that a degenerate
    cluster cut off at rank k-1 is still flagged degenerate.
    """
    n = g.n
    if k is None:
        k = n
    if not 1 <= k <= n:
        raise InputError(f"k must be in 1..{n}, got {k}")
    m = min(k + 1, n)
    S = normalized_adjacency(g)  # raises IsolatedNode
    if n <= dense_limit or k >= n - 1:
        A = S.dense(limit=max(n, dense_limit))
        if n >= SUBSET_MIN_N and SUBSET_RATIO * k <= n:
            evals, Y = sla.eigh(A, subset_by_index=[n - m, n - 1], driver="evr")
        else:
            evals, Y = np.linalg.eigh(A)
    else:
        v0 = np.full(n, 1.0 / np.sqrt(n))
        try:
            evals, Y = spla.eigsh(S.matrix, k=m, which="LA", v0=v0)
        except spla.ArpackNoConvergence as exc:
            raise ConvergenceFailure(len(exc.eigenvalues)) from exc
    order = np.argsort(-evals, kind="stable")[:m]
    evals = evals[order]
    Y = Y[:, order]
    X = Y / np.sqrt(S.degrees)[:, None]
    X = X / np.linalg.norm(X, axis=0, keepdims=True)
    X = _sign_normalize(X)

    P = random_walk(g).matrix
    resid = np.linalg.norm(P @ X - X * evals[None, :], axis=0)
    bad = ~(resid <= RESIDUAL_TOL * n)  # a NaN residual fails too
    if np.any(bad):
        j = int(np.argmax(bad))
        raise ConvergenceFailure(j, float(resid[j]))

    gaps = evals[:-1] - evals[1:]
    clusters = np.concatenate([[0], np.cumsum(gaps >= DEGENERACY_TOL)])
    tail_cut = m > k and clusters[k] == clusters[k - 1]
    return Eigenbasis(evals[:k], X[:, :k], gaps[: k - 1], clusters[:k], bool(tail_cut))


def generalized_laplacian_eigs(
    g: WeightedGraph, k: int | None = None
) -> list[tuple[float, np.ndarray]]:
    """Solutions (mu, x) of L x = mu D x, ascending in mu.

    These are exactly (1 - lambda, x) over the random-walk eigenpairs.
    """
    basis = spectrum_random_walk(g, k)
    L = g.degrees[:, None] * basis.vectors - g.adjacency @ basis.vectors
    mus = 1.0 - basis.lambdas
    resid = np.linalg.norm(L - mus[None, :] * (g.degrees[:, None] * basis.vectors), axis=0)
    limit = RESIDUAL_TOL * g.n * g.degrees.max()
    bad = ~(resid <= limit)
    if np.any(bad):
        j = int(np.argmax(bad))
        raise ConvergenceFailure(j, float(resid[j]))
    # descending lambda is already ascending mu
    return [(float(mu), basis.vectors[:, j]) for j, mu in enumerate(mus)]


def normalized_square_spectrum(lambdas) -> np.ndarray:
    """f_i = lambda_i^2 / sum_j lambda_j^2; sums to one."""
    lam = np.asarray(lambdas, dtype=np.float64).ravel()
    if lam.size == 0:
        raise InputError("empty eigenvalue vector")
    total = float(np.sum(lam * lam))
    if total == 0.0:
        raise AllZeroSpectrum("all eigenvalues are zero")
    return lam * lam / total
