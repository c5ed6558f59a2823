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

from .errors import AllZeroSpectrum, ConvergenceFailure, InputError
from .operators import DENSE_LIMIT, WeightedGraph, normalized_adjacency

# bound on ||S y - lambda y|| for a unit y; ||S||_2 = 1, so this is a
# backward error and needs no scaling with n
RESIDUAL_TOL = 1e-8
DEGENERACY_TOL = 1e-9  # eigenvalues closer than this form one cluster
# Route thresholds (see spectrum_random_walk). Below SUBSET_MIN_N nodes a
# full solve costs less than process start; above k = n / SUBSET_RATIO the
# evr subset solve stops winning against it (measured crossover between n/8
# and n/4); at k <= n / ARPACK_RATIO ARPACK beats evr. evr / ARPACK seconds
# on bead chains (best of 2, 2 BLAS threads, 2-core VM):
#   n=2,000: k=50 0.48/0.17, k=100 0.52/0.54, k=125 0.58/0.70
#   n=4,000: k=50 3.38/0.39, k=100 3.57/0.91, k=125 3.71/1.29, k=250 4.39/3.88
SUBSET_MIN_N = 1000
SUBSET_RATIO = 8
ARPACK_RATIO = 20
# ARPACK start vector seed: a fixed pseudo-random start keeps runs
# reproducible and, unlike a uniform one, is not invariant under the
# graph's symmetries, whose antisymmetric eigenvectors it would never reach
START_SEED = 20110601


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


def _solve_block(A, m: int, dense_limit: int) -> tuple[np.ndarray, np.ndarray]:
    """Top m eigenpairs of the symmetric n x n block A, in any order, by the
    route the block's size picks; m is k + 1, or n when k >= n - 1."""
    n = A.shape[0]
    k = m - 1
    if m < n and (n > dense_limit or (n >= SUBSET_MIN_N and ARPACK_RATIO * k <= n)):
        import scipy.sparse.linalg as spla

        v0 = np.random.default_rng(START_SEED).standard_normal(n)
        try:
            return spla.eigsh(A, k=m, which="LA", v0=v0)
        except spla.ArpackNoConvergence as exc:
            raise ConvergenceFailure(len(exc.eigenvalues)) from exc
        except spla.ArpackError as exc:  # e.g. error 3, "No shifts could be applied"
            fail = ConvergenceFailure(0)
            fail.args = (str(exc),)  # ARPACK's own "ARPACK error <info>: <text>"
            raise fail from exc
    if m < n and n >= SUBSET_MIN_N and SUBSET_RATIO * k <= n:
        import scipy.linalg as sla

        return sla.eigh(A.toarray(), subset_by_index=[n - m, n - 1], driver="evr")
    return np.linalg.eigh(A.toarray())


def _solve_components(S, ncomp: int, labels: np.ndarray, m: int, dense_limit: int):
    """Top m eigenpairs of S, descending, one _solve_block per connected component.

    S is permuted once so each component is a contiguous diagonal block.
    Components are numbered by their lowest node, and the merge keeps that
    order among equal eigenvalues (the final sort is stable).
    """
    perm = np.argsort(labels, kind="stable")
    bounds = np.concatenate([[0], np.cumsum(np.bincount(labels, minlength=ncomp))])
    B = S[perm][:, perm]
    parts = [
        _solve_block(B[a:b, a:b], min(m, b - a), dense_limit)
        for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist())
    ]
    evals = np.concatenate([lam for lam, _ in parts])
    comp = np.repeat(np.arange(ncomp), [lam.size for lam, _ in parts])
    col = np.concatenate([np.arange(lam.size) for lam, _ in parts])
    top = np.argsort(-evals, kind="stable")[:m]
    # column-major: with a row-major Y the column norms below differ in the last bit
    Y = np.zeros((S.shape[0], top.size), order="F")
    for j, (c, i) in enumerate(zip(comp[top].tolist(), col[top].tolist())):
        Y[perm[bounds[c] : bounds[c + 1]], j] = parts[c][1][:, i]
    return evals[top], Y


def spectrum_random_walk(
    g: WeightedGraph,
    k: int | None = None,
    dense_limit: int = DENSE_LIMIT,
) -> Eigenbasis:
    """Top-k eigenpairs of P = D^-1 W (default: all of them).

    Each connected component is solved on its own (a connected graph makes
    one call) and the results are merged by a stable descending sort, ties
    in the order of each component's lowest node. A component of n nodes
    solved for k + 1 pairs takes one of three routes:

    - Lanczos (ARPACK) on the sparse matrix when n > dense_limit, or when
      n >= SUBSET_MIN_N and ARPACK_RATIO * k <= n (k <= n / 20);
    - dense subset (LAPACK evr, index range) when n >= SUBSET_MIN_N and
      SUBSET_RATIO * k <= n otherwise (n / 20 < k <= n / 8);
    - full dense (LAPACK syevd via numpy) for the rest, and whenever
      k >= n - 1.

    ARPACK starts from a fixed-seed pseudo-random vector. All routes are
    deterministic: identical inputs give identical output bytes. The top-k
    eigenvalues are a bitwise prefix of the full spectrum only on the full
    dense route; the others agree with it to rounding, not bitwise.

    One pair beyond k is solved for (when k < n) so that a degenerate
    cluster cut off at rank k-1 is still flagged degenerate. Every pair must
    pass ||S y - lambda y|| <= RESIDUAL_TOL on the unit eigenvector y of
    S = D^-1/2 W D^-1/2, else ConvergenceFailure.
    """
    n = g.n
    if k is None:
        k = n
    if not 1 <= k <= n:
        raise InputError(f"k must be in 1..{n}, got {k}")
    m = min(k + 1, n)
    S = normalized_adjacency(g).matrix  # raises IsolatedNode
    evals, Y = _solve_components(S, *g.components, m, dense_limit)

    resid = np.linalg.norm(S @ Y - Y * evals[None, :], axis=0)
    bad = ~(resid <= RESIDUAL_TOL)  # a NaN residual fails too
    if np.any(bad):
        j = int(np.argmax(bad))
        raise ConvergenceFailure(j, float(resid[j]))

    X = Y / np.sqrt(g.degrees)[:, None]
    X = X / np.linalg.norm(X, axis=0, keepdims=True)
    X = _sign_normalize(X)
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
