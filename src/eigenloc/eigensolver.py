"""Spectra of the random-walk operator via its symmetric similarity transform.

P = D^-1 W is similar to S = D^(-1/2) W D^(-1/2): if S y = lambda y then
x = D^(-1/2) y solves P x = lambda x. Solving the symmetric problem keeps the
spectrum real and the returned basis D-orthogonal. Columns are renormalized
to unit L2 because every localization measure downstream assumes
sum(v_i^2) = 1.
"""
from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .errors import AllZeroSpectrum, ConvergenceFailure, InputError
from .operators import (
    DENSE_LIMIT,
    WeightedGraph,
    _normalized_csr,
    _require_positive_degrees,
)

# bound on ||S y - lambda y|| for a unit y; ||S||_2 = 1, so this is a
# backward error and needs no scaling with n
RESIDUAL_TOL = 1e-8
DEGENERACY_TOL = 1e-9  # eigenvalues closer than this form one cluster
# Route thresholds (see spectrum_random_walk). Below SUBSET_MIN_N nodes a
# full solve costs less than process start; above k = n / SUBSET_RATIO the
# evr subset solve stops winning against it (measured crossover between n/8
# and n/4); at k <= n / LANCZOS_RATIO Lanczos beats evr. evr / Lanczos seconds
# for a whole spectrum_random_walk (best of 2, 2 BLAS threads, 2-core VM):
#   bead chains n=1,000: k=25 0.17/0.05, k=50 0.19/0.09, k=100 0.19/0.18, k=125 0.21/0.20
#               n=2,000: k=50 0.60/0.24, k=100 0.67/0.49, k=200 0.85/0.76, k=250 1.04/0.99,
#                        k=400 1.25/1.60
#               n=4,000: k=100 3.89/0.78, k=200 4.52/1.99, k=500 6.33/5.71, k=800 8.71/11.25
#   tori        n=1,024: k=51 0.58/0.15, k=102 0.38/0.42, k=128 0.58/0.75
#               n=2,025: k=202 0.69/0.88, k=253 0.71/1.16
# Bead chains would move the crossover to n/8, tori keep it below n/10, and
# evr is exact on the multiplicities a torus has, so it stays at n/20.
SUBSET_MIN_N = 1000
SUBSET_RATIO = 8
LANCZOS_RATIO = 20
# Lanczos start vector seed: a fixed pseudo-random start keeps runs
# reproducible and, unlike a uniform one, is not invariant under the
# graph's symmetries, whose antisymmetric eigenvectors it would never reach;
# START_SEED + 1 seeds the vectors that continue a basis after a breakdown
START_SEED = 20110601
# _lanczos: a Ritz pair has converged when |beta q_{p,i}| <= LANCZOS_TOL
# (||S||_2 = 1, so this is a backward error), and beta <= LANCZOS_TOL is a
# breakdown; MAX_RESTARTS caps the restarts; the returned vectors must be
# orthonormal to ORTH_TOL
LANCZOS_TOL = 1e-13
MAX_RESTARTS = 1000
ORTH_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Eigenbasis:
    """Eigenpairs of the random-walk operator, descending by eigenvalue.

    vectors[:, j] is the rank-j eigenvector, unit L2, sign-normalized so its
    largest-magnitude entry is positive. clusters[j] groups ranks whose
    eigenvalues sit within the degeneracy tolerance of their neighbors;
    localization inside such a cluster is basis-dependent, so downstream
    reports flag it. tail_cut is True when the cluster of rank k-1 has
    partners beyond rank k-1 that were solved for but not returned.
    solves holds one (route, n, m) per connected component, in component
    order: the route _solve_block took ("lanczos", "evr" or "full"), the
    component's size and the number of pairs solved for.
    """

    lambdas: np.ndarray
    vectors: np.ndarray
    gaps: np.ndarray
    clusters: np.ndarray
    tail_cut: bool = False
    solves: tuple = field(default=(), repr=False)

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


def _sign_normalize(x: np.ndarray) -> None:
    # largest-|entry| positive, in place; argmax takes the lowest index on ties.
    # Adding 0.0 turns a flipped zero's -0.0 into 0.0 and changes nothing else.
    if x[np.argmax(np.abs(x))] < 0:
        x *= -1.0
        x += 0.0


def _release_heap() -> None:
    """Hand the C heap's free pages back to the OS: glibc's malloc_trim(0),
    a no-op where the C library has none. glibc's mmap threshold rises as
    large arrays are freed, so the temporaries of parsing and of the CSR
    build otherwise stay resident underneath the Lanczos basis."""
    import ctypes

    try:
        trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    except OSError:
        return
    if trim is not None:
        trim(0)


@cache
def _openblas_threads():
    """numpy's OpenBLAS thread-count (get, set) functions, or None where
    neither pair is found: scipy-openblas's prefixed names, then OpenBLAS's
    own ILP64 ones, looked up through numpy.linalg._umath_linalg, which links
    that OpenBLAS."""
    import ctypes

    from numpy.linalg import _umath_linalg

    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return None
    for prefix in ("scipy_openblas_", "openblas_"):
        get = getattr(lib, prefix + "get_num_threads64_", None)
        put = getattr(lib, prefix + "set_num_threads64_", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


@contextmanager
def _blas_threads(count: int):
    """Run the block with numpy's BLAS on `count` threads, and give the
    caller's count back when it ends, also by an exception; nothing changes
    where _openblas_threads finds no setter."""
    pair = _openblas_threads()
    if pair is None:
        yield
        return
    get, put = pair
    before = get()
    put(count)
    try:
        yield
    finally:
        put(before)


@cache
def _sparsetools():
    """scipy's compiled sparse kernels, scipy.sparse._sparsetools, loaded once
    from its file in the installed scipy package. find_spec("scipy") only
    locates the package, so neither scipy nor scipy.sparse is imported.

    The extension is taken out of sys.modules again once loaded: found there,
    a later `import scipy.sparse` would not bind it as that package's
    _sparsetools attribute.
    """
    import importlib.machinery as im
    import importlib.util

    name = "scipy.sparse._sparsetools"
    if name in sys.modules:  # scipy.sparse is imported already
        return sys.modules[name]
    scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
    finder = im.FileFinder(
        os.path.join(scipy_dir, "sparse"), (im.ExtensionFileLoader, im.EXTENSION_SUFFIXES)
    )
    spec = finder.find_spec(name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(name, None)
    return module


class _CSROperator:
    """The n x n float64 CSR matrix (data, indices, indptr) as _normalized_csr
    returns it, for _lanczos and the residual check. A @ x, for a vector x,
    is csr_matvec into an np.zeros output: bitwise csr_matrix's product."""

    def __init__(self, n: int, data: np.ndarray, indices: np.ndarray, indptr: np.ndarray):
        self.shape = (n, n)
        self.data, self.indices, self.indptr = data, indices, indptr

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        n = self.shape[0]
        y = np.zeros(n)
        _sparsetools().csr_matvec(n, n, self.indptr, self.indices, self.data, x, y)
        return y


def _lanczos(A, m: int, v0: np.ndarray):
    """Top m eigenpairs of the symmetric n x n CSR operator A with ||A||_2 <=
    1, by thick-restart Lanczos (Wu & Simon 2000, SIAM J. Matrix Anal. Appl.
    22:602) with partial reorthogonalization (Simon 1984, Math. Comp.
    42:115) and hard locking, started from v0. The pairs come in the order
    of V's rows: the locked ones in the order they were locked, then the
    rest descending.

    The basis V holds p = min(n, max(2m+1, 60)) vectors as rows; the floor
    of 60 keeps clustered top spectra, such as a long path's, from
    stalling. Each restart keeps the top keep = m + (p-m)//5 Ritz vectors,
    rotated in place in blocks of rows, plus the residual direction, so T
    is an arrowhead followed by a tridiagonal.

    Locking (Lehoucq & Sorensen 1996, SIAM J. Matrix Anal. Appl. 17:789): at
    each restart the converged top prefix of the active Ritz pairs (|beta
    q_{p,i}| <= LANCZOS_TOL) moves to the next fixed leading rows of V,
    descending, and is never rotated again. Their arrowhead entries, at most
    LANCZOS_TOL, are dropped from T, and the Rayleigh-Ritz step diagonalizes
    T's active block alone; Gram-Schmidt and the omega-recurrence still run
    against the locked rows. No restart locks the m-th pair: a restart that
    finds all m converged ends the solve.

    The first step of each cycle (T's arrowhead row) makes a classical
    Gram-Schmidt pass against V (two GEMVs), and a second when beta <
    1e-3 ||A v_j||. Every later step takes the three-term recurrence alone
    and tracks the loss of orthogonality with Simon's omega-recurrence, run
    on T's rows: beta_j omega_{j+1} = T[:j, :j+1] omega_j - alpha_j omega_j
    - beta_{j-1} omega_{j-1}, taken in absolute value with eps sqrt(n) of
    rounding per step, so it bounds |V[:j+1] . v_{j+1}|. It restarts at
    1e-10 after a thick restart, the level the rotated basis keeps. When
    the bound passes 1e-10, or on cancellation (beta < 1e-3 ||A v_j||), v_j
    is reorthogonalized against V[:j] and w against V[:j+1]: about half a
    full-basis pass per step on the 4,000- and 10,000-node bead chains.

    On a breakdown (beta <= LANCZOS_TOL, an invariant subspace) the basis
    continues from a seeded random vector orthogonalized against V, and
    every later step of the solve makes the full pass, with a second one
    whenever beta < 1e-3 ||A v_j|| and, once a coefficient outside T's
    structure has exceeded 1e-12 ||A v_j||, on every step: the basis has
    started to lose orthogonality, and one pass would carry the loss
    forward. ConvergenceFailure of kind "restarts" after MAX_RESTARTS
    restarts, naming the first rank (descending) not converged, or of kind
    "orthogonality" when the returned vectors are not orthonormal to
    ORTH_TOL, naming the first row that is not.

    The C heap's free pages go back to the OS just before V is allocated
    (_release_heap), and V is cut to its first m rows in place at the end;
    the returned vectors are V's rows, as the columns of V.T.
    """
    n = A.shape[0]
    p = min(n, max(2 * m + 1, 60))
    keep = m + (p - m) // 5
    _release_heap()
    V = np.empty((p + 1, n))  # V[p] holds the residual direction
    T = np.zeros((p, p))
    lam = np.empty(m)  # lam[:locked] holds the locked pairs' values
    V[0] = v0 / np.linalg.norm(v0)
    rng = np.random.default_rng(START_SEED + 1)
    eps = np.finfo(float).eps * np.sqrt(n)  # rounding added to omega per step
    om = np.ones(1)  # omega_j: om[i] bounds |V[i] . V[j]| for i < j, om[j] = 1
    start, locked, careful, full = 0, 0, False, False
    for _ in range(MAX_RESTARTS):
        for j in range(start, p):
            w = A @ V[j]
            norm = np.linalg.norm(w)
            if full or j == start:
                h = V[: j + 1] @ w
                w -= h @ V[: j + 1]
                lo = 0 if j == start else j - 1  # h[lo:] is T's row: arrowhead, else tridiagonal
                careful = careful or (lo > 0 and np.abs(h[:lo]).max() > 1e-12 * norm)
                beta = np.linalg.norm(w)
                if careful or beta < 1e-3 * norm:
                    h2 = V[: j + 1] @ w
                    w -= h2 @ V[: j + 1]
                    h[j] += h2[j]
                    beta = np.linalg.norm(w)
                alpha = h[j]
                om_next = np.full(j + 2, 1e-10 if j else eps)  # the kept vectors' level
            else:
                w -= T[j, j - 1] * V[j - 1]
                alpha = V[j] @ w
                w -= alpha * V[j]
                beta = np.linalg.norm(w)
                om_next = np.full(j + 2, eps)
                lost = beta < 1e-3 * norm or beta <= LANCZOS_TOL  # the latter also when A v_j = 0
                if not lost:  # Simon's recurrence, on T's rows (arrowhead and tridiagonal)
                    rec = T[:j, : j + 1] @ om - alpha * om[:j] - T[j, j - 1] * om_prev
                    om_next[:j] = (np.abs(rec) + eps) / beta
                    lost = not om_next[:j].max() <= 1e-10
                if lost:  # both, or the next three-term step would carry v_j's loss into w
                    V[j] -= (V[:j] @ V[j]) @ V[:j]
                    V[j] /= np.linalg.norm(V[j])
                    h2 = V[: j + 1] @ w
                    w -= h2 @ V[: j + 1]
                    alpha += h2[j]
                    beta = np.linalg.norm(w)
                    om[:j] = om_next[:j] = eps
            om_next[j + 1] = 1.0
            om_prev, om = om, om_next
            T[j, j] = alpha
            if beta <= LANCZOS_TOL:
                beta, full = 0.0, True
                if j + 1 == n:  # V spans the whole space
                    break
                w = rng.standard_normal(n)
                for _ in range(2):
                    w -= (V[: j + 1] @ w) @ V[: j + 1]
                w /= np.linalg.norm(w)
            else:
                w /= beta
            V[j + 1] = w
            if j + 1 < p:
                T[j, j + 1] = T[j + 1, j] = beta
        theta, Q = np.linalg.eigh(T[locked:, locked:])  # the active block
        theta, Q = theta[::-1], Q[:, ::-1]  # descending
        converged = np.abs(beta * Q[-1, : m - locked]) <= LANCZOS_TOL
        r = m if converged.all() else keep
        rotate = np.ascontiguousarray(Q[:, : r - locked].T)
        for a in range(0, n, 1024):  # an r x 1024 temporary at a time
            V[locked:r, a : a + 1024] = rotate @ V[locked:p, a : a + 1024]
        if r == m:
            lam[locked:] = theta[: m - locked]
            break
        new = locked + int(np.argmin(converged))  # the converged top prefix
        T[:] = 0.0
        T[np.arange(keep), np.arange(keep)] = np.concatenate([lam[:locked], theta[: keep - locked]])
        T[keep, new:keep] = T[new:keep, keep] = beta * Q[-1, new - locked : keep - locked]
        lam[locked:new] = theta[: new - locked]
        locked = new
        V[keep] = V[p]
        start = keep
        om = np.append(np.full(keep, 1e-10), 1.0)  # the rotated basis is not orthogonal to eps
    else:
        raise ConvergenceFailure(locked, kind="restarts")  # the first rank not converged
    # no view of V is alive (products read it through temporaries); a profiler's frame may hold V
    V.resize((m, n), refcheck=False)  # in place: the rows past m go back to the allocator
    Y = V.T  # column-major
    off = np.abs(Y.T @ Y - np.eye(m)).max(axis=0)
    if not off.max() <= ORTH_TOL:  # a NaN fails too; rows are in rank order
        raise ConvergenceFailure(int(np.argmax(~(off <= ORTH_TOL))), kind="orthogonality")
    return lam, Y


def _solve_block(n: int, rows, cols, w, h, m: int, dense_limit: int):
    """Top m eigenpairs of the block of S on n nodes whose edges (rows, cols,
    w) come in canonical order, h = 1/sqrt(d) per node, by the route the
    block's size picks, with each pair's residual ||A y - lambda y|| and the
    solve's (route, n, m); m is k + 1, or n when k >= n - 1. Every route
    builds S's CSR; the dense routes scatter it into their n x n block. On
    the Lanczos route Y is the basis itself, cut to its first m rows and
    transposed, and each residual is one vector product, on a row of Y.T."""
    k = m - 1
    data, indices, indptr = _normalized_csr(n, rows, cols, w, h)
    if m < n and (n > dense_limit or (n >= SUBSET_MIN_N and LANCZOS_RATIO * k <= n)):
        route, A = "lanczos", _CSROperator(n, data, indices, indptr)
        # its GEMVs are too small to share: a second thread spins through every product
        with _blas_threads(1):
            lam, Y = _lanczos(A, m, np.random.default_rng(START_SEED).standard_normal(n))
        resid = np.array([np.linalg.norm(A @ y - t * y) for t, y in zip(lam.tolist(), Y.T)])
    else:
        A = np.zeros((n, n))
        A[np.repeat(np.arange(n), np.diff(indptr)), indices] = data
        del data, indices, indptr  # freed before LAPACK allocates its workspace
        route = "evr" if m < n and n >= SUBSET_MIN_N and SUBSET_RATIO * k <= n else "full"
        if route == "evr":
            import scipy.linalg as sla

            lam, Y = sla.eigh(A, subset_by_index=[n - m, n - 1], driver="evr")
        else:
            lam, Y = np.linalg.eigh(A)
            if m < n:  # only these can enter the merge's top m; keep their order
                keep = np.sort(np.argsort(-lam, kind="stable")[:m])
                lam, Y = lam[keep], Y[:, keep]
        R = A @ Y  # the n x m temporaries are small beside A
        R -= Y * lam
        resid = np.linalg.norm(R, axis=0)
    return lam, Y, resid, (route, n, m)


def _solve_components(g: WeightedGraph, m: int, dense_limit: int):
    """Top m eigenpairs of S, descending, and the (route, n, m) of each
    component's _solve_block, in component order.

    A connected graph is one block on the graph's own edge arrays. Otherwise
    each component's edges are cut out of them and renumbered 0..size-1 in
    node order. Components are numbered by their lowest node, and the merge
    keeps that order among equal eigenvalues (the final sort is stable).
    Every merged pair must pass its residual check; a failure names its
    merged rank.
    """
    h = 1.0 / np.sqrt(_require_positive_degrees(g))  # raises IsolatedNode
    ncomp, labels = g.components
    perm = np.argsort(labels, kind="stable")
    bounds = np.concatenate([[0], np.cumsum(np.bincount(labels, minlength=ncomp))])
    if ncomp == 1:
        blocks = [(g.rows, g.cols, g.weights)]
    else:
        local = np.empty(g.n, dtype=np.int64)
        local[perm] = np.arange(g.n) - bounds[labels[perm]]
        order = np.argsort(labels[g.rows], kind="stable")
        ebounds = np.searchsorted(labels[g.rows][order], np.arange(ncomp + 1)).tolist()
        rows, cols, w = local[g.rows][order], local[g.cols][order], g.weights[order]
        blocks = [(rows[e:f], cols[e:f], w[e:f]) for e, f in zip(ebounds[:-1], ebounds[1:])]
    parts = [
        _solve_block(b - a, *edges, h[perm[a:b]], min(m, b - a), dense_limit)
        for a, b, edges in zip(bounds[:-1].tolist(), bounds[1:].tolist(), blocks)
    ]
    evals = np.concatenate([lam for lam, *_ in parts])
    comp = np.repeat(np.arange(ncomp), [lam.size for lam, *_ in parts])
    col = np.concatenate([np.arange(lam.size) for lam, *_ in parts])
    top = np.argsort(-evals, kind="stable")[:m]
    resid = np.concatenate([r for _, _, r, _ in parts])[top]
    bad = ~(resid <= RESIDUAL_TOL)  # a NaN residual fails too
    if np.any(bad):
        j = int(np.argmax(bad))
        raise ConvergenceFailure(j, float(resid[j]))
    # column-major: with a row-major Y the column norms below differ in the last bit
    Y = np.zeros((g.n, top.size), order="F")
    for j, (c, i) in enumerate(zip(comp[top].tolist(), col[top].tolist())):
        Y[perm[bounds[c] : bounds[c + 1]], j] = parts[c][1][:, i]
    return evals[top], Y, tuple(solve for *_, solve in parts)


def _check_k(n: int, k: int) -> None:
    """spectrum_random_walk's check of k, which callers make first of all."""
    if not 1 <= k <= n:
        raise InputError(f"k must be in 1..{n}, got {k}")


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

    - thick-restart Lanczos (_lanczos) on the sparse matrix, multiplied by
      scipy's compiled CSR kernel without importing scipy.sparse, when
      n > dense_limit, or when n >= SUBSET_MIN_N and LANCZOS_RATIO * k <= n
      (k <= n / 20);
    - dense subset (LAPACK evr, index range) when n >= SUBSET_MIN_N and
      SUBSET_RATIO * k <= n otherwise (n / 20 < k <= n / 8);
    - full dense (LAPACK syevd via numpy) for the rest, and whenever
      k >= n - 1.

    Lanczos starts from a fixed-seed pseudo-random vector. All routes are
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
    _check_k(n, k)
    m = min(k + 1, n)
    evals, X, solves = _solve_components(g, m, dense_limit)
    root = np.sqrt(g.degrees)
    for x in X.T:  # a column at a time: no n x m temporaries
        x /= root  # D^-1/2 y
        x /= np.sqrt(np.add.reduce(x * x))  # bitwise norm(X, axis=0) on a column-major X
        _sign_normalize(x)
    gaps = evals[:-1] - evals[1:]
    clusters = np.concatenate([[0], np.cumsum(gaps >= DEGENERACY_TOL)])
    tail_cut = m > k and clusters[k] == clusters[k - 1]
    return Eigenbasis(evals[:k], X[:, :k], gaps[: k - 1], clusters[:k], bool(tail_cut), solves)


def generalized_laplacian_eigs(
    g: WeightedGraph, k: int | None = None
) -> list[tuple[float, np.ndarray]]:
    """Solutions (mu, x) of L x = mu D x, ascending in mu.

    These are exactly (1 - lambda, x) over the random-walk eigenpairs, and
    need no check of their own: with x = D^-1/2 y / ||D^-1/2 y||,
    L x - mu D x = D^1/2 (lambda y - S y) / ||D^-1/2 y||, so
    ||L x - mu D x|| <= d_max ||S y - lambda y|| <= d_max RESIDUAL_TOL,
    which spectrum_random_walk enforces.
    """
    basis = spectrum_random_walk(g, k)
    # descending lambda is already ascending mu
    return [(float(1.0 - lam), basis.vectors[:, j]) for j, lam in enumerate(basis.lambdas)]


def normalized_square_spectrum(lambdas) -> np.ndarray:
    """f_i = lambda_i^2 / sum_j lambda_j^2; sums to one."""
    lam = np.asarray(lambdas, dtype=np.float64).ravel()
    if lam.size == 0:
        raise InputError("empty eigenvalue vector")
    total = float(np.sum(lam * lam))
    if total == 0.0:
        raise AllZeroSpectrum("all eigenvalues are zero")
    return lam * lam / total
