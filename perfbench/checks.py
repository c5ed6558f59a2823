"""Output checks: reference eigenvalues, report contents, rerun digests.

The reference solve reads the graph with scipy's own MatrixMarket reader and
uses a different routine from the program's: LAPACK's MRRR driver (`evr`)
on the dense symmetric operator for a full spectrum, and ARPACK's Arnoldi
iteration (`eigs`) on the non-symmetric P = D^-1 W from a random start
otherwise. The program uses LAPACK `syevd` (numpy `eigh`) or ARPACK's
symmetric Lanczos with a uniform start vector.
"""
from __future__ import annotations

import csv
import hashlib
from pathlib import Path

import numpy as np
import scipy.io
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

EIG_TOL = 1e-8  # all routines agree to ~1e-14 on these graphs


def reference_eigenvalues(mtx_path: Path, k: int, seed: int) -> np.ndarray:
    """Top-k eigenvalues of P = D^-1 W, descending."""
    W = scipy.io.mmread(mtx_path).tocsr()  # symmetric storage comes back full
    n = W.shape[0]
    d = np.asarray(W.sum(axis=1)).ravel()
    if k >= n - 1:
        half = sp.diags(1.0 / np.sqrt(d))
        S = (half @ W @ half).toarray()
        lam = sla.eigh(S, eigvals_only=True, driver="evr")
        return np.sort(lam)[::-1][:k]
    P = (sp.diags(1.0 / d) @ W).tocsr()
    v0 = np.random.default_rng(seed).random(n)
    lam = spla.eigs(P, k=k, which="LR", v0=v0, return_eigenvectors=False)
    if np.max(np.abs(lam.imag)) > EIG_TOL:
        raise RuntimeError("reference solve returned complex eigenvalues")
    return np.sort(lam.real)[::-1]


def expected_report_files(k: int) -> set[str]:
    names = {"spectrum.csv", "ipr.csv", "groups.csv", "transition.json", "partitions.json"}
    for j in range(k):
        names.update((f"eigvec_{j}.csv", f"hist_{j}.csv"))
    return names


def tree_digest(paths) -> str:
    """SHA-256 over (name, content) of the given files, in name order."""
    h = hashlib.sha256()
    for p in sorted(Path(x) for x in paths):
        h.update(p.name.encode() + b"\0")
        h.update(hashlib.sha256(p.read_bytes()).digest())
    return h.hexdigest()


def report_digest(report_dir: Path) -> str:
    return tree_digest(p for p in Path(report_dir).iterdir() if p.is_file())


def eigenvalue_problem(lambdas, reference) -> str | None:
    lam = np.asarray(lambdas, dtype=np.float64)
    if lam.shape != reference.shape:
        return f"{lam.size} eigenvalues reported, reference has {reference.size}"
    err = float(np.max(np.abs(lam - reference)))
    if not err <= EIG_TOL:
        return f"eigenvalues differ from the reference by {err:.3g} (tolerance {EIG_TOL:g})"
    return None


def report_problems(report_dir: Path, k: int, reference: np.ndarray) -> list[str]:
    """Missing files and eigenvalue mismatches in one report directory."""
    report_dir = Path(report_dir)
    present = {p.name for p in report_dir.iterdir()} if report_dir.is_dir() else set()
    missing = sorted(expected_report_files(k) - present)
    if missing:
        return [f"{len(missing)} report files missing, first {missing[0]}"]
    with open(report_dir / "spectrum.csv", newline="") as f:
        lam = [float(row["eigenvalue"]) for row in csv.DictReader(f)]
    problem = eigenvalue_problem(lam, reference)
    return [problem] if problem else []
