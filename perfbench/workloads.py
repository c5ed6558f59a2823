"""Workload definitions: bead-chain specs made from a seed.

Every workload uses chains of two-module beads (p1=0.2, p2=0.02) coupled by
`path_random`, analyzed with the bead labels and `--ranks 1,2`. They differ
in size, coupling and k, which decides the layer that does most of the work
(see README.md for the measured split):

- dense_mid: n=4,000, k=100. Below the dense limit, so the eigensolver
  computes all 4,000 columns to keep 100; the solve is most of `analyze`.
- lanczos_large: n=10,000, k=100. ARPACK path; MatrixMarket parsing and
  report emission are about half of `analyze`.
- small_full: three n=400 chains, coupling p in {0.002, 0.01, 0.05} (the
  paper's coupling sweep), k=400. Process start, import and writing
  805 report files per graph dominate; the full-spectrum dense solve is
  the case a solver switch must not slow down.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

P1, P2 = 0.2, 0.02
RANKS = (1, 2)
WINDOW, TAU, NBINS = 10, 5.0, 50  # the CLI's analyze defaults


@dataclass(frozen=True)
class Workload:
    name: str
    beads: int
    module_size: int  # nodes per module; a bead has two
    couplings: tuple[float, ...]  # one chain per coupling value
    k: int

    @property
    def n(self) -> int:
        return self.beads * 2 * self.module_size


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dense_mid", beads=8, module_size=250, couplings=(0.002,), k=100),
        Workload("lanczos_large", beads=20, module_size=250, couplings=(0.002,), k=100),
        Workload("small_full", beads=4, module_size=50, couplings=(0.002, 0.01, 0.05), k=400),
    )
}


def chain_doc(w: Workload, coupling: float, chain_seed: int) -> dict:
    bead = {"kind": "two_module", "n1": w.module_size, "n2": w.module_size,
            "p1": P1, "p2": P2}
    return {
        "beads": [bead] * w.beads,
        "interaction": {"kind": "path_random", "p": coupling},
        "seed": chain_seed,
    }


def chain_docs(w: Workload, seed: int, has_isolated_node) -> list[dict]:
    """One spec document per coupling value, all derived from `seed`.

    The random-walk operator is undefined on a node of degree zero and the
    program rejects such a graph as bad input (exit 2), so a chain seed whose
    graph has one is skipped for the next seed of the same deterministic
    sequence. At n=400 about one graph in 500 has an isolated node; the
    larger workloads practically never do.
    """
    docs = []
    for chain, coupling in enumerate(w.couplings):
        for attempt in range(100):
            state = np.random.SeedSequence([seed, chain, attempt]).generate_state(1)
            doc = chain_doc(w, coupling, int(state[0]))
            if not has_isolated_node(doc):
                docs.append(doc)
                break
        else:
            raise RuntimeError(f"no valid chain for seed {seed}, chain {chain}")
    return docs
