"""Eigenvector localization diagnostics for graph operators.

Build Laplacian/random-walk operators from weighted graphs, compute spectra,
score localization per eigenvector (IPR) and per node (CSL), detect
localization transitions, partition along eigenvectors, and generate the
synthetic bead-chain families used to study all of it.
"""

from . import errors
from .clustering import (
    Partition,
    TransitionReport,
    detect_transition,
    partition_agreement,
    restrict_and_compare,
    sign_cut,
    sweep_cut,
)
from .diagnostics import AnalysisReport, analyze, group_mass_table
from .eigensolver import (
    Eigenbasis,
    generalized_laplacian_eigs,
    normalized_square_spectrum,
    spectrum_random_walk,
)
from .io import (
    emit_report,
    load_spec,
    parse_graph,
    parse_labels,
    parse_migration,
    save_spec,
    spec_from_json,
    spec_to_json,
    write_graph,
    write_labels,
)
from .localization import (
    Histogram,
    csl,
    histogram,
    ipr,
    ipr_curve,
    mass_concentration,
)
from .operators import (
    MigrationInput,
    OperatorMatrix,
    WeightedGraph,
    laplacian,
    migration_similarity,
    normalized_adjacency,
    random_walk,
)
from .twolevel import (
    ERBead,
    GlobalRandom,
    PathIdentity,
    PathRandom,
    TwoLevelSpec,
    TwoModuleBead,
    generate_bead_chain,
    generate_er,
    generate_grid,
    generate_two_module,
    matched_er_density,
    tensor_block,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "Eigenbasis",
    "ERBead",
    "GlobalRandom",
    "Histogram",
    "MigrationInput",
    "OperatorMatrix",
    "Partition",
    "PathIdentity",
    "PathRandom",
    "TransitionReport",
    "TwoLevelSpec",
    "TwoModuleBead",
    "WeightedGraph",
    "analyze",
    "csl",
    "detect_transition",
    "emit_report",
    "errors",
    "generalized_laplacian_eigs",
    "generate_bead_chain",
    "generate_er",
    "generate_grid",
    "generate_two_module",
    "group_mass_table",
    "histogram",
    "ipr",
    "ipr_curve",
    "laplacian",
    "load_spec",
    "mass_concentration",
    "matched_er_density",
    "migration_similarity",
    "normalized_adjacency",
    "normalized_square_spectrum",
    "parse_graph",
    "parse_labels",
    "parse_migration",
    "partition_agreement",
    "random_walk",
    "restrict_and_compare",
    "save_spec",
    "sign_cut",
    "spec_from_json",
    "spec_to_json",
    "spectrum_random_walk",
    "sweep_cut",
    "tensor_block",
    "write_graph",
    "write_labels",
]
