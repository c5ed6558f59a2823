"""Eigenvector localization diagnostics for graph operators.

Build Laplacian/random-walk operators from weighted graphs, compute spectra,
score localization per eigenvector (IPR) and per node (CSL), detect
localization transitions, partition along eigenvectors, and generate the
synthetic bead-chain families used to study all of it.

Submodules load on first use of one of their names (PEP 562), so importing
the package loads neither numpy nor scipy.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it; "errors" is the submodule itself
_HOME = {
    name: module
    for module, names in {
        "clustering": (
            "Partition", "TransitionReport", "detect_transition", "partition_agreement",
            "restrict_and_compare", "sign_cut", "sweep_cut",
        ),
        "diagnostics": ("AnalysisReport", "analyze", "group_mass_table"),
        "eigensolver": (
            "Eigenbasis", "generalized_laplacian_eigs", "normalized_square_spectrum",
            "spectrum_random_walk",
        ),
        "errors": ("errors",),
        "io": (
            "emit_report", "load_spec", "parse_graph", "parse_labels", "parse_migration",
            "save_spec", "spec_from_json", "spec_to_json", "write_graph", "write_labels",
        ),
        "localization": (
            "Histogram", "csl", "histogram", "ipr", "ipr_curve", "mass_concentration",
        ),
        "operators": (
            "MigrationInput", "OperatorMatrix", "WeightedGraph", "laplacian",
            "migration_similarity", "normalized_adjacency", "random_walk",
        ),
        "twolevel": (
            "ERBead", "GlobalRandom", "PathIdentity", "PathRandom", "TwoLevelSpec",
            "TwoModuleBead", "generate_bead_chain", "generate_er", "generate_grid",
            "generate_two_module", "matched_er_density", "tensor_block",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_HOME)


def __getattr__(name):
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(f".{home}", __name__)
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
