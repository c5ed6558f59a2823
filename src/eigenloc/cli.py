"""Command-line interface.

Subcommands: generate, analyze, ipr, csl, sweep, transition,
compare-restriction, migration-kernel. Exit codes: 0 success, 2 bad input or
unreadable/unwritable files, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .errors import InputError, IoError, MissingLabels, NumericalError


def _labels_path(out: Path) -> Path:
    return out.with_suffix(".labels.csv")


def _emit_text(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _basis(args, g):
    """Top-k eigenbasis for a command: --k, else min(n, DEFAULT_K) widened to
    cover --rank, which must then lie in the computed range."""
    from .diagnostics import DEFAULT_K
    from .eigensolver import spectrum_random_walk

    rank = getattr(args, "rank", None)
    k = args.k if args.k is not None else min(g.n, max(DEFAULT_K, (rank or 0) + 1))
    basis = spectrum_random_walk(g, k)
    if rank is not None and not 0 <= rank < basis.k:
        raise InputError(f"rank {rank} outside computed range 0..{basis.k - 1}")
    return basis


def _parse_ranks(text: str | None) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(t) for t in text.split(",") if t.strip() != "")
    except ValueError:
        raise InputError(f"cannot parse rank list {text!r}") from None


def _cmd_generate(args) -> int:
    from . import io as eio
    from .twolevel import generate_bead_chain

    spec = eio.load_spec(args.spec)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    g = generate_bead_chain(spec)
    out = Path(args.out)
    eio.write_graph(g, out)
    print(out)
    if g.labels is not None:
        lp = _labels_path(out)
        eio.write_labels(g, lp)
        print(lp)
    return 0


def _load_graph(args):
    from . import io as eio

    return eio.parse_graph(args.graph, getattr(args, "labels", None))


def _cmd_analyze(args) -> int:
    from . import io as eio
    from .diagnostics import analyze

    g = _load_graph(args)
    report = analyze(
        g,
        k=args.k,
        sweep_ranks=_parse_ranks(args.ranks),
        window=args.window,
        tau=args.tau,
        nbins=args.bins,
    )
    for path in eio.emit_report(report, args.out):
        print(path)
    return 0


def _cmd_ipr(args) -> int:
    from . import io as eio
    from .localization import ipr_curve

    g = _load_graph(args)
    basis = _basis(args, g)
    _emit_text(eio.ipr_csv(basis, ipr_curve(basis)), args.out)
    return 0


def _cmd_csl(args) -> int:
    from . import io as eio

    g = _load_graph(args)
    basis = _basis(args, g)
    _emit_text(eio.eigvec_csv(basis.vectors[:, args.rank]), args.out)
    return 0


def _cmd_sweep(args) -> int:
    from . import io as eio
    from .clustering import sweep_cut

    g = _load_graph(args)
    basis = _basis(args, g)
    part = sweep_cut(basis.vectors[:, args.rank], g)
    _emit_text(eio.partition_json(args.rank, part) + "\n", args.out)
    return 0


def _cmd_transition(args) -> int:
    from . import io as eio
    from .clustering import detect_transition
    from .localization import ipr_curve

    g = _load_graph(args)
    basis = _basis(args, g)
    report = detect_transition(ipr_curve(basis), window=args.window, factor=args.tau)
    _emit_text(eio.transition_json(report, args.window, args.tau), args.out)
    return 0


def _cmd_compare_restriction(args) -> int:
    from . import io as eio
    from .clustering import partition_agreement, restrict_and_compare, sweep_cut

    if args.group < 0:
        raise InputError(f"group must be >= 0, got {args.group}")
    g = _load_graph(args)
    if g.labels is None:
        raise MissingLabels("compare-restriction needs a label sidecar (--labels)")
    subset = (g.labels == args.group).nonzero()[0]
    if subset.size == 0:
        raise MissingLabels(f"no node carries group {args.group}")
    basis = _basis(args, g)
    dist, v_r, v_l = restrict_and_compare(basis.vectors[:, args.rank], subset, g)
    sub = g.subgraph(subset)
    cut_r = sweep_cut(v_r, sub)
    cut_l = sweep_cut(v_l, sub)
    identical = partition_agreement(cut_r, cut_l) == 1.0
    text = eio.restriction_json(args.rank, args.group, len(subset), dist, identical, cut_r, cut_l)
    _emit_text(text, args.out)
    return 0


def _cmd_migration_kernel(args) -> int:
    from . import io as eio
    from .operators import migration_similarity

    m = eio.parse_migration(args.flows, args.populations)
    g = migration_similarity(m)
    eio.write_graph(g, args.out)
    print(args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="eigenloc",
        description="Eigenvector localization diagnostics for graph operators.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def graph_arg(p):
        p.add_argument("graph", help="MatrixMarket graph file")
        p.add_argument("--labels", help="label sidecar CSV (node_id,group_id[,subgroup_id])")

    p = sub.add_parser("generate", help="generate a bead-chain graph from a JSON spec")
    p.add_argument("spec", help="chain spec JSON")
    p.add_argument("--out", required=True, help="output graph path (.mtx)")
    p.add_argument("--seed", type=int, help="override the spec's seed")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("analyze", help="full report: spectrum, IPR, transitions, partitions")
    graph_arg(p)
    p.add_argument("--out", required=True, help="report directory")
    p.add_argument("--k", type=int, help="eigenpairs to compute (default min(n, 100))")
    p.add_argument("--ranks", help="comma-separated ranks to sweep-cut")
    p.add_argument("--bins", type=int, default=50, help="histogram bins (default 50)")
    p.add_argument("--tau", type=float, default=5.0, help="transition jump factor")
    p.add_argument("--window", type=int, default=10, help="transition baseline window")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("ipr", help="IPR curve as CSV")
    graph_arg(p)
    p.add_argument("--k", type=int)
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_ipr)

    p = sub.add_parser("csl", help="per-node leverage of one eigenvector")
    graph_arg(p)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_csl)

    p = sub.add_parser("sweep", help="minimum-conductance sweep cut of one eigenvector")
    graph_arg(p)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("transition", help="localization transition detection")
    graph_arg(p)
    p.add_argument("--k", type=int)
    p.add_argument("--tau", type=float, default=5.0)
    p.add_argument("--window", type=int, default=10)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_transition)

    p = sub.add_parser(
        "compare-restriction",
        help="compare an eigenvector restricted to a group against the group's own spectrum",
    )
    graph_arg(p)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--group", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_compare_restriction)

    p = sub.add_parser("migration-kernel", help="similarity graph from flows and populations")
    p.add_argument("flows", help="integer MatrixMarket flow matrix")
    p.add_argument("populations", help="CSV node_id,population")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_migration_kernel)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, IoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # e.g. a MatrixMarket size line declaring more nodes than fit in memory
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
