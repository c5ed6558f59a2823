"""Benchmark of the eigenloc CLI end to end, and of its layers in a traced run.

Run from the root of a checkout (the program is imported from ./src):

    python3 perfbench/run.py --workload dense_mid --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

--trace 0 drives `eigenloc generate` and `eigenloc analyze` children and
reports the end-to-end metrics; --trace 1 calls each layer in-process under
spans and reports the per-layer metrics. `--workload all` runs every
workload, one after another. The output ends with one JSON line:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The full record (environment, samples, spans) goes to perfbench/results/.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _describe(m: dict, unit: str) -> str:
    tail = m["tail"]
    tail_text = f"p{tail[0]:g} {tail[1]:.6g}" if tail else "no tail percentile"
    return f"{m['median']:.6g} {unit} (median of {m['n']}; {tail_text})"


def run_workload(name: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    import numpy as np

    from eigenloc.twolevel import generate_bead_chain
    from eigenloc.io import spec_from_json
    from workloads import WORKLOADS, chain_docs

    def has_isolated_node(doc) -> bool:
        return bool(np.any(generate_bead_chain(spec_from_json(doc)).degrees <= 0))

    w = WORKLOADS[name]
    docs = chain_docs(w, seed, has_isolated_node)
    work = HERE / ".work" / f"{name}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if trace:
            from tracing import run_traced
            result = run_traced(w, docs, seconds, work, env, seed)
        else:
            from e2e import run_e2e
            result = run_e2e(w, docs, seconds, work, env, seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["chains"] = docs
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="dense_mid, lanczos_large, small_full or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "eigenloc" / "cli.py").is_file():
        print(f"error: no eigenloc sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    # before anything imports numpy: BLAS reads these once, at load
    from measure import cap_blas_threads, environment
    cap_blas_threads(os.environ)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        ap.error(f"unknown workload {args.workload!r}")

    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace), dict(os.environ))
        res["environment"] = env
        res_dir = HERE / "results"
        res_dir.mkdir(exist_ok=True)
        (res_dir / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(res, indent=1, default=str))

        for metric, m in res["metrics"].items():
            print(f"{name:14s} {metric:34s} {_describe(m, res['units'][metric])}")
        print(f"{name:14s} {'fail_frac':34s} {res['failed'] / res['attempted']:.6g} ratio "
              f"({res['failed']} failed of {res['attempted']} attempted)")
        for metric, v in sorted(res.get("self_s", {}).items()):
            print(f"{name:14s} span {metric:29s} total {v['total_s']:.6g} s, "
                  f"self {v['self_s']:.6g} s (median per graph)")
        for p in res["problems"]:
            print(f"{name}: FAILED {p}", file=sys.stderr)

        prefix = f"{name}." if len(names) > 1 else ""
        out["attempted"] += res["attempted"]
        out["failed"] += res["failed"]
        out["correct"] = out["correct"] and res["failed"] == 0
        for metric, m in res["metrics"].items():
            out["metrics"][prefix + metric] = {"value": m["median"],
                                               "unit": res["units"][metric]}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
