"""Golden bytes for outputs that do not depend on the platform's LAPACK.

Generation draws from numpy's seeded streams and writes integers and
%.17g floats, and the migration kernel is a handful of IEEE products and
quotients, so these files are the same on every platform. Report
directories are not pinned here: their last digits follow the summation
order of the local BLAS/LAPACK build.
"""
import hashlib

import pytest

from eigenloc import (
    ERBead,
    GlobalRandom,
    PathIdentity,
    PathRandom,
    TwoLevelSpec,
    TwoModuleBead,
    cli,
    save_spec,
)

SPECS = {
    "path_random": TwoLevelSpec(
        (TwoModuleBead(6, 6, 0.9, 0.2), TwoModuleBead(6, 6, 0.9, 0.2)), PathRandom(0.2), seed=5
    ),
    "path_identity": TwoLevelSpec(
        (TwoModuleBead(4, 4, 0.9, 0.2, label=7), ERBead(8, 0.5)), PathIdentity(1 / 3), seed=1
    ),
    "global_random": TwoLevelSpec(
        (ERBead(10, 0.4), ERBead(7, 0.6, label=3), ERBead(5, 1.0)),
        GlobalRandom(0.05),
        seed=2**40 + 1,
    ),
}

# SHA-256 of (save_spec text, generated graph, generated labels)
GOLDEN = {
    "path_random": (
        "60a5c234c7b81a973e5ece65e48b762aab056f1939d0081d2ae3b27761ea92e0",
        "5a42c997ae505f55f57eddc7c6f92974bc8c066f6929f52596b07fca93b68e05",
        "2d61a17e026dc4425e4af548d89936baf3edbb8567b2e7a596aabc6428ddb791",
    ),
    "path_identity": (
        "3b3cde7a6ffd80ad796d733a75f2ade018197cff262058bc24a8dbc5f80fdab9",
        "8d5b4ca74ff2f9074519dd03d08afb0b458f25c4aa3df6941eddb594e3d739f6",
        "b8ce03b7b7b195428737a50d76793a3bdb41deac7b6aea4730a041437480ac4e",
    ),
    "global_random": (
        "7100cccf096c490b25dc11229c383e8454eb4f808f545db6aff60da73024e267",
        "8aa70384cbf72953d64300a65bb5029e5f194a891ab0c12abd3c5e5ca7778f20",
        "d0dcd1cc7ba3594ad5d3cb2aae247ab7f5bf6b6763922f7a08564a8d078e158c",
    ),
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(SPECS))
def test_generate_bytes_are_pinned(tmp_path, name, capsys):
    spec, graph = tmp_path / f"{name}.json", tmp_path / f"{name}.mtx"
    save_spec(SPECS[name], spec)
    assert cli.main(["generate", str(spec), "--out", str(graph)]) == 0
    got = (sha256(spec), sha256(graph), sha256(graph.with_suffix(".labels.csv")))
    assert got == GOLDEN[name]


def test_migration_kernel_bytes_are_pinned(tmp_path, capsys):
    flows, pops, out = tmp_path / "flows.mtx", tmp_path / "pops.csv", tmp_path / "kernel.mtx"
    flows.write_text(
        "%%MatrixMarket matrix coordinate integer symmetric\n4 4 4\n2 1 10\n3 1 7\n4 2 3\n4 3 12\n"
    )
    pops.write_text("node_id,population\n0,100\n1,50\n2,30.5\n3,1e3\n")
    assert cli.main(["migration-kernel", str(flows), str(pops), "--out", str(out)]) == 0
    assert out.read_text() == (
        "%%MatrixMarket matrix coordinate real symmetric\n4 4 4\n"
        "2 1 0.02\n3 1 0.016065573770491802\n4 2 0.00018000000000000001\n4 3 0.0047213114754098362\n"
    )
    assert sha256(out) == "a26fc35e8a94b5e566fa762e4e59ec9f9c3abe15c3d130207858ee53aabf393b"
