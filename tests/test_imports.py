"""Import footprint of the package and the CLI, and the lazy package surface.

The footprint tests run each command in a fresh interpreter under
`-X importtime`, which lists on stderr every module the process imported.
"""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eigenloc
from eigenloc import cli

SRC = str(Path(eigenloc.__file__).parents[1])


def imported(args, cwd) -> set[str]:
    """Names of the modules a fresh `python -X importtime <args>` imports."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    rows = [line.split("|")[-1] for line in proc.stderr.splitlines() if line.startswith("import time:")]
    return {row.strip() for row in rows[1:]}  # rows[0] is the column header


def loaded(modules: set[str], package: str) -> list[str]:
    return sorted(m for m in modules if m == package or m.startswith(package + "."))


def test_import_package_loads_no_numpy(tmp_path):
    mods = imported(["-c", "import eigenloc"], tmp_path)
    assert "eigenloc" in mods
    assert loaded(mods, "numpy") == []


def test_help_loads_neither_numpy_nor_scipy(tmp_path):
    # nor dataclasses, which pulls in inspect; only generate --seed needs it
    mods = imported(["-m", "eigenloc.cli", "--help"], tmp_path)
    assert "eigenloc.errors" in mods
    assert loaded(mods, "numpy") == [] and loaded(mods, "scipy") == []
    assert "dataclasses" not in mods


def test_generate_and_migration_kernel_load_no_scipy(tmp_path):
    (tmp_path / "chain.json").write_text(
        '{"beads": [{"kind": "two_module", "n1": 50, "n2": 50, "p1": 0.8, "p2": 0.2}],'
        ' "interaction": {"kind": "path_random", "p": 0.05}, "seed": 0}'
    )
    mods = imported(["-m", "eigenloc.cli", "generate", "chain.json", "--out", "chain.mtx"], tmp_path)
    assert "numpy" in mods and loaded(mods, "scipy") == []

    (tmp_path / "flows.mtx").write_text(
        "%%MatrixMarket matrix coordinate integer symmetric\n4 4 4\n2 1 10\n3 1 7\n4 2 3\n4 3 12\n"
    )
    (tmp_path / "pops.csv").write_text("node_id,population\n0,100\n1,50\n2,30.5\n3,1e3\n")
    argv = ["-m", "eigenloc.cli", "migration-kernel", "flows.mtx", "pops.csv", "--out", "kernel.mtx"]
    mods = imported(argv, tmp_path)
    assert "numpy" in mods and loaded(mods, "scipy") == []


def write_chain(tmp_path, beads: int, size: int):
    """chain.mtx and chain.labels.csv: `beads` two-module beads of 2 x `size` nodes."""
    bead = {"kind": "two_module", "n1": size, "n2": size, "p1": 0.2, "p2": 0.02}
    doc = {"beads": [bead] * beads, "interaction": {"kind": "path_random", "p": 0.01}, "seed": 3}
    (tmp_path / "chain.json").write_text(json.dumps(doc))
    out = tmp_path / "chain.mtx"
    assert cli.main(["generate", str(tmp_path / "chain.json"), "--out", str(out)]) == 0


SOLVER_PROBE = """
import json, sys
from eigenloc import cli, eigensolver
calls = {"lanczos": 0, "release_heap": 0}
def spy(name):
    real = getattr(eigensolver, "_" + name)
    def counted(*args):
        calls[name] += 1
        return real(*args)
    setattr(eigensolver, "_" + name, counted)
for name in calls:
    spy(name)
code = cli.main(sys.argv[1:])
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
with open("probe.json", "w") as f:
    json.dump({"code": code, "calls": calls, "scipy": scipy}, f)
"""


def test_dense_route_loads_no_scipy_solver(tmp_path):
    # a 400-node chain at k = n takes the full dense route, numpy's eigh on a
    # block filled from the edge list; components and degrees are numpy too.
    # The transition baseline is a median taken without np.median, which
    # imports numpy.ma. The heap is not trimmed: only a Lanczos solve does
    # that (numpy imports ctypes itself, so the spy is what shows it)
    write_chain(tmp_path, beads=4, size=50)
    commands = [
        ["analyze", "chain.mtx", "--labels", "chain.labels.csv", "--k", "400", "--ranks", "1,2", "--out", "r"],
        ["ipr", "chain.mtx", "--k", "400", "--out", "ipr.csv"],
        ["sweep", "chain.mtx", "--rank", "1", "--k", "400", "--out", "sweep.json"],
    ]
    for argv in commands:
        mods = imported(["-c", SOLVER_PROBE, *argv], tmp_path)
        probe = json.loads((tmp_path / "probe.json").read_text())
        assert probe["code"] == 0, argv[0]
        assert probe["calls"] == {"lanczos": 0, "release_heap": 0}, argv[0]
        assert "numpy" in mods and loaded(mods, "scipy") == [], argv[0]
        assert loaded(mods, "numpy.ma") == [], argv[0]


def test_evr_route_loads_scipy_linalg_but_no_sparse(tmp_path):
    # 1,200 nodes with k = 100 (n/20 < k <= n/8) takes LAPACK evr
    write_chain(tmp_path, beads=3, size=200)
    argv = ["analyze", "chain.mtx", "--labels", "chain.labels.csv", "--k", "100", "--ranks", "1,2", "--out", "r"]
    mods = imported(["-m", "eigenloc.cli", *argv], tmp_path)
    assert "scipy.linalg" in mods
    assert loaded(mods, "scipy.sparse") == []


def test_lanczos_route_imports_no_scipy_module(tmp_path):
    # 1,200 nodes with k = 20 (k <= n/20) takes the owned Lanczos, whose
    # products run on scipy's compiled CSR kernel loaded from its file: no
    # scipy module is imported or left in sys.modules
    write_chain(tmp_path, beads=3, size=200)
    argv = ["analyze", "chain.mtx", "--labels", "chain.labels.csv", "--k", "20", "--ranks", "1,2", "--out", "r"]
    mods = imported(["-c", SOLVER_PROBE, *argv], tmp_path)
    probe = json.loads((tmp_path / "probe.json").read_text())
    assert probe["code"] == 0 and probe["calls"] == {"lanczos": 1, "release_heap": 1}
    assert loaded(mods, "scipy") == [] and probe["scipy"] == []


def test_kernel_loaded_first_is_bound_by_a_later_scipy_sparse_import(tmp_path):
    probe = (
        "from eigenloc.eigensolver import _sparsetools\n"
        "kernel = _sparsetools()\n"
        "import scipy.sparse\n"
        "assert scipy.sparse._sparsetools.csr_matvec is kernel.csr_matvec\n"
    )
    imported(["-c", probe], tmp_path)


def test_every_public_name_resolves_to_its_home_object():
    for name, module in eigenloc._HOME.items():
        home = importlib.import_module(f"eigenloc.{module}")
        assert getattr(eigenloc, name) is (home if name == module else getattr(home, name)), name


def test_dir_and_star_import_cover_all():
    assert set(eigenloc.__all__) <= set(dir(eigenloc))
    namespace = {}
    exec("from eigenloc import *", namespace)
    assert all(namespace[name] is getattr(eigenloc, name) for name in eigenloc.__all__)


def test_unknown_attribute_raises_attribute_error():
    assert not hasattr(eigenloc, "nope")
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        eigenloc.nope
