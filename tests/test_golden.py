"""Golden outputs: short CLI runs compared with stored fixtures.

Each fixture under tests/golden/ is the file `qbrach run ... --out` wrote for
the argv in GOLDEN.  Numbers must match to 1e-12 and every string (header,
census description and classification) exactly.  verify-ledger.json pins the
id, status and tolerance of every record of `qbrach verify --suite all`, in
order, and no residual; seeds 42, 7 and 1001 must each give that list.
After an intended change of output, rewrite the fixtures with

    PYTHONPATH=src python3 tests/test_golden.py
"""

import json
import math
import pathlib
import tempfile

import pytest

from qbrach import cli

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
TOL = 1e-12

_SHORT = ("--t-max", "0.05", "--dt", "1e-3")
GOLDEN = {
    **{f"{name}.csv": ("run", "--scenario", name, *_SHORT)
       for name in ("su2", "so3", "su3-elliptic", "su3-geodesic", "frenet",
                    "su4-heisenberg", "dirac")},
    "sun-family-n4-tridiagonal.csv": (
        "run", "--scenario", "sun-family", "--param", "n=4",
        "--param", "kind=tridiagonal", *_SHORT),
    "su3-partitions.json": (
        "run", "--scenario", "su3-partitions", "--t-max", "2",
        "--dt", "5e-3", "--format", "json"),
}

VERIFY_LEDGER = "verify-ledger.json"
VERIFY_ARGV = ("verify", "--suite", "all", "--format", "json")


def _read(path: pathlib.Path):
    """CSV as (header, rows of floats); JSON as the decoded object."""
    if path.suffix == ".json":
        return json.loads(path.read_text())
    header, *rows = path.read_text().splitlines()
    return header, [[float(v) for v in row.split(",")] for row in rows]


def _assert_close(got, want, where="output"):
    if isinstance(want, float):
        assert math.isclose(got, want, rel_tol=0.0, abs_tol=TOL), \
            f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for k in want:
            _assert_close(got[k], want[k], f"{where}[{k!r}]")
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), f"{where}: length"
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert cli.main([*GOLDEN[name], "--out", str(out)]) == 0
    _assert_close(_read(out), _read(GOLDEN_DIR / name), name)


def _ledger(out: pathlib.Path) -> list:
    """The verify report at `out` without its residuals."""
    return [{k: r[k] for k in ("id", "status", "tolerance")}
            for r in json.loads(out.read_text())["records"]]


@pytest.mark.parametrize("seed", ["42", "7", "1001"])
def test_verify_ledger(seed, tmp_path):
    # every checked record passes (exit 0) and the ledger is seed-free
    out = tmp_path / "verify.json"
    assert cli.main([*VERIFY_ARGV, "--seed", seed, "--out", str(out)]) == 0
    assert _ledger(out) == json.loads((GOLDEN_DIR / VERIFY_LEDGER).read_text())


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in GOLDEN.items():
        assert cli.main([*argv, "--out", str(GOLDEN_DIR / name)]) == 0
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "verify.json"
        assert cli.main([*VERIFY_ARGV, "--seed", "42", "--out",
                         str(out)]) == 0
        (GOLDEN_DIR / VERIFY_LEDGER).write_text(
            json.dumps(_ledger(out), indent=2) + "\n")
