"""The example scripts run as programs: exit status 0 and the line layout
they document, or the exit status and one-line message of an error."""

import collections
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *args], capture_output=True, text=True, env=env,
                          timeout=120)


def run_script(name, *args):
    proc = script(name, *args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def assert_one_line_exit(proc, code, head):
    assert proc.returncode == code
    assert proc.stdout == ""
    assert proc.stderr.startswith(head) and proc.stderr.count("\n") == 1


def test_partition_census():
    lines = run_script("partition_census.py", "--t-max", "1")
    assert len(lines) == 8
    for k, (head, body) in enumerate(zip(lines[::2], lines[1::2]), start=1):
        assert head.startswith(f"pair {k}: ")
        assert re.fullmatch(r"    classification: (constant|periodic|neither)"
                            r" +period: \S+ +max excursion: \S+", body)
    # one time unit is shorter than every recurrence period
    assert "periodic" not in "".join(lines)


@pytest.mark.parametrize("dt, code, head", [("0", 65, "bad parameters: "),
                                              ("1", 2, "drift abort: ")])
def test_partition_census_error_exits(dt, code, head):
    # a bad grid once ended in a traceback and exit 1, and a diverging
    # path was classified with exit 0
    assert_one_line_exit(script("partition_census.py", "--dt", dt), code,
                         head)


@pytest.mark.parametrize("t_max", ["4e-4", "1e9"])
def test_partition_census_takes_the_grid_rule_of_run(t_max):
    # shorter than one step of the default dt, and over brach.MAX_STEPS:
    # the first once took one step and exited 0, the second had no cap
    assert_one_line_exit(script("partition_census.py", "--t-max", t_max),
                         65, "bad parameters: ")


def test_minimum_time_transfer():
    lines = run_script("minimum_time_transfer.py")
    sections = [i for i, line in enumerate(lines) if line.startswith("== ")]
    assert len(sections) == 3
    for i in sections[:2]:
        assert lines[i + 1].startswith("predicted T_min = ")
        assert lines[i + 2].startswith("grid optimum    = ")
    assert lines[sections[2] + 1].startswith("bell time pi/(8 lx) = ")
    fidelities = [float(line.split("fidelity")[1]) for line in lines
                  if "fidelity" in line]
    assert len(fidelities) == 3
    assert min(fidelities) > 0.9999999


def test_identity_report():
    # the section counts are the golden ledger's status counts, which hold
    # at every seed
    ledger = json.loads((ROOT / "tests" / "golden"
                         / "verify-ledger.json").read_text())
    counts = collections.Counter(r["status"] for r in ledger)
    lines = run_script("identity_report.py")
    heads = [line for line in lines if line.startswith("--- ")]
    assert heads == [f"--- {status} ({counts[status]}) ---"
                     for status in ("pass", "fail", "reported-only")
                     if counts[status]]
    assert len(lines) == len(heads) + len(ledger)
