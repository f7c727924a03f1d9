"""The example script runs as a program: exit status 0 and the line layout
it documents."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *args], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


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
