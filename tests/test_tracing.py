"""The names the benchmark's tracer (perfbench/tracing.py) wraps.

The tracer resolves each of its TARGETS against the package when it is
installed, and reads evolve's t_max and dt arguments and the drift fields of
its result.  A rename in src/ would otherwise show only in the benchmark's
self-check.  perfbench/ is read here, never changed.
"""

import importlib
import importlib.util
import inspect
import pathlib

import numpy as np
import pytest

import qbrach
from qbrach import brach, catalog

TRACING = (pathlib.Path(__file__).resolve().parent.parent / "perfbench"
           / "tracing.py")
DRIFTS = ("norm_drift", "trH2_drift", "trHF_residual", "eigenvalue_drift")


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(tracing):
    for module, path in tracing.TARGETS:
        owner = importlib.import_module(f"qbrach.{module}")
        _, _, value = tracing._resolve(owner, path)
        assert callable(value), (module, path)


def test_evolve_takes_the_grid():
    params = inspect.signature(brach.evolve).parameters
    assert {"t_max", "dt"} <= set(params)
    assert params["dt"].default == 1e-4
    assert params["record_every"].default == 1


def test_evolve_result_has_the_drift_fields(tracing):
    fam = catalog.family_sun(3, "tridiagonal")
    psi0 = np.array([1, 0, 0], dtype=complex)
    result = brach.evolve(fam.problem, fam.H0, fam.F0, psi0, 0.01, dt=1e-3)
    for name in DRIFTS:
        drift = getattr(result, name)
        assert isinstance(drift, np.ndarray) and drift.shape == (11,), name
    # the tracer's own hook reads them: steps from the grid, maxima from
    # the fields
    tracer = tracing.Tracer(qbrach)
    tracer._after_evolve(brach.evolve)(
        (fam.problem, fam.H0, fam.F0, psi0, 0.01), {"dt": 1e-3}, result, None)
    assert tracer.counters["evolve_steps"] == 10
    assert tracer.counters["max_eig_drift"] == np.max(result.eigenvalue_drift)
