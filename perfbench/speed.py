"""Machine-speed normalisation of pass times.

A shared virtual machine does not run at one speed: on the 2-vCPU machine
this benchmark was built on, the same fixed work took 1x or about 2x as
long, switching every 10-60 s, and whole benchmark runs landed in one
state or the other.  The slow-down is per vCPU, so a reference timed on
the other vCPU does not track it; a reference timed next to the work, on
the same vCPU, does.

`Sampler` therefore times a fixed reference `kernel()` every INTERVAL_S of
wall time from a SIGALRM handler, inside the process that runs the pass.
The handler runs between bytecodes of the main thread, so the kernel
interleaves with qbrach's own work.  The pass is cut into the segments
between kernels; each segment's time is divided by the mean duration of
the two kernels that bound it and multiplied by NOMINAL_S, the kernel's
duration on the reference machine.  The sum is the pass time in seconds
of that machine; the raw sum, without the kernels' own time, is kept too.

The kernel does what qbrach's hot paths do: RK4 on small complex matrices
in a Python loop, with einsum projections onto a basis, plus float
formatting as the CSV writer does.  It is part of the benchmark and never
changes with the program under test.

Set-up (interpreter start and imports) slows less than kernel() in the
slow state, so it has a kernel of its own, `setup_kernel()`, which does
what an import does: unmarshal a code object and run its module body.  The
worker times it just before and just after its imports; set-up is divided
by the mean of the two and multiplied by SETUP_NOMINAL_S.  The module uses
only the standard library until kernel() first runs, so that it can be
imported before the imports it times.
"""

from __future__ import annotations

import marshal
import signal
import time

# kernel() and setup_kernel() on the reference machine in its fast state
# ("Intel(R) Xeon(R) Processor", 2 vCPUs, Python 3.11.7, numpy 2.4.6);
# normalised times are seconds of that machine.
NOMINAL_S = 2.0e-3
SETUP_NOMINAL_S = 2.3e-3
INTERVAL_S = 0.1

_SETUP_CODE = marshal.dumps(compile("\n".join(
    f"def f{i}(x, y=1.0, *a, **k):\n"
    f"    return [x + y * j for j in range({i % 7 + 2})]\n"
    f"class C{i}:\n"
    f"    a = {i}\n"
    f"    def m(self, z):\n"
    f"        return f{i}(z) + [self.a]\n"
    for i in range(60)), "<setup-kernel>", "exec"))


def setup_kernel():
    """Fixed import-like work, about SETUP_NOMINAL_S on the reference
    machine."""
    for _ in range(4):
        exec(marshal.loads(_SETUP_CODE), {})


def time_setup_kernel(samples: int = 3) -> float:
    """Median time of setup_kernel(), after one uncounted call."""
    setup_kernel()
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        setup_kernel()
        times.append(time.perf_counter() - t0)
    return sorted(times)[samples // 2]


_operands = None


def kernel() -> str:
    """Fixed reference work, about NOMINAL_S on the reference machine."""
    global _operands
    if _operands is None:
        import numpy as np
        rng = np.random.default_rng(20061)
        H, F, B = (rng.normal(size=s) + 1j * rng.normal(size=s)
                   for s in ((4, 4), (4, 4), (6, 4, 4)))
        _operands = (np, 0.5 * (H + H.conj().T), 0.5 * (F + F.conj().T),
                     0.5 * (B + B.conj().transpose(0, 2, 1)))
    np, H, F, basis = _operands
    dt = 1e-3

    def rhs(H, F):
        C = -1j * (H @ F - F @ H)
        P = np.tensordot(np.einsum("kij,ji->k", basis, C), basis, 1)
        return C + 1e-3 * P, C

    rows = []
    for _ in range(12):
        k1H, k1F = rhs(H, F)
        k2H, k2F = rhs(H + 0.5 * dt * k1H, F + 0.5 * dt * k1F)
        k3H, k3F = rhs(H + 0.5 * dt * k2H, F + 0.5 * dt * k2F)
        k4H, k4F = rhs(H + dt * k3H, F + dt * k3F)
        H = H + (dt / 6) * (k1H + 2 * k2H + 2 * k3H + k4H)
        F = F + (dt / 6) * (k1F + 2 * k2F + 2 * k3F + k4F)
        H = 0.5 * (H + H.conj().T)
        rows.append(",".join("%.17g" % x for x in H.real.ravel()))
    return "\n".join(rows)


def time_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Sampler:
    """Times kernel() every INTERVAL_S while a pass runs (see the module
    docstring).  One instance per process; it owns SIGALRM."""

    def __init__(self):
        self._active = False
        signal.signal(signal.SIGALRM, self._tick)
        for _ in range(3):          # first calls are slower; keep them out
            kernel()

    def start(self):
        self._segments, self._kernels = [], [time_kernel()]
        self._active = True
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def _tick(self, signum, frame):
        if not self._active:
            return
        self._segments.append(time.perf_counter() - self._mark)
        self._kernels.append(time_kernel())
        self._mark = time.perf_counter()

    def stop(self) -> tuple[float, float, int]:
        """(raw seconds, normalised seconds, kernel samples) of the pass."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._active = False
        self._segments.append(time.perf_counter() - self._mark)
        self._kernels.append(time_kernel())
        k = self._kernels
        norm = sum(seg / (0.5 * (a + b))
                   for seg, a, b in zip(self._segments, k, k[1:]))
        return sum(self._segments), NOMINAL_S * norm, len(k)
