"""Host speed: a fixed reference computation timed next to the workload.

The benchmark runs on a few cores of a shared host whose speed drifts by
10-25 % over tens of seconds to minutes (CPU time drifts with wall time,
so it is not preemption).  A 20-60 s run cannot average that out, so the
end-to-end times are calibrated: every timed interval (a round, a CLI
command, a set-up process) is paired with the mean time of the
``reference()`` runs just before and just after it, and the benchmark
reports

    REFERENCE_S * median(interval wall time / paired reference time),

the interval's time on a host that runs the reference in REFERENCE_S.
The reference does not use tflp, so a change to the library moves the
numerator only.  It mixes the three kinds of work the workloads spend
their time in: plain Python bytecode, numpy/scipy FFT convolution, and
scipy adaptive quadrature over a Bessel function.  On the defining host
(2 cores), over 5 seeds per workload, the interquartile spread of run_s
fell from 14-24 % raw to 3-6 % calibrated on montecarlo, tables and cli;
on long_path, measured while the host was quiet, it was 3 % raw and 5 %
calibrated.  The raw wall times are reported next to the calibrated
ones.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np
from scipy import integrate, signal, special

# median of reference() on the 2-core host the benchmark was defined on
REFERENCE_S = 0.12

_X = np.random.default_rng(0).random(2 ** 16)


def _integrand(x, nu):
    return special.kv(nu, x) * np.exp(-x)


def reference():
    """Wall time of the fixed reference computation, in seconds."""
    t0 = perf_counter()
    s = 0
    for i in range(450_000):
        s += i * i
    for _ in range(3):
        signal.fftconvolve(_X, _X)
    for k in range(48):
        integrate.quad(_integrand, 0.01, 5.0, args=(0.3 + 0.01 * k,))
    return perf_counter() - t0


def calibrated(walls, refs):
    """REFERENCE_S times the median ratio of paired wall and reference times."""
    return REFERENCE_S * statistics.median(w / r for w, r in zip(walls, refs, strict=True))
