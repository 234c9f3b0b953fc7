"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the speed of the same code drifts by up to 2x over
minutes, and process CPU time drifts with wall time, so the cause is the
host, not descheduling. A run is too short to average that drift out. The
benchmark therefore times this kernel next to the workload, in the same
process and between its calls, and reports each timing scaled to the host
speed at which the kernel takes REFERENCE_S:

    scaled = measured * host_speed(kernel times measured alongside)

Host drift slows the kernel and the workload alike and largely cancels; a
change to urnlab moves only the workload, because the kernel calls no
urnlab code.
The kernel mixes the kinds of work urnlab's time goes to: a pure-Python
64-bit integer loop (the xoshiro256++ streams), small dense numpy calls
(mat_exp, Lyapunov solves, spectral profiles), a JSON round trip (configs
and reports) and vectorised transcendental functions over 8192-wide
arrays (gaussian blocks, the linear engine). It uses numpy and the standard
library only, never scipy, so that importing it adds nothing to the
import set-up time that urnlab itself pays.
"""

import json
import statistics
import time

import numpy as np

# The kernel's median time on the 2-core sandbox where the benchmark was
# defined. It fixes the unit of every scaled timing; changing the kernel or
# this constant changes every baseline.
REFERENCE_S = 0.020
REPEATS = 3
_MASK = (1 << 64) - 1
_rng = np.random.default_rng(20160218)
_SMALL = 0.3 * _rng.standard_normal((4, 4))
_DENSE = _rng.standard_normal((20, 20))
# 64 KiB arrays, worked on in place: an allocation above malloc's mmap
# threshold would cost page faults that depend on what the process freed
# before, so the kernel's time would depend on the workload's allocations
_WIDE = _rng.random(1 << 13)
_OUT = np.empty(1 << 13)
_TMP = np.empty(1 << 13)
_DOC = {str(i): {"steps": list(range(i % 40)), "label": "x" * (i % 30),
                 "value": i * 0.5} for i in range(300)}


def _kernel():
    x = 0x9E3779B97F4A7C15
    acc = 0
    for _ in range(12000):
        x = ((x ^ (x >> 31)) * 0xBF58476D1CE4E5B9) & _MASK
        acc += x >> 60
    eye = np.eye(4)
    e = eye
    for _ in range(150):
        e = np.linalg.solve(eye + _SMALL @ _SMALL.T, e @ _SMALL + eye)
    for _ in range(15):
        acc += int(np.linalg.eigvals(_DENSE).real.argmax())
    json.loads(json.dumps(_DOC, sort_keys=True))
    for _ in range(32):
        np.log(_WIDE, out=_OUT)
        np.multiply(_OUT, -2.0, out=_OUT)
        np.sqrt(_OUT, out=_OUT)
        np.multiply(_WIDE, 2.0 * np.pi, out=_TMP)
        np.cos(_TMP, out=_TMP)
        np.multiply(_OUT, _TMP, out=_OUT)
        acc += float(_OUT[0])
    return acc + float(e[0, 0])


def kernel_times(budget_s=0.0):
    """Times of single kernel runs, in seconds: at least REPEATS runs, and
    runs for at least budget_s."""
    times = []
    end = time.perf_counter() + budget_s
    while len(times) < REPEATS or time.perf_counter() < end:
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return times


def host_speed(times):
    """REFERENCE_S over the mean of kernel times, the tenth at either end
    left out. The host switches between speed levels within a second, so
    short kernel runs fall on one level or another: their median jumps
    between levels, while their mean follows the share of time at each."""
    times = sorted(times)
    cut = len(times) // 10
    return REFERENCE_S / statistics.fmean(times[cut:len(times) - cut])
