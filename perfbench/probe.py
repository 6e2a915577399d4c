"""A fixed reference computation that tracks the machine's speed during a run.

On a shared virtual machine the speed of the same code drifts by 15-60%
within minutes, and two kinds of work drift by different factors: big-integer
modular powers (native code) and byte loops in the interpreter. So the probe
times one of each, in the shapes the library uses most:

- `pow`: two 512-bit modular powers with 160-bit exponents (the desk512 group);
- `py`: a byte-wise XOR generator over 8 KiB (the stream cipher's inner loop).

The probe is code of the benchmark with fixed inputs, so no change to the
library can move it. Each workload names the kind that dominates its work
(`Workload.PROBE`). Its speed factor at one moment is that kind's probe time
then divided by the kind's nominal time. Dividing a measured time by that
factor gives reference time: the time the same work takes on a machine that
runs the probe in its nominal time.
"""

from __future__ import annotations

import random
from time import perf_counter

# Probe times measured once on the machine the benchmark was built on (2-vCPU
# Intel Xeon virtual machine, Python 3), so reference seconds read close to
# wall seconds there. Only their constancy matters: they scale every result
# of every run alike.
NOMINAL_S = {"pow": 0.70e-3, "py": 0.39e-3}

_rng = random.Random("perfbench-probe")
_MODULUS = _rng.getrandbits(512) | (1 << 511) | 1
_POWERS = [(_rng.getrandbits(511), _rng.getrandbits(160)) for _ in range(2)]
_LEFT, _RIGHT = _rng.randbytes(8192), _rng.randbytes(8192)


def run_probe() -> dict[str, float]:
    """Time one probe; seconds per kind."""
    t0 = perf_counter()
    for base, exp in _POWERS:
        pow(base, exp, _MODULUS)
    t1 = perf_counter()
    bytes(a ^ b for a, b in zip(_LEFT, _RIGHT))
    t2 = perf_counter()
    return {"pow": t1 - t0, "py": t2 - t1}


def speed_factor(kind: str, times: dict[str, float]) -> float:
    """How much slower than nominal the machine ran work of this kind (1.0 = nominal)."""
    return times[kind] / NOMINAL_S[kind]
