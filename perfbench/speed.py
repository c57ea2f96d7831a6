"""Host speed samples: a fixed reference loop timed from a timer signal.

On a shared host the same pass can take up to 1.6x longer while load from
outside the virtual machine slows its cores, in spells that last from a
fraction of a second to minutes.  CPU time tracks wall time through them,
so no clock in the process tells a contended host from a slower program.
A `Sampler` times a fixed piece of pure-Python work (`REF_STEPS`
renormalised 140-bit products, the shape of mpmath's inner loop on its
pure-Python backend) every `SAMPLE_PERIOD_S` seconds from a SIGALRM
handler.  The handler runs in the pass's own thread, on the same core,
between the program's own bytecodes, so its samples see the speed the
program sees.  A phase's time, less the handler's own time, scaled by
`REF_NOMINAL_S` over the harmonic mean of the reference times in that
phase, is the time the phase takes at a fixed reference speed: see
`at_reference_speed`.

Only the standard library is imported here, so that sampling can start
before the program and mpmath are imported.
"""

from __future__ import annotations

import signal
import time

REF_STEPS = 1000
# about the reference's median time on the 2-vCPU Intel Xeon virtual
# machine the benchmark was built on (0.16-0.33 ms), so that results read
# close to the times measured there; it sets only their scale
REF_NOMINAL_S = 2.5e-4
SAMPLE_PERIOD_S = 0.02
_MAN = (1 << 139) + 0x123456789ABCDEF1


def reference() -> int:
    man, exp = _MAN, 0
    for _ in range(REF_STEPS):
        man *= _MAN
        shift = man.bit_length() - 140
        man >>= shift
        exp += shift
    return exp


def at_reference_speed(seconds: float, ref_s: float) -> float:
    """What `seconds`, measured while the reference took `ref_s` (harmonic
    mean), would be at the reference speed."""
    return seconds * REF_NOMINAL_S / ref_s


class Sampler:
    """Reference timings per phase, and the time their handler took."""

    def __init__(self) -> None:
        self._reset()

    def _reset(self) -> None:
        self._rate = 0.0  # sum of 1 / reference time
        self._count = 0
        self._spent_s = 0.0

    def sample(self, *_) -> None:
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        self._rate += 1 / (t1 - t0)
        self._count += 1
        self._spent_s += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def phase(self) -> dict:
        """The samples since the last call (at least one), then reset.

        `ref_s` is the harmonic mean of the reference times: the program's
        progress over a phase is its speed summed over time, and its speed
        at each sample is proportional to 1 / reference time.
        """
        if not self._count:
            self.sample()
        out = {
            "ref_s": self._count / self._rate,
            "sampler_s": self._spent_s,
        }
        self._reset()
        return out
