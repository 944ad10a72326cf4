"""Host-speed probe.

The shared hosts this benchmark runs on change speed under it: the same
session takes anywhere from 1x to 1.8x as long depending on what the
neighbouring tenants do, in phases that last from seconds to minutes, and
CPU time moves with wall time (the vCPU is not descheduled, it runs
slower).  No statistic taken inside one run removes a phase that covers
the whole run, and the state can flip several times inside one session,
so an untraced run samples the host's speed all along: a :class:`Sampler`
runs a fixed piece of work, the probe, every :data:`INTERVAL_S` seconds
from a timer signal, and times the program on a clock that leaves the
probe's own time out.  The benchmark reports each timing scaled to the
speed at which the probe takes :data:`REFERENCE_S`, using the samples
taken while that timing ran.

The probe is independent of the program under test (it calls numpy only),
so a change to the program moves the scaled figures exactly as much as it
moves the raw ones; only the host's speed is divided out.  Its work mixes
what the program spends its time on: a bit-reading interpreter loop (the
entropy decoder), 8x8 block transforms through small numpy calls (the
residual path) and a small matrix product (SR and training).  Over 150
seconds of each workload that crossed from the faster host state into
the slower one, the sessions slowed by 1.55x (``play_static``) and 1.62x
(``play_cuts_http``), the probe by 1.55x and 1.63x.  A frame-sized
elementwise pass was tried as a fourth part and dropped: it did not slow
down with the rest.
"""

from __future__ import annotations

import signal
import statistics

import numpy as np

from repro.obs.clock import wall_clock

#: Probe seconds at the reference host speed: what one probe takes in the
#: faster of the two states a shared 2.0 GHz Xeon vCPU was seen to switch
#: between (about 18 ms; 28 ms in the slower one).  Scaled timings read as
#: timings in that state.
REFERENCE_S = 0.018
#: Seconds between samples: the probe then takes about 8% of the time.
INTERVAL_S = 0.2

_rng = np.random.default_rng(20240)
_BITS = _rng.integers(0, 256, 3072, dtype=np.uint8).tobytes()
_BLOCKS = _rng.standard_normal((64, 256))
_DCT = np.linalg.qr(_rng.standard_normal((8, 8)))[0]
_A = _rng.standard_normal((160, 160)).astype(np.float32)


def _bits() -> int:
    """Exp-Golomb-style reads from a byte string, one bit at a time."""
    total, pos, n = 0, 0, 8 * len(_BITS)
    while pos + 16 < n:
        zeros = 0
        while zeros < 7 and not (_BITS[pos >> 3] >> (7 - (pos & 7))) & 1:
            zeros += 1
            pos += 1
        value = 0
        for _ in range(zeros + 1):
            value = (value << 1) | ((_BITS[pos >> 3] >> (7 - (pos & 7))) & 1)
            pos += 1
        total += value
    return total


def _blocks() -> float:
    """Forward and inverse 8x8 transforms of a tile, block by block."""
    out = np.empty_like(_BLOCKS)
    for y in range(0, _BLOCKS.shape[0], 8):
        for x in range(0, _BLOCKS.shape[1], 8):
            coeffs = np.einsum("ij,jk,lk->il", _DCT, _BLOCKS[y:y + 8, x:x + 8],
                               _DCT)
            out[y:y + 8, x:x + 8] = np.einsum("ji,jk,kl->il", _DCT,
                                              np.round(coeffs), _DCT)
    return float(out[0, 0])


def _gemm() -> float:
    b = _A
    for _ in range(60):
        b = (_A @ b) * np.float32(0.05)
    return float(b[0, 0])


PARTS = {"bits": _bits, "blocks": _blocks, "gemm": _gemm}


def probe() -> dict[str, float]:
    """Seconds each part of the probe took, under ``"total"`` their sum."""
    clock = wall_clock()
    times = {}
    for name, part in PARTS.items():
        t0 = clock.now()
        part()
        times[name] = clock.now() - t0
    times["total"] = sum(times.values())
    return times


class Sampler:
    """Samples the host's speed while the program runs.

    While entered, a ``SIGALRM`` interval timer runs :func:`probe` every
    :data:`INTERVAL_S` seconds of wall time (Python runs the handler in the main
    thread between bytecodes, so a long numpy call delays a sample rather
    than being interrupted).  :meth:`now` is wall time minus the time
    spent in samples, so the program's timings leave the probe out; each
    sample is recorded as ``(now(), probe seconds)``.
    """

    def __init__(self):
        self.spent = 0.0
        self.samples: list[tuple[float, float]] = []
        self._clock = wall_clock()
        self._previous = None
        self._busy = False

    def now(self) -> float:
        while True:
            spent = self.spent
            t = self._clock.now()
            if spent == self.spent:  # no sample ran in between
                return t - spent

    def add(self, seconds: float) -> None:
        """Record a probe taken by the caller (no timer running)."""
        self.samples.append((self.now(), seconds))

    def _sample(self, _signum, _frame) -> None:
        if self._busy:  # the timer fired again inside a slow sample
            return
        self._busy = True
        t0 = self._clock.now()
        seconds = probe()["total"]
        self.samples.append((t0 - self.spent, seconds))
        self.spent += self._clock.now() - t0
        self._busy = False

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float, end: float) -> float:
        """:data:`REFERENCE_S` over the mean probe time of the samples taken
        between ``start`` and ``end`` (both :meth:`now` times); with none
        there, of the last sample before and the first after."""
        inside = [s for t, s in self.samples if start <= t <= end]
        if not inside:
            inside = ([s for t, s in self.samples if t < start][-1:]
                      + [s for t, s in self.samples if t > end][:1])
        if not inside:
            return 1.0
        return REFERENCE_S / statistics.fmean(inside)

    def median_s(self) -> float:
        """Median probe seconds over all samples."""
        return statistics.median(s for _t, s in self.samples) \
            if self.samples else REFERENCE_S


# The first call pays one-time costs (BLAS start-up, einsum set-up, first
# touches of the inputs); pay them at import so every timed probe is warm.
probe()
