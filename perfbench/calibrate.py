"""A gauge of how fast the machine runs right now, from fixed reference work.

The speed of a shared virtual machine moves by tens of per cent for seconds
to minutes at a time.  Over a few seconds that movement is common to the
benchmark's workloads and to fixed reference work of the same kinds, so the
untraced run times the reference work every PERIOD_S seconds, from a timer
signal that interrupts whatever the run is doing, and reports every time at
the reference speed:

    measured time / sum over parts c of  mix[c] * t_c / REFERENCE_S[c],

where t_c is the median time of part c over the ticks within WINDOW_S of
the timed interval, and mix[c] is the share of part c's kind of work in the
workload (`speed_mix` in workloads.py).  Parts of different kinds react to
the machine differently (page faults and memory bandwidth, say, against
arithmetic), so each workload is gauged by its own mix.  The time spent in
the ticks is taken out of the intervals the run times.

The reference work uses numpy, scipy and the kernel only, never the program,
and allocates nothing large as it runs, so no change to the program moves
it.
"""

from __future__ import annotations

import mmap
import signal
from time import perf_counter
from typing import NamedTuple

import numpy as np
from scipy.linalg import eigh

N_ROWS, N_COLS = 8, 4096   # as many points as the eps = 1/1024, R = 32 grid
N_BASIS = 64            # Fourier basis of the Kronig-Penney lattice
FAULT_BYTES = 1 << 20   # the memory the "faults" part maps and touches
PERIOD_S = 0.25
RUNS_PER_PART = 3       # per tick; the median is a warm run
WINDOW_S = 1.0          # ticks this close to a timed interval gauge its speed
# Time of each part at the speed the reported times are scaled to (about
# its median on the 2-vCPU Xeon this benchmark was set up on).
REFERENCE_S = {
    "fft": 9.4e-4,
    "elementwise": 1.1e-3,
    "faults": 6.6e-4,
    "matmul": 3.8e-4,
    "eigh": 9.6e-4,
}


class Interval(NamedTuple):
    start: float
    end: float
    seconds: float      # end - start, less the ticks of the gauge inside


class Tick(NamedTuple):
    start: float
    end: float
    parts: dict         # part -> median time of its RUNS_PER_PART runs


class ReferenceWork:
    """Every array the parts use is allocated once, here: a part that
    allocated large arrays would take page faults, or not, depending on the
    heap that the program left behind."""

    def __init__(self):
        rng = np.random.default_rng(0)
        shape = (N_ROWS, N_COLS)
        self.field = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        self.angle = 1j * rng.standard_normal(shape)
        self.phase = np.empty(shape, complex)
        self.spectrum = np.empty(shape, complex)
        a = rng.standard_normal((N_BASIS, N_BASIS)) + 1j * rng.standard_normal((N_BASIS, N_BASIS))
        self.hermitian = a + a.conj().T
        self.block = rng.standard_normal((N_BASIS, 128)) + 0j
        self.product = np.empty((N_BASIS, 128), complex)

    def fft(self):
        # row by row: a batched FFT allocates its own work space
        for row in range(N_ROWS):
            np.fft.fft(self.field[row], out=self.spectrum[row])
            np.fft.ifft(self.spectrum[row], out=self.spectrum[row])

    def elementwise(self):
        np.exp(self.angle, out=self.phase)
        np.multiply(self.field, self.phase, out=self.spectrum)
        np.abs(self.spectrum, out=self.phase.real)

    def faults(self):
        # fresh anonymous memory takes a page fault per page, whatever the
        # program did with its heap
        with mmap.mmap(-1, FAULT_BYTES) as m:
            pages = np.frombuffer(m, dtype=np.uint8)
            pages[::mmap.PAGESIZE] = 1
            del pages

    def matmul(self):
        for _ in range(4):
            np.matmul(self.hermitian, self.block, out=self.product)

    def eigh(self):
        eigh(self.hermitian)


PARTS = tuple(REFERENCE_S)


class SpeedGauge:
    """Within `with gauge:`, runs every part of the reference work
    RUNS_PER_PART times every PERIOD_S seconds, from SIGALRM, and keeps
    each tick."""

    def __init__(self):
        self.work = ReferenceWork()
        self.ticks: list[Tick] = []

    def _tick(self, signum, frame):
        start = perf_counter()
        parts = {}
        for name in PARTS:
            part = getattr(self.work, name)
            times = []
            for _ in range(RUNS_PER_PART):
                t0 = perf_counter()
                part()
                times.append(perf_counter() - t0)
            parts[name] = sorted(times)[RUNS_PER_PART // 2]
        self.ticks.append(Tick(start, perf_counter(), parts))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def timed(self, fn, *args):
        """fn(*args) and an Interval: its time, less the ticks that ran
        inside it.  A tick runs between two bytecodes of this thread, so it
        lies wholly inside or wholly outside the interval."""
        n = len(self.ticks)
        start = perf_counter()
        result = fn(*args)
        end = perf_counter()
        inside = sum(t.end - t.start for t in self.ticks[n:]
                     if t.start >= start and t.end <= end)
        return result, Interval(start, end, end - start - inside)

    def scaled(self, intervals: list[Interval], mix: dict) -> list[float]:
        """Each interval's time at the reference speed, for work made of
        the parts in the shares `mix`."""
        starts = np.array([t.start for t in self.ticks])
        slowdown = np.array([[t.parts[c] / REFERENCE_S[c] for c in mix]
                             for t in self.ticks])
        shares = np.array(list(mix.values()))
        out = []
        for iv in intervals:
            lo, hi = np.searchsorted(starts, [iv.start - WINDOW_S, iv.end + WINDOW_S])
            out.append(iv.seconds / float(shares @ np.median(slowdown[lo:hi], axis=0)))
        return out
