"""A fixed reference computation that measures how fast the machine runs now.

The benchmark's machine is a share of a busy host: the same workload runs up
to twice as fast at one moment as at another, the speed changes every few
seconds, per core, and drifts over minutes.  The reference is a short piece
of code of the benchmark's own, unchanged by any change to the package, in
the same mix as the workloads: pure-Python tuple and dict work, as in the
word calculus, and a small int64 elimination with numpy, as in the field
layer.  While a repetition runs, ``Sampler`` times it every INTERVAL_S
seconds, on the same core and at the same moment as the work it interrupts,
so the run's time can be scaled to a fixed speed (see ``run.py``).
"""

import random
import signal
import time

import numpy as np

import modp

P = 32003
INTERVAL_S = 0.05
_RNG = random.Random(0)
_MATRIX = np.array([[_RNG.randrange(P) for _ in range(14)] for _ in range(12)],
                   dtype=np.int64)
# words over five letters and their reverses, made once: the reference only
# compares and looks them up, so it leaves no new objects in the heap of the
# run it interrupts
_WORDS = [tuple((i * 7 + j * j) % 5 for j in range(i % 17))
          for i in range(400)]
_PAIRS = [(w, w[::-1]) for w in _WORDS]
_INDEX = {w: len(w) for w in _WORDS + [r for _, r in _PAIRS]}


def reference():
    """Run the reference once (about 2 ms); its (wall, CPU) seconds."""
    t0, c0 = time.perf_counter(), time.process_time()
    total = 0
    for _ in range(12):
        for word, rev in _PAIRS:
            total += _INDEX[word if word <= rev else rev]
    modp.rank(_MATRIX, P)
    return time.perf_counter() - t0, time.process_time() - c0


class Sampler:
    """Times the reference from a SIGALRM handler every INTERVAL_S seconds
    between ``start`` and ``stop``.  ``spent`` is the (wall, CPU) time the
    handler took, to be taken off the interrupted run's times."""

    def __init__(self):
        self.samples = []
        self.spent = [0.0, 0.0]
        self._previous = None

    def _sample(self, signum, frame):
        t0, c0 = time.perf_counter(), time.process_time()
        self.samples.append(reference())
        self.spent[0] += time.perf_counter() - t0
        self.spent[1] += time.process_time() - c0

    def start(self):
        reference()                     # the first call warms its caches
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
