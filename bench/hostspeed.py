"""Scaling of timings to a nominal host speed.

The benchmark's reference machine is a 2-vCPU KVM guest whose speed is not
its own: with no CPU migration and no steal time reported, a fixed
pure-Python loop there runs at one speed for a few seconds and then at up
to 2x slower for a few more, so the median of a whole 25-second run moves
by as much between runs, whatever the program does. To keep that drift out
of the end-to-end metrics, the benchmark runs a fixed reference burst
(small numpy calls, closure-holding objects and a character scan, the mix
emofuse spends its time on) every INTERVAL seconds, also in the middle of
a long call, and scales each timed interval, less the bursts inside it,
by NOMINAL_S over the median cost of the bursts within HALO of it. A
scaled duration is what the interval would have taken on a host running
the burst in NOMINAL_S seconds; the unscaled figures (bursts taken out,
not scaled) go to the environment line.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left, bisect_right

import numpy as np

NOMINAL_S = 1.4e-3  # the burst's typical cost on the reference machine
INTERVAL = 0.05     # seconds between bursts
HALO = 0.1          # bursts this close to a timed interval are its neighbours

_VECTORS = np.random.default_rng(0).standard_normal((40, 32))
_TEXT = "so happy to see you all tonight \U0001F389 the party was great, thanks! " * 40
_MARKS = frozenset(range(0x1F300, 0x1FB00))


class _Node:
    __slots__ = ("value", "parents", "backward")

    def __init__(self, value, parents, backward):
        self.value, self.parents, self.backward = value, parents, backward


def _is_mark(cp: int) -> bool:
    return cp in _MARKS


def reference_burst() -> float:
    """A fixed amount of work shaped like emofuse's, and independent of it.

    Elementwise numpy calls on short vectors and a chain of small objects
    holding closures (the autodiff tape's pattern), then a character scan
    that splits words and marks (the tokenizer's pattern).
    """
    total = 0.0
    for row in _VECTORS:
        y = np.tanh(row * 0.5 + row)
        total += float((y * np.exp(-y)).sum())
    nodes = [_Node(0, (), None)]
    for i in range(1, 400):
        nodes.append(_Node(i, (nodes[-1],), lambda g, i=i: g * i))
    total += sum(node.backward(2) for node in nodes[1:])
    words, buffer = [], []
    for ch in _TEXT:
        if ch == " " or _is_mark(ord(ch)):
            if buffer:
                words.append("".join(buffer).lower())
                buffer.clear()
        else:
            buffer.append(ch)
    return total + len(words)


class HostSpeed:
    """Reference bursts run from a SIGALRM every INTERVAL seconds, and the scaling they give.

    The handler runs in the main thread between bytecodes, so a burst falls
    wholly inside or wholly outside any timed interval.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []

    def _burst(self, signum, frame):
        began = time.perf_counter()
        reference_burst()
        self.starts.append(began)
        self.ends.append(time.perf_counter())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._burst)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def costs(self) -> list[float]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def _near(self, start: float, end: float) -> list[tuple[float, float]]:
        """Bursts within HALO of the interval, or else the one nearest to its start."""
        lo = bisect_left(self.starts, start - HALO)
        hi = bisect_right(self.ends, end + HALO)
        near = list(zip(self.starts[lo:hi], self.ends[lo:hi]))
        if near:
            return near
        i = min(bisect_left(self.starts, start), len(self.starts) - 1)
        return [min(((self.starts[k], self.ends[k]) for k in {max(i - 1, 0), i}),
                    key=lambda burst: abs(burst[0] - start))]

    def net(self, start: float, end: float) -> float:
        """The interval's length less the bursts that ran inside it."""
        return end - start - sum(b - a for a, b in self._near(start, end) if a >= start and b <= end)

    def scaled(self, start: float, end: float) -> float:
        """`net` times NOMINAL_S over the median cost of the nearby bursts."""
        return self.net(start, end) * NOMINAL_S / statistics.median(
            b - a for a, b in self._near(start, end))
