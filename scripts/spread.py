"""The spread of alternating timing rounds, as the compare scripts print it.

Round r of the parent and round r of the change ran back to back, so they
form a pair; the change wins a pair when it took less time.
"""

from __future__ import annotations

import statistics


def quartiles(times: list[float], digits: int) -> str:
    """The first and third quartiles of `times`, as "q1-q3"."""
    q1, _, q3 = statistics.quantiles(times, n=4)
    return f"{q1:.{digits}f}-{q3:.{digits}f}"


def wins(parent: list[float], change: list[float]) -> str:
    """How many of the paired rounds the change took less time in, as "k/n"."""
    return f"{sum(c < p for p, c in zip(parent, change))}/{len(parent)}"
