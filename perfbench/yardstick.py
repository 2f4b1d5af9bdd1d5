"""A fixed pure-Python yardstick for the machine's current speed.

On a shared host the speed of this process drifts by 10-20% within seconds,
and every kind of Python code slows alike.  The benchmark runs the yardstick
next to what it measures and scales each time by
REFERENCE_CHUNK_S / (mean yardstick chunk time), so times are reported as
seconds at the speed where one chunk takes REFERENCE_CHUNK_S.  The chunk
does not touch qfsplit, so no change to the package can move it.
"""

from __future__ import annotations

import time

REFERENCE_CHUNK_S = 3.0e-4

_A = {(i % 7, i // 7): (37 * i + 11) % 10007 for i in range(40)}
_B = {(i % 5, i // 5): (53 * i + 7) % 10007 for i in range(25)}


def chunk() -> dict:
    """One sparse product of two fixed dict polynomials."""
    out = {}
    for (a1, b1), c1 in _A.items():
        for (a2, b2), c2 in _B.items():
            key = (a1 + a2, b1 + b2)
            out[key] = (out.get(key, 0) + c1 * c2) % 10007
    return out


def run(seconds: float) -> tuple[int, float]:
    """Run chunks for at least ``seconds``; returns (chunks, elapsed)."""
    start = time.perf_counter()
    chunks = 0
    while True:
        chunk()
        chunks += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return chunks, elapsed


def scale(*samples: tuple[int, float]) -> float:
    """Factor turning measured seconds into reference-speed seconds."""
    return REFERENCE_CHUNK_S * sum(n for n, _ in samples) / sum(s for _, s in samples)
