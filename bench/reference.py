"""Reference probe: converts measured times to reference-speed times.

On a shared host the speed of one core swings by half or more over tens of
seconds, and every Python loop in this process slows together (CPU time
moves with wall time, so the slowdown is the core, not descheduling). Such
a swing moves a whole 30-second run, so no estimator over that run's own
timings removes it. The benchmark therefore times a fixed pure-Python probe
next to the work: once before each unit of work and a few times before each
set-up. The probe uses what limitlearn's hot loops use -- dict, set and list
updates, tuples and a sort -- and none of limitlearn's code, so a change to
the program never changes the probe.

A reference time is a measured time scaled by REF_PROBE_S over the probe
time measured beside it: the time the work would take on a core where the
probe takes REF_PROBE_S, about its time on a quiet core of the 2-core
sandbox the benchmark was sized on. The raw times stay in the result file.
"""

from __future__ import annotations

import statistics
import time

# probe time that defines the reference speed
REF_PROBE_S = 0.003
PROBE_RESULT = 9338


def probe() -> int:
    """Fixed work of a few milliseconds; returns PROBE_RESULT."""
    counts: dict[int, int] = {}
    pairs: list[tuple[int, int]] = []
    seen: set[int] = set()
    for i in range(6000):
        k = (i * 7919) % 5003
        counts[k] = counts.get(k, 0) + 1
        pairs.append((k, i))
        seen.add(k ^ i)
    pairs.sort()
    return len(counts) + len(seen)


def probe_s() -> float:
    """Duration of one probe."""
    start = time.perf_counter()
    if probe() != PROBE_RESULT:
        raise RuntimeError("reference probe returned a wrong result")
    return time.perf_counter() - start


def scale(measured_s: float, probes: list[float]) -> float:
    """measured_s at reference speed, the speed taken from probes beside it."""
    return measured_s * REF_PROBE_S / statistics.median(probes)


def per_unit(unit_s: list[float], probes: list[float], window: int = 2) -> list[float]:
    """Each unit at reference speed, the speed taken from the probes around it.

    probes[k] ran just before unit k and probes[len(unit_s)] after the last
    one; unit k uses the median of probes k - window .. k + 1 + window.
    """
    return [
        scale(u, probes[max(0, k - window): k + 2 + window]) for k, u in enumerate(unit_s)
    ]
