"""Speed calibration for the benchmark.

The machine this benchmark was defined on shares its cores with other
tenants, and its speed drifts by up to a third over minutes, which no
averaging inside one run removes.  Between ops the run times a fixed slice
of pure-Python work that never touches whilep but has the pipeline's mix: a
tree of small dicts, set algebra, a regex scan, recursion, a JSON round
trip of 60 kB and a scan over 6,000 small objects.  Each op's time is
scaled by REFERENCE_S over the median of the slices taken around it (from
half a second before it starts to half a second after it ends), so times
are reported at the speed the machine had when REFERENCE_S was measured.
The report prints the run's factor, so raw times can be recovered.
"""

from __future__ import annotations

import bisect
import gc
import json
import re
import statistics
import time

REFERENCE_S = 0.006
SLICE_EVERY_S = 0.25
BRACKET_S = 0.5
_REF_TOKEN = re.compile(r"\s*(?:(\d+)|(\w+)|(:=|.))")


def _ref_node(depth: int, i: int) -> dict:
    pts = {f"v{j}": [f"addr(2,{(i + j) % 3 + 1},{j % 2 + 1})"] for j in range(6)}
    return {"rule": "seq", "stmt": f"v{i % 6} := cons({i}, v{(i + 1) % 6}); skip",
            "pre": {"pts": pts, "live": sorted(pts)[: i % 6]},
            "premises": [_ref_node(depth - 1, 2 * i + k) for k in (0, 1)] if depth else []}


def _ref_read(doc: dict) -> int:
    live = frozenset(doc["pre"]["live"]) | {k for k, v in doc["pre"]["pts"].items() if v}
    return len(_REF_TOKEN.findall(doc["stmt"])) + len(live) + sum(map(_ref_read, doc["premises"]))


class _Cell:
    def __init__(self, length, instance, index):
        self.length, self.instance, self.index = length, instance, index


# a heap-like collection, scanned the way the interpreter looks for a free
# block instance
_CELLS = [_Cell(1 + i % 3, 1 + i // 3, 1) for i in range(6000)]


def _ref_scan() -> int:
    return sum(len({c.instance for c in _CELLS if c.length == n}) for n in (1, 2, 3))


def reference_slice() -> float:
    """Seconds taken by the fixed calibration work, garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        text = json.dumps(_ref_node(5, 1), sort_keys=True, indent=2)
        _ref_read(json.loads(text))
        _ref_scan()
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    return elapsed


class Speed:
    """Reference slices timed between ops, in time order."""

    def __init__(self):
        self.at: list = []       # midpoint of each slice
        self.seconds: list = []
        self.last = time.perf_counter()

    def sample(self, n: int = 1):
        for _ in range(n):
            start = time.perf_counter()
            seconds = reference_slice()
            self.at.append(start + seconds / 2)
            self.seconds.append(seconds)
        self.last = time.perf_counter()

    def between_ops(self):
        """Sample once per SLICE_EVERY_S passed since the last sample."""
        due = min(20, int((time.perf_counter() - self.last) / SLICE_EVERY_S))
        if due:
            self.sample(due)

    def factor(self, start: float | None = None, end: float | None = None) -> float:
        """REFERENCE_S over the median slice of the run or, given an interval,
        of the slices within BRACKET_S of it and at least the six nearest."""
        window = self.seconds
        if start is not None:
            mid = bisect.bisect(self.at, (start + end) / 2)
            lo = min(bisect.bisect_left(self.at, start - BRACKET_S), max(0, mid - 3))
            hi = max(bisect.bisect_right(self.at, end + BRACKET_S), mid + 3)
            window = self.seconds[lo:hi]
        return REFERENCE_S / statistics.median(window)


# how each unit scales with the speed factor
TIME_EXPONENT = {"s": 1, "ms": 1, "ms/op": 1, "op/s": -1, "B/s": -1}


def calibrate(metrics: dict, factor: float) -> dict:
    """Scale {name: (value, unit)} metrics to reference speed by unit."""
    return {k: (v * factor ** TIME_EXPONENT.get(u, 0), u) for k, (v, u) in metrics.items()}
