"""Call tracing for the benchmark's traced run.

The tracer replaces a module attribute -- the name a caller looks a function
up by, such as ``tvgeo.solver.geodesic_l1_median`` -- with a timing wrapper,
and puts the original back in ``restore``. Nothing inside the package
changes.

Every wrapped call is aggregated per name: call count, inclusive time, self
time and a log2 histogram of per-call times. Calls wrapped with ``span`` are
also kept one by one (name, start, end, parent span, thread); the hot leaves
(~1M geodesic distances per solve) are only aggregated. A call's self time is
its duration minus the time covered by the wrapped calls it made on the same
thread. State is per thread, so the solver's worker threads never share a
counter.
"""

from __future__ import annotations

import math
import os
import threading
from time import perf_counter

# The median's hemisphere test (tvgeo.robust_stats): a set with a point more
# than 88 degrees from its weighted centroid goes to the O(n^2) medoid.
_MAX_SPREAD_COS = math.cos(math.radians(88.0))

# Percentiles reported for per-call times, highest first.
TAIL_LADDER = (99.0, 90.0, 50.0)
MIN_BEYOND = 10

_END = object()


class Agg:
    """Aggregate of one traced name on one thread (merged across threads)."""

    __slots__ = ("calls", "total", "child", "hist", "samples", "intervals", "args", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        self.hist: dict[int, int] = {}
        self.samples: list[float] | None = None
        self.intervals: list[tuple[float, float]] | None = None
        self.args: list[tuple[object, float]] | None = None
        self.extra: dict[str, float] = {}

    @property
    def self_time(self) -> float:
        return self.total - self.child

    def add(self, dt: float) -> None:
        self.calls += 1
        self.total += dt
        bucket = math.frexp(dt)[1] if dt > 0.0 else -1074
        self.hist[bucket] = self.hist.get(bucket, 0) + 1

    def merge(self, other: "Agg") -> None:
        self.calls += other.calls
        self.total += other.total
        self.child += other.child
        for bucket, count in other.hist.items():
            self.hist[bucket] = self.hist.get(bucket, 0) + count
        if other.samples is not None:
            self.samples = (self.samples or []) + other.samples
        if other.intervals is not None:
            self.intervals = (self.intervals or []) + other.intervals
        if other.args is not None:
            self.args = (self.args or []) + other.args
        for key, value in other.extra.items():
            self.extra[key] = self.extra.get(key, 0.0) + value


class _ThreadState:
    __slots__ = ("stack", "aggs", "thread")

    def __init__(self) -> None:
        # Each frame is [child_seconds, span_id]; span_id is None for hot calls.
        self.stack: list[list] = []
        self.aggs: dict[str, Agg] = {}
        self.thread = threading.get_ident()

    def agg(self, name: str) -> Agg:
        agg = self.aggs.get(name)
        if agg is None:
            agg = self.aggs[name] = Agg()
        return agg


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._origin = perf_counter()
        self.spans: list[dict] = []
        self.bytes_in = 0
        self._outputs: list[str] = []

    # -- per-thread state -----------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    # -- patching ---------------------------------------------------------------

    def patch(self, module: object, attr: str, wrapper) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- wrappers ---------------------------------------------------------------

    def leaf(self, name: str, fn):
        """A hot call that makes no traced calls itself: aggregated only.
        Kept lean: it runs ~1M times per solve."""
        local = self._local
        state_of = self._state
        frexp = math.frexp

        def wrapper(*args):
            t0 = perf_counter()
            result = fn(*args)
            dt = perf_counter() - t0
            state = getattr(local, "state", None) or state_of()
            agg = state.aggs.get(name) or state.agg(name)
            agg.calls += 1
            agg.total += dt
            bucket = frexp(dt)[1]
            hist = agg.hist
            hist[bucket] = hist.get(bucket, 0) + 1
            stack = state.stack
            if stack:
                stack[-1][0] += dt
            return result

        return wrapper

    def hot(self, name: str, fn, *, samples=False, intervals=False, keep_args=False,
            count_none=False):
        """A hot call with traced children: aggregated with self time.

        samples keeps every per-call time (for percentiles), intervals keeps
        (start, end) pairs (for the wall time covered across threads),
        keep_args keeps the first argument (classified after the run, off the
        clock) and count_none counts calls that returned None.
        """
        state_of = self._state

        def wrapper(*args, **kwargs):
            state = state_of()
            frame = [0.0, None]
            state.stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                state.stack.pop()
                dt = t1 - t0
                agg = state.agg(name)
                agg.add(dt)
                agg.child += frame[0]
                if samples:
                    if agg.samples is None:
                        agg.samples = []
                    agg.samples.append(dt)
                if intervals:
                    if agg.intervals is None:
                        agg.intervals = []
                    agg.intervals.append((t0, t1))
                if keep_args:
                    if agg.args is None:
                        agg.args = []
                    agg.args.append((args[0], dt))
                if state.stack:
                    state.stack[-1][0] += dt
            if count_none and result is None:
                agg.extra["none"] = agg.extra.get("none", 0) + 1
            return result

        return wrapper

    def span(self, name: str, fn, *, after=None):
        """A call kept as a span. after(agg, args, result) runs off the clock."""

        def wrapper(*args, **kwargs):
            with self.region(name) as region:
                result = fn(*args, **kwargs)
            if after is not None:
                after(region.agg, args, result)
            return result

        return wrapper

    def region(self, name: str) -> "_Region":
        return _Region(self, name)

    def iter_rows(self, fn):
        """Wrap tvgeo._tsv.iter_rows: count rows and time each step of the
        generator, and add the file's size to bytes_in."""
        state_of = self._state
        tracer = self

        def wrapper(path):
            tracer.bytes_in += os.path.getsize(path)
            state = state_of()
            agg = state.agg("_tsv.iter_rows")
            gen = fn(path)
            try:
                while True:
                    t0 = perf_counter()
                    row = next(gen, _END)
                    dt = perf_counter() - t0
                    agg.total += dt
                    if state.stack:
                        state.stack[-1][0] += dt
                    if row is _END:
                        return
                    agg.calls += 1
                    yield row
            finally:
                gen.close()

        return wrapper

    def write_header(self, fn):
        """Wrap tvgeo._tsv.write_header to learn which files are written."""
        outputs = self._outputs

        def wrapper(fh, columns):
            name = getattr(fh, "name", None)
            if isinstance(name, str):
                outputs.append(name)
            return fn(fh, columns)

        return wrapper

    def bytes_out(self) -> int:
        """Total size of the files written through _tsv; call before they are
        deleted."""
        return sum(os.path.getsize(p) for p in self._outputs if os.path.isfile(p))

    # -- results ----------------------------------------------------------------

    def aggregates(self) -> dict[str, Agg]:
        merged: dict[str, Agg] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, agg in state.aggs.items():
                merged.setdefault(name, Agg()).merge(agg)
        return merged


class _Region:
    """A span around a block of code, recorded on exit."""

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.agg: Agg | None = None

    def __enter__(self) -> "_Region":
        tracer = self.tracer
        state = tracer._state()
        parent = next((f[1] for f in reversed(state.stack) if f[1] is not None), None)
        with tracer._lock:
            self.span_id = len(tracer.spans)
            tracer.spans.append(None)
        self.parent = parent
        self.state = state
        self.frame = [0.0, self.span_id]
        state.stack.append(self.frame)
        self.t0 = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        t1 = perf_counter()
        state = self.state
        state.stack.pop()
        dt = t1 - self.t0
        agg = self.agg = state.agg(self.name)
        agg.add(dt)
        agg.child += self.frame[0]
        if state.stack:
            state.stack[-1][0] += dt
        origin = self.tracer._origin
        self.tracer.spans[self.span_id] = {
            "id": self.span_id,
            "name": self.name,
            "start_s": self.t0 - origin,
            "end_s": t1 - origin,
            "self_s": dt - self.frame[0],
            "parent": self.parent,
            "thread": state.thread,
            "error": None if exc_type is None else exc_type.__name__,
        }


# -- arithmetic used on the aggregates ------------------------------------------


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        raise ValueError("percentile of an empty list")
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(n: int) -> float | None:
    """The highest percentile of TAIL_LADDER with at least MIN_BEYOND samples
    beyond it, or None when even the median has fewer."""
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= MIN_BEYOND:
            return p
    return None


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of [start, end] intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def is_wide(points, weights) -> bool:
    """True when a point lies more than 88 degrees from the weighted centroid
    (or the centroid is too close to zero to normalise), computed as the
    median's hemisphere test computes it. Such a set of three or more
    distinct points goes to the medoid."""
    if all(p == points[0] for p in points):
        return False
    vectors = []
    for p in points:
        lat, lon = math.radians(p.lat), math.radians(p.lon)
        vectors.append((math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon), math.sin(lat)))
    cx = math.fsum(w * v[0] for v, w in zip(vectors, weights))
    cy = math.fsum(w * v[1] for v, w in zip(vectors, weights))
    cz = math.fsum(w * v[2] for v, w in zip(vectors, weights))
    norm = math.sqrt(cx * cx + cy * cy + cz * cz)
    if norm < 1e-9 * math.fsum(weights):
        return True
    cx, cy, cz = cx / norm, cy / norm, cz / norm
    return min(v[0] * cx + v[1] * cy + v[2] * cz for v in vectors) < _MAX_SPREAD_COS
