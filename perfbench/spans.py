"""In-memory spans around the calls the benchmark makes into ballfix.

Spans are recorded from outside the program: `Tracer.install` replaces
module attributes of `ballfix` with wrappers that open a span (name, start,
end, parent) around the original call, and `Tracer.uninstall` puts the
originals back, so untraced passes run the unmodified code.  The maps handed
to the program go through `CountingMap`, which forwards exactly `eps`,
`dim`, `batch` and `__call__`, so the pipeline takes the same code path.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    """Spans and counters of one benchmark process.

    `spans[i]` is `[name, start, end, parent]`, with `parent` the index of
    the span open when span i began (None for a root).  A parent always
    precedes its children.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.recording = False
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        if not self.recording:
            yield
            return
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else None])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    @contextmanager
    def paused(self):
        """Record nothing inside, as for the benchmark's own checks."""
        recording, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = recording

    def count(self, key: str, amount: int = 1) -> None:
        if self.recording:
            self.counts[key] += amount

    def _wrapper(self, name: str, original, observe):
        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            self.count(name + ".calls")
            if observe is not None and self.recording:
                observe(self.counts, result)
            return result
        traced.__wrapped__ = original
        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap the layer boundaries of ballfix and start recording."""
        from ballfix import cli, geometry, oracle, pipeline

        def grid_points(counts, grid):
            counts["pipeline.build_sample_grid.points"] += len(grid)

        def rips_reject(counts, violation):
            counts["pipeline.simplicial_image_check.rejects"] += violation is not None

        def support_size(counts, embedded):
            counts["pipeline.embed.support"] += len(embedded.support)

        layers = [
            (pipeline, "build_sample_grid", grid_points),
            (pipeline, "simplicial_image_check", rips_reject),
            (pipeline, "embed", support_size),
            (pipeline, "extract_certificate", None),
            (oracle, "tightness_report", None),
            (oracle, "modulus_grid", None),
            (oracle, "jung_random_test", None),
            (geometry, "min_enclosing_ball", None),
            (cli, "main", None),
        ]
        for module, attr, observe in layers:
            name = f"{module.__name__.split('.')[-1]}.{attr}"
            self.patch(module, attr, self._wrapper(name, getattr(module, attr), observe))

        solve = self._wrapper("pipeline.find_fixed_point", pipeline.find_fixed_point, None)

        def find_fixed_point(F, *args, **kwargs):
            def counted(y):
                self.count("pipeline.find_fixed_point.F_evals")
                return F(y)
            return solve(counted, *args, **kwargs)

        self.patch(pipeline, "find_fixed_point", find_fixed_point)
        self.recording = True

    def uninstall(self) -> None:
        self.recording = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


class CountingMap:
    """Forwards `eps`, `dim`, `batch` and `__call__` of a map, counting the
    points evaluated (batch rows plus single calls)."""

    def __init__(self, f, tracer: Tracer | None = None):
        self._f = f
        self._tracer = tracer
        self.eps = f.eps
        self.dim = f.dim
        self.batch_rows = 0
        self.calls = 0

    def batch(self, xs):
        if self._tracer is None or not self._tracer.recording:
            values = self._f.batch(xs)
        else:
            with self._tracer.span("maps.batch"):
                values = self._f.batch(xs)
            self._tracer.count("maps.batch_calls")
        self.batch_rows += len(values)
        return values

    def __call__(self, x):
        if self._tracer is None or not self._tracer.recording:
            value = self._f(x)
        else:
            with self._tracer.span("maps.call"):
                value = self._f(x)
        self.calls += 1
        return value

    @property
    def f_evals(self) -> int:
        return self.batch_rows + self.calls


def span_totals(spans: list[list], indices) -> dict[str, dict[str, float]]:
    """Per span name over the given spans: total seconds, self seconds
    (minus the time its direct children cover) and count.  `indices` must
    hold every child of each span it holds, as one pass or one root does."""
    indices = list(indices)
    child_time = Counter()
    for index in indices:
        name, start, end, parent = spans[index]
        if parent is not None:
            child_time[parent] += end - start
    totals: dict[str, dict[str, float]] = {}
    for index in indices:
        name, start, end, _ = spans[index]
        entry = totals.setdefault(name, {"s": 0.0, "self_s": 0.0, "n": 0})
        entry["s"] += end - start
        entry["self_s"] += end - start - child_time[index]
        entry["n"] += 1
    return totals


def group_by_root(spans: list[list], first: int = 0, last: int | None = None) -> dict[int, list[int]]:
    """Span indices in [first, last), grouped by the root span they descend from."""
    last = len(spans) if last is None else last
    root: dict[int, int] = {}
    groups: dict[int, list[int]] = {}
    for index in range(first, last):
        parent = spans[index][3]
        root[index] = index if parent is None else root[parent]
        groups.setdefault(root[index], []).append(index)
    return groups
