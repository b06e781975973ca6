"""Ordered work distribution for the exhaustive checkers."""

import os

from hvalgebra import parallel


def test_run_ordered_caps_workers_at_the_cpu_count(monkeypatch):
    created = []

    class RecordingExecutor:
        """Stands in for ThreadPoolExecutor: records its size, starts no
        thread and runs the chunks serially."""

        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, chunks):
            return [func(chunk) for chunk in chunks]

    monkeypatch.setattr(parallel, "ThreadPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    items = list(range(50))
    squares = parallel.run_ordered(lambda n: n * n, items, jobs=10_000)
    assert squares == [n * n for n in items]
    assert created == [os.cpu_count()]
