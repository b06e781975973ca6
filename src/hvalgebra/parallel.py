"""Deterministic work distribution for the exhaustive checkers.

Checks over basis pairs/triples are independent, so they can be chunked
across worker threads; results are merged back in input order, which
makes every report identical regardless of the ``jobs`` setting.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def run_ordered(worker, items, jobs: int = 1) -> list:
    """Apply ``worker`` to every item, preserving input order exactly.

    At most ``os.cpu_count()`` worker threads are started, whatever ``jobs``.
    """
    items = list(items)
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1 or len(items) < 2:
        return [worker(item) for item in items]
    chunk_count = max(jobs * 4, 1)
    size = max(1, (len(items) + chunk_count - 1) // chunk_count)
    chunks = [items[i : i + size] for i in range(0, len(items), size)]

    def run_chunk(chunk):
        return [worker(item) for item in chunk]

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        parts = list(pool.map(run_chunk, chunks))
    return [result for part in parts for result in part]
