"""The one ordered loop that every exhaustive checker runs its instances through.

Checks and solves run serially: the work is pure-Python ``Fraction``
arithmetic under the GIL, and a thread pool made it slower, not faster.
The module stays as a single seam so the benchmark tracer can span
``run_ordered`` and count its items.
"""

from __future__ import annotations


def run_ordered(worker, items) -> list:
    """Apply ``worker`` to every item, preserving input order exactly."""
    return [worker(item) for item in items]
