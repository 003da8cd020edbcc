"""The traced memory peak of a call, for the tests' memory bounds."""

import tracemalloc


def traced_peak(fn):
    """(fn(), the peak bytes tracemalloc traced while fn ran)."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak
