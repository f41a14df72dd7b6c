"""Shared test fixtures."""

import tracemalloc

import pytest


def _traced_peak(fn, *args):
    """``fn(*args)``, and the peak of the memory it traced above its
    entry, in bytes: its result and every temporary it held at once."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak, result


@pytest.fixture
def traced_peak():
    """The helper ``traced_peak(fn, *args) -> (peak bytes, result)``."""
    return _traced_peak
