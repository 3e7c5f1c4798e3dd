"""Test-wide hypothesis profile: the same examples on every run, no deadline
(timings on a loaded machine vary), no example database written to disk,
and few enough examples that the property tests stay a small part of the
suite's time. And ``traced``, the one tracemalloc harness of the memory tests."""

import tracemalloc

import pytest
from hypothesis import settings

from co2learn import rng as rng_module

settings.register_profile("co2learn", derandomize=True, deadline=None, database=None,
                          max_examples=60)
settings.load_profile("co2learn")


@pytest.fixture
def traced(monkeypatch):
    """``traced(fn)`` calls ``fn()`` under tracemalloc and returns the traced
    peak in bytes, the bytes still held when ``fn`` returns, and its result.
    A ``normals`` result of ``rng._MAPPED_BYTES`` or more gets a memory map of
    its own, which tracemalloc does not see, so the fixture lifts that limit:
    every result then comes from numpy's allocator, with the same values."""
    monkeypatch.setattr(rng_module, "_MAPPED_BYTES", 2**62)

    def run(fn):
        tracemalloc.start()
        try:
            result = fn()
            held, peak = tracemalloc.get_traced_memory()
            return peak, held, result
        finally:
            tracemalloc.stop()
    return run
