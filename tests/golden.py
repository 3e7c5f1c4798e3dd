"""Additive regeneration of the stored golden files.

Running ``tests/test_golden.py`` or ``tests/test_golden_pool.py`` as a script
adds to its stored file the values the file lacks and keeps every value it
has, so pinning a new value never re-anchors the old ones. To re-anchor a
whole file, for a change that is meant to move the outputs, delete it first.
"""

from __future__ import annotations

import json
import os


def load_stored(path: str) -> dict:
    """The stored golden values at ``path``; empty when there is no file."""
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return json.load(fh)


def merge_missing(stored, current):
    """``stored`` with what it lacks of ``current`` added: keys missing from a
    dict, recursively, and from the dicts of a list as long as ``current``'s.
    Every stored value is kept, a series of numbers whole."""
    if isinstance(stored, dict) and isinstance(current, dict):
        merged = {key: merge_missing(value, current[key]) if key in current else value
                  for key, value in stored.items()}
        merged.update((key, value) for key, value in current.items() if key not in stored)
        return merged
    if (isinstance(stored, list) and isinstance(current, list) and len(stored) == len(current)
            and all(isinstance(item, dict) for item in stored + current)):
        return [merge_missing(a, b) for a, b in zip(stored, current)]
    return stored
