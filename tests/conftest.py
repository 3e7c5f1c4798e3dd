"""Test-wide hypothesis profile: the same examples on every run, no deadline
(timings on a loaded machine vary), no example database written to disk,
and few enough examples that the property tests stay a small part of the
suite's time."""

from hypothesis import settings

settings.register_profile("co2learn", derandomize=True, deadline=None, database=None,
                          max_examples=60)
settings.load_profile("co2learn")
