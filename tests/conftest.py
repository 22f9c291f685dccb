"""Shared test configuration.

Hypothesis runs under one derandomized, time-boxed profile, so every
property test draws the same examples on every run and the suite stays
deterministic.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None,
                          max_examples=60, database=None)
settings.load_profile("deterministic")
