"""Test-session settings: Hypothesis draws the same examples on every run
and keeps no example database, so a run neither varies from the last nor
writes ``.hypothesis/``."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")
