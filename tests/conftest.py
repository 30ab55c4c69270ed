"""Hypothesis settings for the whole suite.

The `too_slow` health check times input generation, which on a loaded
runner can fail a test whose inputs are tiny (lists of a few syllables).
The profile suppresses that check only; deadlines, example counts and
derandomization stay as each test sets them.
"""

from hypothesis import HealthCheck, settings

settings.register_profile("suite", suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")
