"""Test-session settings: hypothesis runs derandomized, with no deadline.

Derandomized runs draw the same examples on every run, so the suite stays
reproducible; the deadline is off because shared machines time unevenly.
"""

from hypothesis import settings

settings.register_profile("saalib", derandomize=True, deadline=None)
settings.load_profile("saalib")
