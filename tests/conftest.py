"""Hypothesis profiles for the property tests.

``ci``, loaded by default, draws the same examples on every run, so a push
or pull request is checked on a fixed set. ``fuzz`` draws new examples each
run; select it with ``pytest --hypothesis-profile=fuzz``.
"""
from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None, database=None)
settings.register_profile("fuzz", derandomize=False, deadline=None, database=None, print_blob=True)
settings.load_profile("ci")
