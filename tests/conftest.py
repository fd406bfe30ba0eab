"""Shared test settings: with ``CI`` set, every Hypothesis property test draws
the same examples on each run and keeps no example database, so a CI run
cannot flake on a newly drawn example."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None)
if os.environ.get("CI"):
    settings.load_profile("ci")
