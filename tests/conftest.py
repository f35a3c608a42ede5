"""One hypothesis profile for every property test.

Examples are derandomized, so tier-1 runs the same cases every time; no
example database is written and no per-example deadline applies.  Tests
set only max_examples.
"""

from hypothesis import settings

settings.register_profile("affweyl", derandomize=True, database=None, deadline=None)
settings.load_profile("affweyl")
