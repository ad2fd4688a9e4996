"""Settings shared by every test module.

Property tests run under one hypothesis profile: derandomized, so tier-1 draws
the same examples on every run; with no example database, so nothing is
written into the checkout; and with no deadline, since timings on a shared
machine vary too much for a per-example limit. Each test keeps its own
max_examples.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("tier1")
