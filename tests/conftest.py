"""Shared test configuration: hypothesis profiles for the two CI legs.

Tier-1 runs the ``dev`` profile — few examples, no deadline — so the
property suites stay a smoke check and the suite stays fast.  The
dedicated property CI leg exports ``HYPOTHESIS_PROFILE=ci`` and runs
every test file that imports hypothesis: many more examples, still
deadline-free (generated worlds and process pools make per-example
wall clocks too noisy for hypothesis's default 200 ms deadline to be
meaningful).
"""

import os

from hypothesis import HealthCheck, settings

settings.register_profile(
    "dev",
    deadline=None,
    max_examples=20,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "ci",
    deadline=None,
    max_examples=200,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))
