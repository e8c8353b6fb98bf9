"""Canonical time-unit constants for the whole reproduction.

Every quantity in the simulator is carried in **seconds** (SWF's native
unit); reports convert to hours/days at the edge.  These constants are
the only blessed definitions of the conversion factors — the test
suite (``tests/test_workload_stats.py::TestCanonicalUnits``) fails
when any other module defines one of them, which is how three
independent copies of ``SECONDS_PER_HOUR`` crept into the workload
package historically.
"""

from __future__ import annotations

#: seconds in one minute
SECONDS_PER_MINUTE = 60.0
#: minutes in one hour
MINUTES_PER_HOUR = 60.0
#: seconds in one hour — divide a seconds quantity by this to get hours
SECONDS_PER_HOUR = 3600.0
#: hours in one day
HOURS_PER_DAY = 24.0
#: seconds in one day
SECONDS_PER_DAY = 24 * SECONDS_PER_HOUR
#: seconds in one week — the span of one real jobset (§IV-D)
SECONDS_PER_WEEK = 7 * SECONDS_PER_DAY

__all__ = [
    "HOURS_PER_DAY",
    "MINUTES_PER_HOUR",
    "SECONDS_PER_DAY",
    "SECONDS_PER_HOUR",
    "SECONDS_PER_MINUTE",
    "SECONDS_PER_WEEK",
]
