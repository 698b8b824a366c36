"""Strategies and helpers that more than one test module uses.

Every strategy, here and in the test modules, is built once, at import.
Hypothesis validates each new strategy object before its first draw, so
one built inside a composite body is validated again on every draw.  A
strategy whose bounds depend on a drawn size is a table keyed by the size.
"""

import datetime as dt
import sys

from hypothesis import strategies as st

from dcpowersim.config import _INT_KEYS, _KEYS
from dcpowersim.cooling import EerTable
from dcpowersim.errors import SimulationError
from dcpowersim.profiles import AmbientProfile, UtilisationProfile

LARGEST = sys.float_info.max
# The config keys that take a float.
FLOAT_KEYS = sorted(_KEYS.keys() - _INT_KEYS - {"architecture", "eer.table"})
LAST_HOUR = dt.datetime(9999, 12, 31, 23)
MAX_ROWS = 40   # the longest drawn EER table or profile
INDEX = {n: st.integers(0, n - 1) for n in range(1, MAX_ROWS + 1)}
BOMS = st.sampled_from(["", "\ufeff"])


def stamps(n: int) -> tuple[str, ...]:
    return tuple(f"2016-06-{1 + h // 24:02d}T{h % 24:02d}:00"
                 for h in range(n))


def profiles_from(us, ts):
    """The utilisation and ambient profiles of ``us`` and ``ts``, stamped
    by ``stamps``."""
    n = len(us)
    return (UtilisationProfile(stamps(n), tuple(us)),
            AmbientProfile(stamps(n), tuple(ts)))


def spelled(when, kind):
    """``when`` as a stamp that strptime reads: unpadded, or with spaces
    around it, two before ("spaces") or two after ("spaced"); any other
    kind is canonical."""
    if kind == "unpadded":   # strptime takes one-digit fields
        return (f"{when.year:04d}-{when.month}-{when.day}T{when.hour}:"
                f"{when.minute}")
    stamp = when.isoformat(timespec="minutes")
    return {"spaces": f"  {stamp} ", "spaced": f" {stamp}  "}.get(kind, stamp)


def outcome(call, *args):
    """What ``call(*args)`` returns, or the type and message of the
    ``SimulationError`` it raises."""
    try:
        return call(*args)
    except SimulationError as exc:
        return type(exc), str(exc)


def eer_tables(temps=st.floats(-40.0, 50.0), eers=st.floats(0.5, 10.0)):
    """Valid tables of 1-40 breakpoints: the distinct values of 1-40 drawn
    ambients (0.0 and -0.0 are one), descending, each with one of as many
    drawn EERs, ascending, so that EER is nonincreasing in ambient."""
    sizes = st.integers(1, MAX_ROWS)
    ambients = {n: st.lists(temps, min_size=n, max_size=n)
                for n in range(1, MAX_ROWS + 1)}
    values = {n: st.lists(eers, min_size=n, max_size=n)
              for n in range(1, MAX_ROWS + 1)}

    @st.composite
    def tables(draw):
        distinct = sorted(set(draw(ambients[draw(sizes)])), reverse=True)
        return EerTable(tuple(zip(distinct,
                                  sorted(draw(values[len(distinct)])))))

    return tables()


EER_TABLES = eer_tables()
