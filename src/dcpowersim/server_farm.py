"""Server-farm power model.

A homogeneous cluster of ``count`` servers is driven by one aggregate
utilisation figure.  Task consolidation is a single knob: at 0 the workload
is packed onto the minimum number of running servers, at 1 it is spread
uniformly across the whole farm.

Key relations:

    per-server draw      p(u)   = p_idle + (p_peak - p_idle) * u
    running fraction     r(U,L) = L * (1 - U) + U
    per-server load      u_i    = U / r(U,L)
    farm power           P      = count * r(U,L) * p(u_i)

Servers beyond the running fraction are powered off and draw nothing.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import (AT_LEAST_ONE, NONNEGATIVE, UNIT, InvariantViolation,
                     OutOfRange, _Record, check)


class ServerSpec(_Record):
    """Homogeneous server population and its idle/peak draw in watts."""

    def __init__(self, count: int, p_idle_w: float, p_peak_w: float) -> None:
        check(InvariantViolation, count=(count, AT_LEAST_ONE),
              p_idle_w=(p_idle_w, NONNEGATIVE),
              p_peak_w=(p_peak_w, NONNEGATIVE))
        if p_idle_w > p_peak_w:
            raise InvariantViolation("p_idle_w must be <= p_peak_w, got "
                                     f"{p_idle_w!r} > {p_peak_w!r}")
        self._set(count=count, p_idle_w=p_idle_w, p_peak_w=p_peak_w)

    @property
    def farm_peak_w(self) -> float:
        """Design peak of the whole farm (all servers at full load)."""
        return float(self.count) * self.p_peak_w


class FarmState(NamedTuple):
    """Operating point of the farm for one aggregate utilisation figure."""

    per_server_utilisation: float
    running_count: float


def effective_server_utilisation(total_utilisation: float,
                                 consolidation: float) -> float:
    """Per-running-server utilisation for a given consolidation level.

    The expression is 0/0 when both arguments are zero; the continuous
    limit along full consolidation is used, so an empty, fully packed
    farm reports zero per-server load.
    """
    check(OutOfRange, utilisation=(total_utilisation, UNIT),
          consolidation=(consolidation, UNIT))
    if total_utilisation == 0.0:
        return 0.0
    running_fraction = consolidation * (1.0 - total_utilisation) + total_utilisation
    return total_utilisation / running_fraction


def server_power(utilisation: float, spec: ServerSpec) -> float:
    """Single-server draw in watts, linear between idle and peak."""
    check(OutOfRange, utilisation=(utilisation, UNIT))
    return spec.p_idle_w + (spec.p_peak_w - spec.p_idle_w) * utilisation


def farm_state(total_utilisation: float, consolidation: float,
               spec: ServerSpec) -> FarmState:
    """Running count and per-server load implied by the aggregate figures.

    Conservation holds exactly: running_count * per_server_utilisation
    equals count * total_utilisation.
    """
    per_server = effective_server_utilisation(total_utilisation, consolidation)
    running_fraction = consolidation * (1.0 - total_utilisation) + total_utilisation
    return FarmState(
        per_server_utilisation=per_server,
        running_count=spec.count * running_fraction,
    )


def farm_power(total_utilisation: float, consolidation: float,
               spec: ServerSpec) -> float:
    """Total farm draw in watts; powered-off servers contribute nothing."""
    state = farm_state(total_utilisation, consolidation, spec)
    return state.running_count * server_power(state.per_server_utilisation, spec)
