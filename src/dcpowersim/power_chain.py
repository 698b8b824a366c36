"""PDU and UPS loss models for the power supply chain.

Each PDU loses an idle floor plus a term quadratic in the load it carries;
the UPS loses an idle floor plus a term proportional to its throughput
(the IT load together with the downstream PDU losses it must feed):

    pdu_loss = pdu_idle_total + pdu_count * lambda_pdu * (load / pdu_count)^2
    ups_loss = ups_idle + lambda_ups * (load + pdu_loss)

Load is assumed perfectly balanced across the PDUs.  The loss coefficients
are rarely published, so :func:`calibrate_supply` back-solves them from a
single design statement, :class:`SupplyTargets`: total supply loss at farm
peak equals a given fraction of that peak (15% is typical), with the
non-idle part split 3:4 between the PDU quadratic and UPS proportional term.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import (AT_LEAST_ONE, NONNEGATIVE, POSITIVE, InfeasibleTarget,
                     InvariantViolation, NegativeInput, OutOfRange, _Record,
                     check)

# Split of the proportional (non-idle) peak loss between PDU and UPS.
_PDU_PROPORTIONAL_SHARE = 3.0 / 7.0
_UPS_PROPORTIONAL_SHARE = 4.0 / 7.0


class SupplyChainSpec(_Record):
    """Concrete loss coefficients for a PDU bank plus UPS:
    ``pdu_idle_total_w`` is the idle draw of all PDUs combined,
    ``lambda_pdu_per_w`` the quadratic loss coefficient (1/W) and
    ``lambda_ups`` the proportional one (dimensionless)."""

    def __init__(self, pdu_count: int, pdu_idle_total_w: float,
                 ups_idle_w: float, lambda_pdu_per_w: float,
                 lambda_ups: float) -> None:
        check(InvariantViolation, pdu_count=(pdu_count, AT_LEAST_ONE),
              pdu_idle_total_w=(pdu_idle_total_w, NONNEGATIVE),
              ups_idle_w=(ups_idle_w, NONNEGATIVE),
              lambda_pdu_per_w=(lambda_pdu_per_w, NONNEGATIVE),
              lambda_ups=(lambda_ups, NONNEGATIVE))
        self._set(pdu_count=pdu_count, pdu_idle_total_w=pdu_idle_total_w,
                  ups_idle_w=ups_idle_w, lambda_pdu_per_w=lambda_pdu_per_w,
                  lambda_ups=lambda_ups)


class SupplyTargets(NamedTuple):
    """What :func:`calibrate_supply` solves for; the idle draws and the
    total loss at farm peak are fractions of the farm peak."""

    pdu_count: int = 100
    pdu_idle_total_frac: float = 0.015
    ups_idle_frac: float = 0.03
    peak_loss_frac: float = 0.15


class SupplyLoss(NamedTuple):
    pdu_loss_w: float
    ups_loss_w: float

    @property
    def total_w(self) -> float:
        return self.pdu_loss_w + self.ups_loss_w


def pdu_loss(farm_power_w: float, spec: SupplyChainSpec) -> float:
    """Combined loss of all PDUs carrying ``farm_power_w``, watts."""
    check(NegativeInput, farm_power_w=(farm_power_w, NONNEGATIVE))
    try:
        loss_w = (spec.pdu_idle_total_w + spec.pdu_count * spec.lambda_pdu_per_w
                  * (farm_power_w / spec.pdu_count) ** 2)
    except OverflowError:   # float ** raises where * would give inf
        raise OutOfRange(f"farm power {farm_power_w!r} W is too large") from None
    check(OutOfRange, pdu_loss_w=(loss_w, NONNEGATIVE))
    return loss_w


def ups_loss(farm_power_w: float, pdu_loss_w: float,
             spec: SupplyChainSpec) -> float:
    """UPS loss in watts; throughput is the IT load plus PDU losses."""
    check(NegativeInput, farm_power_w=(farm_power_w, NONNEGATIVE),
          pdu_loss_w=(pdu_loss_w, NONNEGATIVE))
    loss_w = spec.ups_idle_w + spec.lambda_ups * (farm_power_w + pdu_loss_w)
    check(OutOfRange, ups_loss_w=(loss_w, NONNEGATIVE))
    return loss_w


def supply_loss(farm_power_w: float, spec: SupplyChainSpec) -> SupplyLoss:
    """PDU and UPS losses for one farm power level."""
    p = pdu_loss(farm_power_w, spec)
    loss = SupplyLoss(pdu_loss_w=p, ups_loss_w=ups_loss(farm_power_w, p, spec))
    check(OutOfRange, supply_loss_w=(loss.total_w, NONNEGATIVE))
    return loss


def calibrate_supply(farm_peak_w: float,
                     targets: SupplyTargets = SupplyTargets()
                     ) -> SupplyChainSpec:
    """Solve for loss coefficients hitting ``peak_loss_frac`` at farm peak.

    Idle draws are fixed fractions of the farm peak; the remaining loss
    budget at peak is split 3:4 between the PDU quadratic term and the
    UPS proportional term, then each coefficient is solved in closed form.
    The result reproduces the target exactly:
    ``supply_loss(farm_peak_w).total_w == peak_loss_frac * farm_peak_w``.
    ``pdu_count`` has no effect on any output: it multiplies ``lambda_pdu``
    here, and the loss divides it out again.  The targets are checked
    first, under their own names.
    """
    pdu_count, pdu_idle_frac, ups_idle_frac, peak_loss_frac = targets
    check(InvariantViolation, pdu_count=(pdu_count, AT_LEAST_ONE),
          pdu_idle_total_frac=(pdu_idle_frac, NONNEGATIVE),
          ups_idle_frac=(ups_idle_frac, NONNEGATIVE))
    check(NegativeInput, farm_peak_w=(farm_peak_w, POSITIVE))
    check(InvariantViolation, peak_loss_frac=(
        peak_loss_frac, (lambda v: 0.0 < v < 1.0, "lie in (0, 1)")))
    pdu_idle_w = pdu_idle_frac * farm_peak_w
    ups_idle_w = ups_idle_frac * farm_peak_w
    proportional_budget_w = (peak_loss_frac - pdu_idle_frac
                             - ups_idle_frac) * farm_peak_w
    if proportional_budget_w < 0.0:
        raise InfeasibleTarget(
            "idle fractions alone exceed the peak loss target "
            f"({pdu_idle_frac + ups_idle_frac} > {peak_loss_frac})"
        )
    pdu_quad_peak_w = proportional_budget_w * _PDU_PROPORTIONAL_SHARE
    ups_lin_peak_w = proportional_budget_w * _UPS_PROPORTIONAL_SHARE
    try:
        lambda_pdu = pdu_quad_peak_w * pdu_count / farm_peak_w ** 2
    except OverflowError:   # float ** raises where * would give inf
        raise OutOfRange(f"farm peak {farm_peak_w!r} W is too large") from None
    except ZeroDivisionError:   # its square underflowed to 0
        raise OutOfRange(f"farm peak {farm_peak_w!r} W is too small") from None
    pdu_loss_peak_w = pdu_idle_w + pdu_quad_peak_w
    lambda_ups = ups_lin_peak_w / (farm_peak_w + pdu_loss_peak_w)
    return SupplyChainSpec(
        pdu_count=pdu_count,
        pdu_idle_total_w=pdu_idle_w,
        ups_idle_w=ups_idle_w,
        lambda_pdu_per_w=lambda_pdu,
        lambda_ups=lambda_ups,
    )
