"""Closed-form upper bounds on the attractor dimension and the combined
two-sided report.

Both upper-bound formulas are asymptotic in the Grashof number G; the
log-brackets must be positive, and inputs violating that raise
``mla.NumericalError`` (the formulas say nothing about small G), which
``two_sided_report`` records as a note beside a blank bound.  The constant L
is a free input: pi on the sphere, unspecified on the torus.  Where the
filtered constant L(1 + alpha^2 lambda1), (4 + eps_G)^3 or a bound overflows
a float, they raise ValueError: the inputs are then out of range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import NumericalError
from .stability import lower_bound_dim2d

__all__ = [
    "BoundInputs",
    "TwoSidedReport",
    "upper_bound_1",
    "upper_bound_2",
    "two_sided_report",
]


@dataclass(frozen=True)
class BoundInputs:
    """Inputs for the dimension-bound evaluators.

    g: Grashof number; alpha: filter length; lambda1: first Stokes
    eigenvalue (1 on the torus, 2 = 1*(1+1) on the sphere); l_const: the
    geometric constant L (pi for the sphere); eps_g: the vanishing-as-G
    slack in the first bound (default 0, with the asymptotic caveat).
    """

    g: float
    alpha: float = 0.0
    lambda1: float = 1.0
    l_const: float = math.pi
    eps_g: float = 0.0

    def __post_init__(self):
        if self.g <= 0:
            raise ValueError(f"G must be positive, got {self.g}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be nonnegative, got {self.alpha}")
        if self.lambda1 <= 0:
            raise ValueError(f"lambda1 must be positive, got {self.lambda1}")
        if self.l_const <= 0:
            raise ValueError(f"L must be positive, got {self.l_const}")
        if self.eps_g < 0:
            raise ValueError(f"eps_G must be nonnegative, got {self.eps_g}")


def _filtered_l(inputs: BoundInputs) -> float:
    """L(1 + alpha^2 lambda1), the filtered constant of both upper bounds."""
    try:
        la = inputs.l_const * (1.0 + inputs.alpha**2 * inputs.lambda1)
        if la < math.inf:
            return la
    except OverflowError:
        pass
    raise ValueError("L(1 + alpha^2 lambda1) overflows a float "
                     f"(L={inputs.l_const}, lambda1={inputs.lambda1})")


def _slack_cubed(eps_g: float) -> float:
    """(4 + eps_G)^3 of upper_bound_1; ValueError where it overflows a float."""
    try:
        return (4.0 + eps_g) ** 3
    except OverflowError:
        raise ValueError(f"(4 + eps_g)^3 overflows a float (eps_g={eps_g})") from None


def _finite(value: float, formula: str) -> float:
    """value, or ValueError naming the formula where it is not finite."""
    if math.isfinite(value):
        return value
    raise ValueError(f"{formula} overflows a float")


def upper_bound_1(inputs: BoundInputs) -> float:
    """G^(2/3) ((4+eps)^3 / (3L(1+alpha^2 lambda1)) (log G - 1/2 log(L/2)))^(1/3)."""
    g, eps = inputs.g, inputs.eps_g
    la = _filtered_l(inputs)
    bracket = math.log(g) - 0.5 * math.log(inputs.l_const / 2.0)
    if bracket <= 0.0:
        raise NumericalError(
            f"log G - (1/2) log(L/2) = {bracket} <= 0 at G={g}, L={inputs.l_const}")
    return _finite(g ** (2.0 / 3.0) * (_slack_cubed(eps) / (3.0 * la) * bracket) ** (1.0 / 3.0),
                   "upper1 = G^(2/3) ((4 + eps_g)^3 / (3 L(1 + alpha^2 lambda1)) ...)^(1/3)")


def upper_bound_2(inputs: BoundInputs) -> float:
    """(12/sqrt(L(1+alpha^2 lambda1)))^(2/3) G^(2/3)
    (log G + 1/2 + log(3 sqrt2 / sqrt(L(1+alpha^2 lambda1))))^(1/3)."""
    g = inputs.g
    la = _filtered_l(inputs)
    bracket = math.log(g) + 0.5 + math.log(3.0 * math.sqrt(2.0) / math.sqrt(la))
    if bracket <= 0.0:
        raise NumericalError(
            f"log G + 1/2 + log(3 sqrt2/sqrt(L(1+a^2 l1))) = {bracket} <= 0 "
            f"at G={g}, L={inputs.l_const}, alpha={inputs.alpha}")
    u2 = (12.0 / math.sqrt(la)) ** (2.0 / 3.0) * g ** (2.0 / 3.0) * bracket ** (1.0 / 3.0)
    return _finite(u2, "upper2 = (12 / sqrt(L(1 + alpha^2 lambda1)))^(2/3) G^(2/3) (...)^(1/3)")


@dataclass(frozen=True)
class TwoSidedReport:
    """Lower vs upper dimension bounds at one (G, alpha) point.

    ``upper1``/``upper2`` are None when the log-bracket is non-positive
    (with the reason recorded in ``notes``); the ratio is upper_min /
    lower when both sides exist.
    """

    g: float
    alpha: float
    lower: float
    upper1: float | None
    upper2: float | None
    upper_min: float | None
    ratio: float | None
    alpha_regime_forms: dict
    notes: tuple[str, ...] = field(default_factory=tuple)


def two_sided_report(inputs: BoundInputs) -> TwoSidedReport:
    """Tabulate the 2-D lower bound against min(upper1, upper2).

    The small-alpha scaling window C1/alpha^2 <= dim <= C2 alpha^-2
    (log 1/alpha)^(1/3) is reported symbolically; its constants are
    structurally unspecified.
    """
    lower = lower_bound_dim2d(inputs.g, inputs.alpha)
    notes = []
    if inputs.eps_g == 0.0:
        notes.append("upper1 evaluated at eps_G = 0; the bound is asymptotic "
                     "(eps_G -> 0 as G -> infinity)")
    u1 = u2 = None
    try:
        u1 = upper_bound_1(inputs)
    except NumericalError as exc:
        notes.append(f"upper1 domain error: {exc}")
    try:
        u2 = upper_bound_2(inputs)
    except NumericalError as exc:
        notes.append(f"upper2 domain error: {exc}")
    candidates = [u for u in (u1, u2) if u is not None]
    upper_min = min(candidates) if candidates else None
    ratio = upper_min / lower.value if upper_min is not None else None
    return TwoSidedReport(
        g=inputs.g,
        alpha=inputs.alpha,
        lower=lower.value,
        upper1=u1,
        upper2=u2,
        upper_min=upper_min,
        ratio=ratio,
        alpha_regime_forms=lower.alpha_regime_forms,
        notes=tuple(notes),
    )
