"""Every closed-form attractor-dimension bound: the Grashof number, the 2-D
lower bound, the two upper bounds and their two-sided report, and the 3-D
lower bound of the Squire lift, in plain ``math`` and without NumPy.

Both upper-bound formulas are asymptotic in the Grashof number G; the
log-brackets must be positive, and inputs violating that raise
``mla.NumericalError`` (the formulas say nothing about small G), which
``two_sided_report`` records as a note beside a blank bound.  The constant L
is a free input: pi on the sphere, unspecified on the torus.  Where
L(1 + alpha^2 lambda1), (4 + eps_G)^3, alpha^3 or a bound overflows a float,
they raise ValueError: the inputs are then out of range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import NumericalError

__all__ = [
    "BoundInputs",
    "grashof",
    "lower_bound_dim2d",
    "lower_bound_dim3d",
    "upper_bound_1",
    "upper_bound_2",
    "two_sided_report",
    "LOWER_COEFF_ALPHA0",
    "LOWER_COEFF_SMALL_ALPHA",
]

#: Two-digit lower-bound coefficients (dimension >= coeff * G^(2/3)).
LOWER_COEFF_ALPHA0 = 0.006
LOWER_COEFF_SMALL_ALPHA = 0.0018


def _finite(formula: str, compute, detail: str = "") -> float:
    """compute(), or ValueError naming the formula where that overflows a
    float: raises OverflowError, as ``**`` does, or returns inf."""
    try:
        value = compute()
        if math.isfinite(value):
            return value
    except OverflowError:
        pass
    raise ValueError(f"{formula} overflows a float{detail}")


def grashof(lam: float, s: int) -> float:
    """Grashof number G = lam s^2 (first Stokes eigenvalue 1 on the torus)."""
    return lam * s**2


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


def lower_bound_dim2d(g: float, alpha: float) -> dict:
    """Attractor-dimension lower bound coeff * G^(2/3).

    alpha = 0 uses 0.006; 0 < alpha << 1 (the G ~ alpha^-3 regime) uses
    0.0018.  The pure alpha-scaling forms C1/alpha^2 and
    C2 alpha^-2 (log 1/alpha)^(1/3) are reported symbolically: C1 and C2
    are structurally unspecified.

    Returns the dict summary.json's ``lower_bound_2d`` holds: ``g``,
    ``alpha``, the regime's two-digit ``coefficient``, ``value`` = coeff *
    G^(2/3), ``regime``, and ``alpha_regime_forms``, the symbolic
    small-alpha window whose constants the analysis leaves free.
    """
    BoundInputs(g=g, alpha=alpha)  # ValueError unless G > 0 and alpha >= 0
    coeff = LOWER_COEFF_ALPHA0 if alpha == 0.0 else LOWER_COEFF_SMALL_ALPHA
    regime = "alpha=0" if alpha == 0.0 else "small-alpha"
    forms = {
        "lower": "C1 / alpha^2",
        "upper": "C2 / alpha^2 * (log(1/alpha))^(1/3)",
        "C1": None,
        "C2": None,
        "note": "C1, C2 unspecified by the analysis",
    }
    return {
        "g": g, "alpha": alpha, "coefficient": coeff, "value": coeff * g ** (2.0 / 3.0),
        "regime": regime, "alpha_regime_forms": forms,
    }


def _filtered_l(inputs: BoundInputs) -> float:
    """L(1 + alpha^2 lambda1), the filtered constant of both upper bounds."""
    return _finite("L(1 + alpha^2 lambda1)",
                   lambda: inputs.l_const * (1.0 + inputs.alpha**2 * inputs.lambda1),
                   f" (L={inputs.l_const}, lambda1={inputs.lambda1})")


def _slack_cubed(eps_g: float) -> float:
    """(4 + eps_G)^3 of upper_bound_1; ValueError where it overflows a float."""
    return _finite("(4 + eps_g)^3", lambda: (4.0 + eps_g) ** 3, f" (eps_g={eps_g})")


def upper_bound_1(inputs: BoundInputs) -> float:
    """G^(2/3) ((4+eps)^3 / (3L(1+alpha^2 lambda1)) (log G - 1/2 log(L/2)))^(1/3)."""
    g, eps = inputs.g, inputs.eps_g
    la = _filtered_l(inputs)
    bracket = math.log(g) - 0.5 * math.log(inputs.l_const / 2.0)
    if bracket <= 0.0:
        raise NumericalError(
            f"log G - (1/2) log(L/2) = {bracket} <= 0 at G={g}, L={inputs.l_const}")
    return _finite("upper1 = G^(2/3) ((4 + eps_g)^3 / (3 L(1 + alpha^2 lambda1)) ...)^(1/3)",
                   lambda: g ** (2.0 / 3.0) * (_slack_cubed(eps) / (3.0 * la) * bracket)
                   ** (1.0 / 3.0))


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
    return _finite("upper2 = (12 / sqrt(L(1 + alpha^2 lambda1)))^(2/3) G^(2/3) (...)^(1/3)",
                   lambda: (12.0 / math.sqrt(la)) ** (2.0 / 3.0) * g ** (2.0 / 3.0)
                   * bracket ** (1.0 / 3.0))


def two_sided_report(inputs: BoundInputs) -> dict:
    """Tabulate the 2-D lower bound against min(upper1, upper2) at one
    (G, alpha) point.

    Returns the row that bounds.csv and two_sided.csv hold: ``g``,
    ``alpha``, ``lower``, ``upper1``, ``upper2``, ``upper_min``, ``ratio``,
    ``alpha_regime_forms`` and ``notes``.  ``upper1``/``upper2`` are None
    when the log-bracket is non-positive (with the reason recorded in
    ``notes``); the ratio is upper_min / lower when both sides exist.
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
    upper_min = min((u for u in (u1, u2) if u is not None), default=None)
    ratio = upper_min / lower["value"] if upper_min is not None else None
    return {
        "g": inputs.g,
        "alpha": inputs.alpha,
        "lower": lower["value"],
        "upper1": u1,
        "upper2": u2,
        "upper_min": upper_min,
        "ratio": ratio,
        "alpha_regime_forms": lower["alpha_regime_forms"],
        "notes": notes,
    }


def _alpha_cubed(alpha: float) -> float:
    """alpha^3, which the 3-D bound divides by; ValueError where it
    underflows to 0 or overflows a float."""
    cubed = _finite("alpha^3", lambda: alpha**3, f" (got {alpha!r})")
    if cubed == 0.0:
        raise ValueError(f"alpha^3 underflows to 0 (got {alpha!r})")
    return cubed


def lower_bound_dim3d(g: float, alpha: float, gamma: float, c6: float) -> dict:
    """c6 G^gamma / alpha^(3(1-gamma)) in the small-alpha regime.

    Returns the dict summary.json's ``lower_bound_3d`` holds: the inputs
    ``g``, ``alpha``, ``gamma`` and ``c6``, the bound ``value``,
    ``raw_count`` and ``upper_form``.  c6 is an input (the analysis leaves
    it symbolic; the count pipeline's c5 is the documented default).
    ``raw_count`` is c6/alpha^3, the mode count at s = 1/alpha; with
    G = alpha^-3 the bound equals it for every gamma.  The paired upper
    bound c8 (G/alpha)^(3/2) is reported as a formula only, ``upper_form``.
    ValueError names alpha^3 where it underflows or overflows, and the
    formula where ``value`` or ``raw_count`` overflows.
    """
    if alpha <= 0:
        raise ValueError("the bound is the small-alpha regime; alpha > 0 required")
    if not (0 < gamma < 1):
        raise ValueError(f"gamma must lie in (0,1), got {gamma}")
    if g <= 0 or c6 <= 0:
        raise ValueError("require G > 0 and c6 > 0")
    # value divides by alpha^(3(1-gamma)), which lies between 1 and alpha^3
    cubed = _alpha_cubed(alpha)
    return {
        "g": g, "alpha": alpha, "gamma": gamma, "c6": c6,
        "value": _finite("value = c6 G^gamma / alpha^(3(1-gamma))",
                         lambda: c6 * g**gamma / alpha ** (3.0 * (1.0 - gamma))),
        "raw_count": _finite("raw_count = c6 / alpha^3", lambda: c6 / cubed),
        "upper_form": "c8 * (G/alpha)^(3/2), sharp exponent in (1, 3/2)",
    }
