"""Error-certified floating point values.

An :class:`ApproxReal` pairs a float with a proven bound on its absolute
error.  Arithmetic propagates the bounds conservatively (first-order interval
style, cross terms included), so any quantity assembled from certified pieces
carries a certificate that is itself valid.  Every operation also adds a small
multiple of machine epsilon so that the certificates stay honest against
floating-point rounding, not just series truncation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterError

_EPS = 2.0 ** -52


def _coerce(x) -> "ApproxReal":
    if isinstance(x, ApproxReal):
        return x
    if isinstance(x, Fraction):
        v = float(x)
        # conversion is correctly rounded: off by at most one ulp
        return ApproxReal(v, abs(v) * _EPS)
    return ApproxReal(float(x), 0.0)


@dataclass(frozen=True)
class ApproxReal:
    """A float together with a certified absolute error bound."""

    value: float
    abs_error: float = 0.0

    def __post_init__(self):
        if not (self.abs_error >= 0.0):
            raise ValueError(f"invalid error bound {self.abs_error!r}")

    def _round_slack(self, v: float) -> float:
        return abs(v) * 4.0 * _EPS

    def __add__(self, other) -> "ApproxReal":
        o = _coerce(other)
        v = self.value + o.value
        return ApproxReal(v, self.abs_error + o.abs_error + self._round_slack(v))

    __radd__ = __add__

    def __sub__(self, other) -> "ApproxReal":
        o = _coerce(other)
        v = self.value - o.value
        return ApproxReal(v, self.abs_error + o.abs_error + self._round_slack(v))

    def __mul__(self, other) -> "ApproxReal":
        o = _coerce(other)
        v = self.value * o.value
        err = (
            abs(self.value) * o.abs_error
            + abs(o.value) * self.abs_error
            + self.abs_error * o.abs_error
        )
        return ApproxReal(v, err + self._round_slack(v))

    __rmul__ = __mul__

    def reciprocal(self) -> "ApproxReal":
        """1/x with a valid bound; requires the interval to exclude zero."""
        if abs(self.value) <= self.abs_error:
            raise ZeroDivisionError("interval contains zero; reciprocal unbounded")
        v = 1.0 / self.value
        err = self.abs_error / (abs(self.value) * (abs(self.value) - self.abs_error))
        return ApproxReal(v, err + self._round_slack(v))

    def __truediv__(self, other) -> "ApproxReal":
        return self * _coerce(other).reciprocal()

    def __rtruediv__(self, other) -> "ApproxReal":
        return _coerce(other) * self.reciprocal()

    def agrees_with(self, other, slack: float = 0.0) -> bool:
        """Whether the two certified intervals can describe the same number."""
        o = _coerce(other)
        return abs(self.value - o.value) <= self.abs_error + o.abs_error + slack

    def __str__(self):
        return f"{self.value!r} ± {self.abs_error:.3g}"


@dataclass(frozen=True)
class TruncationPolicy:
    """Stopping rule for infinite products and multi-index series.

    Evaluation stops at the first index whose certified tail bound falls below
    ``target_tail``, or at ``max_index``, whichever comes first.  If the cap is
    hit first the reported error bound is the (larger) tail bound at the cap.
    """

    max_index: int = 512
    target_tail: float = 1e-12

    def __post_init__(self):
        if self.max_index < 1:
            raise ParameterError(f"max_index must be >= 1, got {self.max_index}")
        if not (self.target_tail > 0.0):
            raise ParameterError(f"target_tail must be > 0, got {self.target_tail}")


_ENV_TAIL = "CHAINRING_TARGET_TAIL"
_ENV_MAXIDX = "CHAINRING_MAX_INDEX"


def default_policy() -> TruncationPolicy:
    """Default policy, overridable via CHAINRING_TARGET_TAIL / CHAINRING_MAX_INDEX.

    A setting that does not parse, or that the policy rejects, raises
    ParameterError naming the variable and its value.
    """
    settings = {}
    for name, field, kind in ((_ENV_MAXIDX, "max_index", int), (_ENV_TAIL, "target_tail", float)):
        text = os.environ.get(name)
        if text is None:
            continue
        try:
            settings[field] = kind(text)
            TruncationPolicy(**settings)  # checks the setting just read
        except ValueError as exc:
            raise ParameterError(f"{name}={text!r} is invalid: {exc}") from None
    return TruncationPolicy(**settings)
