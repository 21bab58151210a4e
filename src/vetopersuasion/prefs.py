"""Proposer loss families and the induced policy utility.

The Proposer's ideal policy is 1 and her payoff from policy a in [0, 1] is
u(a) = -c(1 - a) for a convex, strictly increasing loss c with c(0) = 0.
Three families are provided:

* ``Linear``        c(x) = x                 (risk neutral over policy)
* ``Power(gamma)``  c(x) = x**gamma, gamma >= 1
* ``Exponential(alpha)`` u(a) = -(exp(alpha*(1-a)) - 1)/alpha, which has
  constant absolute risk aversion alpha.  This family exists to give a
  cleanly ordered risk-aversion comparative static; it is an extension
  beyond the linear/power menu.

All preference values are immutable and freely shareable.  Derivative
queries at the Linear kink (a = 1) use the left derivative: proposals never
exceed 1, so only the left limit is ever payoff relevant.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

from ._record import Record
from .errors import DomainError


class ProposerPreferences(ABC):
    """Convex loss c over |1 - a| and the induced utility u(a) = -c(1-a)."""

    __slots__ = ()

    @abstractmethod
    def _loss(self, x: float) -> float:
        ...

    @abstractmethod
    def _loss_deriv(self, x: float) -> float:
        ...

    def loss(self, x: float) -> float:
        if x < 0.0:
            raise DomainError(f"loss argument must be >= 0, got {x}")
        return self._loss(x)

    def loss_array(self, x):
        """``loss`` elementwise on a numpy array, under the same domain guard.
        A 0-d argument takes the scalar formula, bit-identical to ``loss``.
        A float array is not copied: Linear returns x itself."""
        import numpy as np

        x = np.asarray(x, dtype=float)
        if (x < 0.0).any():
            raise DomainError(f"loss argument must be >= 0, got {x.min()}")
        return self._loss(float(x)) if x.ndim == 0 else self._loss_array(x)

    def _loss_array(self, x):
        return self._loss(x)  # the Linear and Power formulas are elementwise

    def loss_deriv(self, x: float) -> float:
        if x < 0.0:
            raise DomainError(f"loss argument must be >= 0, got {x}")
        return self._loss_deriv(x)

    def utility(self, a: float) -> float:
        if not 0.0 <= a <= 1.0:
            raise DomainError(f"policy must lie in [0, 1], got {a}")
        return -self._loss(1.0 - a)

    def utility_deriv(self, a: float) -> float:
        if not 0.0 <= a <= 1.0:
            raise DomainError(f"policy must lie in [0, 1], got {a}")
        return self._loss_deriv(1.0 - a)


class Linear(ProposerPreferences, Record):
    __slots__ = ()

    def _loss(self, x: float) -> float:
        return x

    def _loss_deriv(self, x: float) -> float:
        return 1.0


class Power(ProposerPreferences, Record):
    __slots__ = ("gamma",)

    def __init__(self, gamma: float) -> None:
        if not math.isfinite(gamma) or gamma < 1.0:
            raise DomainError(f"power loss needs a finite gamma >= 1, got {gamma}")
        object.__setattr__(self, "gamma", gamma)

    def _loss(self, x: float) -> float:
        return x ** self.gamma

    def _loss_deriv(self, x: float) -> float:
        if x == 0.0 and self.gamma < 2.0 and self.gamma != 1.0:
            # x**(gamma-1) is still finite for gamma > 1; guard 0**negative.
            return 0.0
        return self.gamma * x ** (self.gamma - 1.0)


class Exponential(ProposerPreferences, Record):
    __slots__ = ("alpha",)

    def __init__(self, alpha: float) -> None:
        if not math.isfinite(alpha) or alpha <= 0.0:
            raise DomainError(f"CARA coefficient must be finite and > 0, got {alpha}")
        object.__setattr__(self, "alpha", alpha)
        # The models evaluate the loss on [0, 1] only; it must stay finite there.
        try:
            finite = math.isfinite(self._loss(1.0)) and math.isfinite(self._loss_deriv(1.0))
        except OverflowError:
            finite = False
        if not finite:
            raise DomainError(f"CARA coefficient {self.alpha} overflows the loss on [0, 1]")

    # For alpha < 2**-52 the loss rounds to x on [0, 1], and expm1(alpha x)
    # / alpha is a step function once alpha x is subnormal: return x there.
    def _loss(self, x: float) -> float:
        return x if self.alpha < 2.0**-52 else math.expm1(self.alpha * x) / self.alpha

    def _loss_array(self, x):
        import numpy as np
        return x if self.alpha < 2.0**-52 else np.expm1(self.alpha * x) / self.alpha

    def _loss_deriv(self, x: float) -> float:
        return math.exp(self.alpha * x)


def from_literal(text: str) -> ProposerPreferences:
    """Parse a CLI/config loss literal: ``linear``, ``power:<g>``, ``exp:<a>``."""
    text = text.strip()
    if text == "linear":
        return Linear()
    for prefix, family, kind in (("power:", Power, "power"), ("exp:", Exponential, "exponential")):
        if text.startswith(prefix):
            try:
                arg = float(text[len(prefix):])
            except ValueError as exc:
                raise DomainError(f"bad {kind} literal {text!r}") from exc
            return family(arg)  # its DomainError names the reason
    raise DomainError(f"unrecognized loss literal {text!r}")
