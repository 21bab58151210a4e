"""Distributions of the Vetoer bliss point.

Two continuous families are supported: a uniform interval and an
exponential likelihood-ratio tilt of one.  A finite list of atoms is a
validated literal for the linear-loss models, not a distribution that is
queried.  All values are immutable after construction and safe to share
across workers.

Every query is exact algebra: tilted densities have closed-form integrals.
``cdf`` and ``upper_partial_mean`` also take a numpy array and answer
elementwise, by the formula a float takes; numpy is imported only then.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Tuple

from ._record import Record
from .errors import DomainError, FullMassBelowError

# A conditioning event with mass below this is treated as empty.
_MASS_EPS = 1e-12


class TypeDistribution(ABC):
    """Belief over the Vetoer's bliss point theta."""

    __slots__ = ()

    @property
    @abstractmethod
    def support(self) -> Tuple[float, float]:
        """(theta_lo, theta_hi), the smallest interval carrying all mass."""

    @abstractmethod
    def cdf(self, x: float) -> float:
        """P(theta <= x); elementwise on a numpy array."""

    @abstractmethod
    def mean(self) -> float:
        ...

    @abstractmethod
    def upper_partial_mean(self, s: float) -> float:
        """Integral of theta over the event {theta >= s}; elementwise on a
        numpy array."""

    @abstractmethod
    def mass_above(self, s: float) -> float:
        """P(theta >= s), not formed as 1 - cdf(s), which cancels when the
        mass is tiny."""

    @abstractmethod
    def cond_mean_above(self, s: float) -> float:
        """E[theta | theta >= s]; raises FullMassBelowError when at most
        _MASS_EPS of mass lies at or above s."""


class UniformInterval(TypeDistribution, Record):
    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float) -> None:
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DomainError(f"support bounds must be finite, got [{lo}, {hi}]")
        if not lo < hi:
            raise DomainError(f"need lo < hi, got [{lo}, {hi}]")
        if not hi > 0.0:
            raise DomainError("upper support bound must be positive")
        # Every query divides by the width; past the float range it reads inf.
        if not math.isfinite(hi - lo):
            raise DomainError(f"support width must be finite, got [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def support(self) -> Tuple[float, float]:
        return (self.lo, self.hi)

    def cdf(self, x: float) -> float:
        if not isinstance(x, float) and not isinstance(x, int):
            import numpy as np

            # Clipped, so x - lo cannot overflow, and x >= hi reads (hi - lo) / (hi - lo) = 1.
            inner = np.minimum(np.maximum(x, self.lo), self.hi)
            return np.where(x <= self.lo, 0.0, (inner - self.lo) / (self.hi - self.lo))
        if x <= self.lo:
            return 0.0
        if x >= self.hi:
            return 1.0
        return (x - self.lo) / (self.hi - self.lo)

    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def upper_partial_mean(self, s: float) -> float:
        if not isinstance(s, float) and not isinstance(s, int):
            import numpy as np

            a = np.minimum(np.maximum(s, self.lo), self.hi)
            with np.errstate(over="ignore", invalid="ignore"):  # silent, as on floats
                upper = 0.5 * (self.hi * self.hi - a * a) / (self.hi - self.lo)
            return np.where(a >= self.hi, 0.0, upper)
        a = max(s, self.lo)
        if a >= self.hi:
            return 0.0
        return 0.5 * (self.hi * self.hi - a * a) / (self.hi - self.lo)

    def mass_above(self, s: float) -> float:
        if s <= self.lo:
            return 1.0
        if s >= self.hi:
            return 0.0
        return (self.hi - s) / (self.hi - self.lo)

    def cond_mean_above(self, s: float) -> float:
        a = max(s, self.lo)
        if self.mass_above(s) <= _MASS_EPS:
            raise FullMassBelowError(f"no mass above s={s!r}")
        return 0.5 * (a + self.hi)


class FiniteAtoms(Record):
    """Atoms as ((theta_1, p_1), ...), strictly increasing in theta: a
    validated literal that the linear-loss solvers read through ``points``.
    Not a TypeDistribution; the quadratic-loss solvers reject it."""

    __slots__ = ("points",)

    def __init__(self, points: Tuple[Tuple[float, float], ...]) -> None:
        pts = tuple((float(t), float(p)) for t, p in points)
        object.__setattr__(self, "points", pts)
        if not pts:
            raise DomainError("need at least one atom")
        if not all(math.isfinite(x) for pt in pts for x in pt):
            raise DomainError("atom locations and probabilities must be finite")
        thetas = [t for t, _ in pts]
        probs = [p for _, p in pts]
        if any(b <= a for a, b in zip(thetas, thetas[1:])):
            raise DomainError("atom locations must be strictly increasing")
        if any(p <= 0.0 for p in probs):
            raise DomainError("atom probabilities must be strictly positive")
        if abs(sum(probs) - 1.0) > 1e-12:
            raise DomainError(f"atom probabilities sum to {sum(probs)}, not 1")


# Taylor coefficients B_2k / (2k)! of _tilt_mean_share - 1/2, highest power
# first.  Below |u| = 0.25 the direct form cancels (up to 2.5e-13 lost near
# |u| = 1e-3); at 0.25 both forms are within ~1e-15 of the truth.
_SERIES = (1.0 / 47900160, -1.0 / 1209600, 1.0 / 30240, -1.0 / 720, 1.0 / 12)
_SERIES_U = 0.25


def _tilt_mean_share(u: float) -> float:
    """E[x] = 1/(1 - e^-u) - 1/u for density proportional to exp(u x) on [0, 1]."""
    if abs(u) < _SERIES_U:
        u2, acc = u * u, 0.0
        for c in _SERIES:
            acc = acc * u2 + c
        return 0.5 + u * acc
    if u < 0.0:  # mirror image, so the exponent stays negative
        return 1.0 - _tilt_mean_share(-u)
    return 1.0 / -math.expm1(-u) - 1.0 / u


def _tilt_mean_share_array(u):
    """_tilt_mean_share elementwise on a numpy array, each element by the
    branch a float takes (np.polyval runs the series loop's Horner steps)."""
    import numpy as np

    # Each form is fed 0 or 1 where the other serves, so neither overflows.
    small = np.abs(u) < _SERIES_U
    us, w = np.where(small, u, 0.0), np.where(small, 1.0, np.abs(u))
    direct = 1.0 / -np.expm1(-w) - 1.0 / w
    return np.where(small, 0.5 + us * np.polyval(_SERIES, us * us),
                    np.where(u < 0.0, 1.0 - direct, direct))


class ExponentialTilt(TypeDistribution, Record):
    """Density proportional to f(theta) * exp(lam * theta), renormalized.

    The constants every float query reads are bound at construction, in
    private slots that are not fields (equality, hash, repr and pickle see
    only base and lam): the bounds lo and hi, k = -|lam|, whether the tilt is
    flat in double, |lam| (hi - lo) < 1e-17, and the normaliser
    math.expm1(k (hi - lo)).  Each is the value the per-query formula
    computed, so every float answer is unchanged.  The array path computes
    its normaliser with numpy on each call: numpy's expm1 may differ from
    libm's in the last bit, so the bound one would move the oracles' grid
    values.
    """

    __slots__ = ("base", "lam", "_lo", "_hi", "_k", "_flat", "_z")

    def __init__(self, base: UniformInterval, lam: float) -> None:
        if not isinstance(base, UniformInterval):
            raise DomainError(
                "tilt base must be a UniformInterval; tilt atoms by reweighting"
            )
        if not math.isfinite(lam):
            raise DomainError(f"tilt parameter must be finite, got {lam}")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "lam", lam)
        lo, hi = base.support
        k = -abs(lam)
        object.__setattr__(self, "_lo", lo)
        object.__setattr__(self, "_hi", hi)
        object.__setattr__(self, "_k", k)
        # Flat in double; expm1 would go subnormal.
        object.__setattr__(self, "_flat", abs(lam) * (hi - lo) < 1e-17)
        object.__setattr__(self, "_z", math.expm1(k * (hi - lo)))

    @property
    def support(self) -> Tuple[float, float]:
        return (self._lo, self._hi)

    def _share(self, x: float, y: float, m=math) -> float:
        """P(x <= theta <= y) for lo <= x <= y <= hi; each exponent is -|lam| *
        distance.  m is math, or numpy for array ends."""
        lo, hi, k = self._lo, self._hi, self._k
        if self._flat:
            return (y - x) / (hi - lo)
        gap = hi - y if self.lam > 0.0 else x - lo
        z = self._z if m is math else m.expm1(k * (hi - lo))
        return m.exp(k * gap) * m.expm1(k * (y - x)) / z

    def _mean_from(self, a: float) -> float:
        """E[theta | theta >= a] for lo <= a <= hi."""
        hi = self._hi
        return a + (hi - a) * _tilt_mean_share(self.lam * (hi - a))

    def cdf(self, x: float) -> float:
        lo, hi = self._lo, self._hi
        if not isinstance(x, float) and not isinstance(x, int):
            import numpy as np

            with np.errstate(over="ignore"):  # a huge lam's exponents: -inf, as on floats
                return self._share(lo, np.minimum(np.maximum(x, lo), hi), np)
        return self._share(lo, min(max(x, lo), hi))

    def mean(self) -> float:
        return self._mean_from(self._lo)

    def upper_partial_mean(self, s: float) -> float:
        lo, hi = self._lo, self._hi
        if not isinstance(s, float) and not isinstance(s, int):
            import numpy as np

            a = np.minimum(np.maximum(s, lo), hi)
            with np.errstate(over="ignore"):  # a huge lam's exponents: -inf, as on floats
                mean = a + (hi - a) * _tilt_mean_share_array(self.lam * (hi - a))  # _mean_from
                return self._share(a, hi, np) * mean
        a = min(max(s, lo), hi)
        return self._share(a, hi) * self._mean_from(a)

    def mass_above(self, s: float) -> float:
        lo, hi = self._lo, self._hi
        return self._share(min(max(s, lo), hi), hi)

    def cond_mean_above(self, s: float) -> float:
        a = min(max(s, self._lo), self._hi)  # above hi a huge tilt's expm1 overflows
        if self._share(a, self._hi) <= _MASS_EPS:  # mass_above(s)
            raise FullMassBelowError(f"no mass above s={s!r}")
        return self._mean_from(a)


def lr_tilt(d: TypeDistribution | FiniteAtoms, lam: float) -> TypeDistribution | FiniteAtoms:
    """Reweight d by exp(lam * theta).

    Larger lam produces a likelihood-ratio rightward shift.  Atom
    distributions are reweighted exactly; uniform bases get a tilt wrapper.
    """
    if isinstance(d, ExponentialTilt):
        raise DomainError("distribution is already a tilt; tilt the base instead")
    if isinstance(d, FiniteAtoms):
        # Shift every exponent by the largest so none overflows; an atom
        # whose weight underflows to 0 is then rejected by FiniteAtoms.
        top = max(lam * t for t, _ in d.points)
        raw = [(t, p * math.exp(lam * t - top)) for t, p in d.points]
        z = sum(p for _, p in raw)
        return FiniteAtoms(tuple((t, p / z) for t, p in raw))
    return ExponentialTilt(d, lam)


def _bad_literal(kind: str, text: str, exc: ValueError) -> str:
    # A constructor's DomainError names the reason; a parse error adds nothing.
    reason = f": {exc}" if isinstance(exc, DomainError) else ""
    return f"bad {kind} literal {text!r}{reason}"


def from_literal(text: str) -> TypeDistribution | FiniteAtoms:
    """Parse a CLI/config distribution literal.

    Accepted forms::

        uniform:<lo>,<hi>
        atoms:<theta1>:<p1>,<theta2>:<p2>,...
        tilt:<base literal>;<lam>
    """
    text = text.strip()
    if text.startswith("uniform:"):
        body = text[len("uniform:"):]
        try:
            lo_s, hi_s = body.split(",")
            return UniformInterval(float(lo_s), float(hi_s))
        except ValueError as exc:
            raise DomainError(_bad_literal("uniform", text, exc)) from exc
    if text.startswith("atoms:"):
        body = text[len("atoms:"):]
        try:
            pts = []
            for part in body.split(","):
                t_s, p_s = part.split(":")
                pts.append((float(t_s), float(p_s)))
            return FiniteAtoms(tuple(pts))
        except ValueError as exc:
            raise DomainError(_bad_literal("atoms", text, exc)) from exc
    if text.startswith("tilt:"):
        body = text[len("tilt:"):]
        base_s, _, lam_s = body.rpartition(";")
        if not base_s:
            raise DomainError(f"bad tilt literal {text!r}")
        try:
            lam = float(lam_s)
        except ValueError as exc:
            raise DomainError(f"bad tilt parameter in {text!r}") from exc
        return lr_tilt(from_literal(base_s), lam)
    raise DomainError(f"unrecognized distribution literal {text!r}")
