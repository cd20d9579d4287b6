"""Borel-plane germs: Taylor data at p = 0."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import mpmath as mp


@dataclass(frozen=True)
class BorelGerm:
    """Germ  p^{lead2/2} * sum_n coeffs[n] p^n  at p = 0.

    ``lead2`` is twice the leading exponent (alpha - 1 for the Borel
    transform of an x^{-alpha} series).  When ``sqrtpi`` is set, every
    coefficient carries an implicit factor 1/sqrt(pi) so half-integer-alpha
    transforms stay exact rationals.
    """

    lead2: int
    coeffs: tuple = field(default_factory=tuple)
    sqrtpi: bool = False

    def numeric_coeffs(self):
        """Coefficients as mpmath numbers, 1/sqrt(pi) factor applied."""
        fac = 1 / mp.sqrt(mp.pi) if self.sqrtpi else mp.mpf(1)
        out = []
        for c in self.coeffs:
            if isinstance(c, Fraction):
                out.append(fac * mp.mpf(c.numerator) / mp.mpf(c.denominator))
            else:
                out.append(fac * mp.mpmathify(c))
        return out
