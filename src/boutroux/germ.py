"""Borel-plane germs: Taylor data at p = 0."""

from __future__ import annotations

import json
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

    @property
    def alpha2(self):
        """Doubled alpha of the series this germ Borel-transforms."""
        return self.lead2 + 2

    def __len__(self):
        return len(self.coeffs)

    def numeric_coeffs(self, prec=None):
        """Coefficients as mpmath numbers, 1/sqrt(pi) factor applied."""
        fac = 1 / mp.sqrt(mp.pi) if self.sqrtpi else mp.mpf(1)
        out = []
        for c in self.coeffs:
            if isinstance(c, Fraction):
                out.append(fac * mp.mpf(c.numerator) / mp.mpf(c.denominator))
            else:
                out.append(fac * mp.mpmathify(c))
        return out

    def to_json(self):
        def enc(c):
            if isinstance(c, Fraction):
                return [str(c.numerator), str(c.denominator)]
            c = complex(c)
            return [c.real, c.imag]

        return json.dumps({
            "leading_exponent": self.lead2,
            "sqrtpi_factor": self.sqrtpi,
            "coeffs": [enc(c) for c in self.coeffs],
        })
