"""Borel-plane germs: Taylor data at p = 0."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property


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

    @cached_property
    def _hash(self):
        return hash((self.lead2, self.coeffs, self.sqrtpi))

    def __hash__(self):
        # the Pade and Laplace caches key on germs, and hashing hundreds of
        # Fractions on every lookup costs about 0.5 ms
        return self._hash
