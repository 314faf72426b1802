"""Reference computations the tests share and the package itself does not
need: the vacuum, a pattern's photon count, the rational a ring element
equals, every pattern's Born probability, the isometry check of a
transform on single photons, and the sampler's skip search with every
bound taken as a product."""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from ghzsim.fock import (
    ONE,
    Amplitude,
    IrrationalValueError,
    StatePolynomial,
    born_terms,
    born_weights,
    creation,
    norm_squared,
    scalar,
)
from ghzsim.measurement import EmptyStateError


def vacuum_unit() -> StatePolynomial:
    return scalar(ONE)


def total_photons(pattern) -> int:
    return sum(n for _, n in pattern)


def to_fraction(value: Amplitude) -> Fraction:
    """``value`` as a ``Fraction``; a √2, i or γ part raises IrrationalValueError."""
    (_, *rest), _ = value.integers
    if any(rest) or value.order:
        raise IrrationalValueError(f"{value} is not a plain rational")
    return value.re


def pattern_distribution(state: StatePolynomial) -> dict:
    """Exact Born probabilities of every occupation pattern of ``state``."""
    weights, den = born_weights(*born_terms(state))
    if not den:
        raise EmptyStateError("the zero state has no outcome distribution")
    return {pattern: Fraction(w, den) for pattern, w in weights.items()}


def preserves_single_photon_norms(transform) -> bool:
    """Exact norm check of a transform on every single-photon source state."""
    return all(norm_squared(transform.apply(creation(source))) == Amplitude(1)
               for source in transform.rules)


def skipped(value: int, bits: int, bounds: list, precision: int, top: int) -> Optional[int]:
    """``ghzsim.sampler._skipped`` as a plain binary search: K = #{k >= 1 :
    U < skip^k} capped at 2^top, for U in [value, value + 1) / 2^bits, or None
    when the bits of U do not decide a comparison.  Each level's bounds on
    skip^(k + 2^j) are the products of skip^k's and level j's, even while
    k = 0 and skip^k's are 2^precision exactly."""
    low = value << (precision - bits)
    high = low + (1 << (precision - bits))  # U * 2^precision lies in [low, high)
    lo, hi = bounds[top]
    if high <= lo:
        return 1 << top
    if low < hi:
        return None
    k, lo, hi = 0, 1 << precision, 1 << precision  # bounds on skip^k * 2^precision
    for j in reversed(range(top)):
        lo_j, hi_j = bounds[j]
        lo_next, hi_next = lo * lo_j >> precision, -(-(hi * hi_j) >> precision)
        if high <= lo_next:  # U < skip^(k + 2^j)
            k, lo, hi = k + (1 << j), lo_next, hi_next
        elif low < hi_next:
            return None
    return k
