"""Reference computations the tests share and the package itself does not
need: the vacuum, a pattern's photon count, the rational a ring element
equals, every pattern's Born probability, and the isometry check of a
transform on single photons."""

from __future__ import annotations

from fractions import Fraction

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
