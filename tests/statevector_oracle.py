"""Independent dense-vector check of the three-station statistics.

This is deliberately a second code path: an 8-dimensional state vector for
the heralded right-part state and tensor-product analyzer vectors, with no
use of the mode-substitution machinery.  Only the exact coefficient ring is
shared with the package.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from ghzsim.events import Station
from ghzsim.fock import Amplitude, INV_SQRT2
from ghzsim.measurement import AnalyzerSetting, SettingTriple
from reference import to_fraction

# basis index per qubit: 0 = H, 1 = V; qubit order (g, h, z)
_BASIS = tuple(product((0, 1), repeat=3))

# (|HVV> + |VHH>)/sqrt2, written out by hand
_STATE = {
    (0, 1, 1): INV_SQRT2,
    (1, 0, 0): INV_SQRT2,
}

# which circular handedness each station calls +1 (G is mirrored)
_HANDEDNESS = {Station.G: -1, Station.H: 1, Station.Z: 1}


def _analysis_vector(station, setting, outcome, conjugate):
    """Single-qubit analyzer vector (components on |H>, |V>) for one outcome."""
    if setting is AnalyzerSetting.LINEAR45:
        return (INV_SQRT2, INV_SQRT2 * outcome)
    sign = _HANDEDNESS[station] * (-1 if conjugate else 1) * outcome
    return (INV_SQRT2, Amplitude(0, 0, 0, Fraction(sign, 2)))


def oracle_distribution(settings: SettingTriple, conjugate: bool = False):
    """Exact conditional outcome probabilities of the right-part state."""
    stations = (Station.G, Station.H, Station.Z)
    choices = (settings.g, settings.h, settings.z)
    table = {}
    for outcome in product((1, -1), repeat=3):
        vectors = [
            _analysis_vector(stations[i], choices[i], outcome[i], conjugate)
            for i in range(3)
        ]
        overlap = Amplitude()
        for bits, coeff in _STATE.items():
            weight = coeff
            for i in range(3):
                weight = weight * vectors[i][bits[i]].conjugate()
            overlap = overlap + weight
        table[outcome] = to_fraction(overlap.abs_squared())
    return table


def oracle_correlation(settings: SettingTriple, conjugate: bool = False) -> Fraction:
    dist = oracle_distribution(settings, conjugate)
    return sum(r[0] * r[1] * r[2] * p for r, p in dist.items())
