"""Exact simulator and local-realism verifier for the three-photon
GHZ post-selection experiment.

The package derives the heralded three-photon state symbolically from the
two-pair down-conversion emission through the optical circuit, classifies
right and wrong detection events, computes exact outcome statistics, and
proves by exact-rational linear programming and exhaustive strategy
enumeration that no local-hidden-variable model reproduces the full event
pattern above 50% fringe visibility.

``import ghzsim`` loads no submodule: each public name, and each submodule,
is imported on first access (PEP 562), so a command pays only for what it
uses.
"""

from importlib import import_module

# each submodule and the public names it exports at the package level
_EXPORTS = {
    "fock": (
        "Amplitude", "Beam", "GhzsimError", "Mode", "Polarization", "StatePolynomial",
        "amplitude", "creation", "equal_up_to_phase", "filter_terms", "multiply",
        "norm_squared", "render_polynomial", "substitute",
    ),
    "circuit": (
        "ModeTransform", "OpticalCircuit", "beamsplitter_5050", "half_wave_plate_22_5",
        "innsbruck_circuit", "polarizing_beamsplitter",
    ),
    "measurement": (
        "AnalyzerSetting", "OutcomeTable", "SettingTriple", "add_noise", "all_setting_triples",
        "analyzer_transform", "correlation", "outcome_distribution", "quantum_targets",
    ),
    "events": (
        "EventClass", "EventKind", "Station", "classify_pattern", "filter_loss_demo",
        "pairing_report", "sample_events", "single_pair_emission", "trigger_select",
        "two_pair_emission",
    ),
    "lhv": (
        "FeasibilityProblem", "LocalStrategy", "chi", "critical_visibility",
        "ghz_paradox_check", "lemma_check", "lhv_feasibility", "mermin_certificate",
        "mermin_strategy_bound", "mermin_value", "sigma",
    ),
    "simplex": ("verify_farkas",),
    "sampler": ("SampledEvent",),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_EXPORTS, *_ORIGIN])


def __getattr__(name: str):
    if name in _EXPORTS:  # the import binds the submodule here for later lookups
        return import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
