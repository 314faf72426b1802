"""The package's public surface: ``__all__``, ``dir`` and attribute lookup
stay as they were when ``ghzsim/__init__.py`` imported every module, though
each name is now imported on first access."""

import sys

import pytest

import ghzsim

SUBMODULES = ["circuit", "events", "fock", "lhv", "measurement", "simplex"]
PUBLIC = [
    "Amplitude", "AnalyzerSetting", "Beam", "EventClass", "EventKind", "FeasibilityProblem",
    "GhzsimError", "LocalStrategy", "Mode", "ModeTransform", "OpticalCircuit", "OutcomeTable",
    "Polarization", "SampledEvent", "SettingTriple", "StatePolynomial", "Station", "add_noise",
    "all_setting_triples", "amplitude", "analyzer_transform", "beamsplitter_5050", "chi",
    "circuit", "classify_pattern", "correlation", "creation", "critical_visibility",
    "equal_up_to_phase", "events", "filter_loss_demo", "filter_terms", "fock",
    "ghz_paradox_check", "half_wave_plate_22_5", "innsbruck_circuit", "lemma_check", "lhv",
    "lhv_feasibility", "measurement", "multiply", "norm_squared", "outcome_distribution",
    "pairing_report", "polarizing_beamsplitter", "quantum_targets", "render_polynomial",
    "sample_events", "sigma", "simplex", "single_pair_emission", "substitute", "trigger_select",
    "two_pair_emission",
]


def test_all_keeps_its_names_and_dir_lists_them():
    assert ghzsim.__all__ == PUBLIC
    assert set(SUBMODULES) <= set(PUBLIC) <= set(dir(ghzsim))


@pytest.mark.parametrize("name", PUBLIC)
def test_each_public_name_resolves_to_its_module_attribute(name):
    value = getattr(ghzsim, name)
    if name in SUBMODULES:
        assert value is sys.modules[f"ghzsim.{name}"]
    else:
        owners = [module for module in SUBMODULES
                  if getattr(sys.modules.get(f"ghzsim.{module}"), name, None) is value]
        assert owners, f"{name} is no attribute of a loaded submodule"


def test_an_unknown_name_raises_an_attribute_error_that_names_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        ghzsim.no_such_name
    assert not hasattr(ghzsim, "cli_main")


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from ghzsim import *", namespace)
    assert set(PUBLIC) <= namespace.keys()
    assert namespace["sample_events"] is ghzsim.events.sample_events
