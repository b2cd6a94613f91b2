"""Link-level simulator for beam-space MIMO under angular near-field perturbation.

A single-feed reconfigurable antenna multiplexes two PSK streams onto the
half-sum and half-difference of its mirror-image state patterns.  This
package models how a per-state angular perturbation of those patterns
distorts the transmitted constellation (EVM over the sphere) and the
zero-forcing-equalized received constellation for single-path LOS
two-receiver links, including seeded Monte-Carlo error CDFs.

Public names load lazily (PEP 562): ``import beamspace`` imports no
submodule, and the first use of a name imports only its home module.  The
``metrics`` and ``evm-map`` commands never load ``link``, the Monte-Carlo
layer; ``constellation``, ``monte-carlo`` and ``selftest`` do.
"""

import importlib

__version__ = "0.1.0"

# The home module of each public name.
_HOMES = {name: module for module, names in {
    "errors": ("BeamspaceError", "DEFAULT_CONDITION_CAP", "DegenerateError",
               "InvalidArgumentError"),
    "iokit": ("RunConfig", "load_cdf_csv", "load_config", "load_pattern_csv", "save_cdf_csv",
              "save_metrics_json", "save_pattern_csv", "save_results"),
    "link": ("CdfSummary", "LinkScenario", "MonteCarloResult", "SymbolPairs",
             "build_channel", "constellation_at_angle", "draw_geometries",
             "received_constellation", "run_monte_carlo"),
    "modulation": ("PskConstellation", "RatioSet", "ratio_label"),
    "patterns": ("BasisPair", "EvmMap", "GaussianLobe", "PerturbationLobe", "StatePatternSet",
                 "apply_perturbation", "basis_correlation_db", "default_mirror_profile",
                 "evm_map", "example_perturbation", "generate_mirror_pair",
                 "generate_perturbation", "perturbed_basis", "power_imbalance_db"),
    "sphere": ("FOUR_PI", "SphericalGrid", "VectorPattern", "build_grid", "integrate_power"),
}.items() for name in names}
__all__ = sorted(_HOMES)


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    return value


def __dir__():
    return list(__all__)
