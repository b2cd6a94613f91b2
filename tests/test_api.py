import types

import beamspace

# Every public name of the package; adding or removing one means editing this set.
PUBLIC_NAMES = {
    # errors
    "AngleOutOfRangeError", "BeamspaceError", "ConfigError", "DegenerateAngleError",
    "DegenerateBasisError", "GridMismatchError", "InvalidArgumentError", "PatternFormatError",
    "RatioSetMismatchError", "SingularChannelError", "UndefinedRatioError",
    # iokit
    "PatternFileHeader", "RunConfig", "load_cdf_csv", "load_config", "load_pattern_csv",
    "save_cdf_csv", "save_metrics_json", "save_pattern_csv", "save_results",
    # link
    "DEFAULT_CONDITION_CAP", "CdfSummary", "ConstellationPoint", "LinkScenario",
    "MonteCarloResult", "build_channel", "cdf_summary", "constellation_at_angle",
    "draw_geometries", "great_circle_offset", "received_constellation", "run_monte_carlo",
    # modulation
    "PskConstellation", "RatioSet", "ratio_label",
    # patterns
    "BasisPair", "EvmMap", "GaussianLobe", "PerturbationField", "PerturbationLobe",
    "StatePatternSet", "apply_perturbation", "basis_correlation_db", "compute_basis",
    "default_mirror_profile", "evm_at_angle", "evm_map", "example_perturbation",
    "generate_mirror_pair", "generate_perturbation", "mirror_pattern", "perturbed_basis",
    "power_imbalance_db", "synthesize_pattern",
    # sphere
    "FOUR_PI", "ScalarAngularMap", "SphericalGrid", "VectorPattern", "build_grid",
    "great_circle_distance", "inner_product", "integrate_power", "lincomb", "same_grid",
}


def test_public_names_are_pinned():
    names = {name for name, value in vars(beamspace).items()
             if not name.startswith("__") and not isinstance(value, types.ModuleType)}
    assert len(PUBLIC_NAMES) == 64
    assert names == PUBLIC_NAMES
