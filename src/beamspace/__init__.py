"""Link-level simulator for beam-space MIMO under angular near-field perturbation.

A single-feed reconfigurable antenna multiplexes two PSK streams onto the
half-sum and half-difference of its mirror-image state patterns.  This
package models how a per-state angular perturbation of those patterns
distorts the transmitted constellation (EVM over the sphere) and the
zero-forcing-equalized received constellation for single-path LOS
two-receiver links, including seeded Monte-Carlo error CDFs.
"""

from .errors import (
    AngleOutOfRangeError,
    BeamspaceError,
    ConfigError,
    DegenerateAngleError,
    DegenerateBasisError,
    GridMismatchError,
    InvalidArgumentError,
    PatternFormatError,
    RatioSetMismatchError,
    SingularChannelError,
    UndefinedRatioError,
)
from .iokit import (
    PatternFileHeader,
    RunConfig,
    load_cdf_csv,
    load_config,
    load_pattern_csv,
    save_cdf_csv,
    save_metrics_json,
    save_pattern_csv,
    save_results,
)
from .link import (
    DEFAULT_CONDITION_CAP,
    CdfSummary,
    ConstellationPoint,
    LinkScenario,
    MonteCarloResult,
    build_channel,
    cdf_summary,
    constellation_at_angle,
    draw_geometries,
    great_circle_offset,
    received_constellation,
    run_monte_carlo,
)
from .modulation import PskConstellation, RatioSet, ratio_label
from .patterns import (
    BasisPair,
    EvmMap,
    GaussianLobe,
    PerturbationField,
    PerturbationLobe,
    StatePatternSet,
    apply_perturbation,
    basis_correlation_db,
    compute_basis,
    default_mirror_profile,
    evm_at_angle,
    evm_map,
    example_perturbation,
    generate_mirror_pair,
    generate_perturbation,
    mirror_pattern,
    perturbed_basis,
    power_imbalance_db,
    synthesize_pattern,
)
from .sphere import (
    FOUR_PI,
    ScalarAngularMap,
    SphericalGrid,
    VectorPattern,
    build_grid,
    great_circle_distance,
    inner_product,
    integrate_power,
    lincomb,
    same_grid,
)

__version__ = "0.1.0"
