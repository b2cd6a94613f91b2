import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import beamspace

# Lines of the package's source, as the last change to its size left them.
LINE_BUDGET = 2967

# Every public name of the package; adding or removing one means editing this set.
PUBLIC_NAMES = {
    # errors
    "AngleOutOfRangeError", "BeamspaceError", "ConfigError", "DegenerateAngleError",
    "DegenerateBasisError", "GridMismatchError", "InvalidArgumentError", "PatternFormatError",
    "RatioSetMismatchError", "SingularChannelError", "UndefinedRatioError",
    # iokit
    "RunConfig", "load_cdf_csv", "load_config", "load_pattern_csv",
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
    "default_mirror_profile", "evm_map", "example_perturbation",
    "generate_mirror_pair", "generate_perturbation", "mirror_pattern", "perturbed_basis",
    "power_imbalance_db", "synthesize_pattern",
    # sphere
    "FOUR_PI", "ScalarAngularMap", "SphericalGrid", "VectorPattern", "build_grid",
    "great_circle_distance", "inner_product", "integrate_power", "lincomb", "same_grid",
}


def test_public_names_are_pinned():
    # names load on first use: resolve each, then nothing else public may be bound
    for name in PUBLIC_NAMES:
        getattr(beamspace, name)
    names = {name for name, value in vars(beamspace).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(PUBLIC_NAMES) == 62
    assert names == PUBLIC_NAMES
    assert sorted(beamspace.__all__) == sorted(PUBLIC_NAMES) == dir(beamspace)
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        beamspace.nonexistent


def test_startup_loads_only_what_the_command_runs(tmp_path):
    # each stderr line: which of the Monte-Carlo layer and the thread pool are
    # loaded so far and how many threads the command started (the commands
    # print to stdout); 5,000 scenarios stay on one worker even at eight
    # threads on 64 CPUs, and start two at 2,500 scenarios per worker
    script = (
        "import sys, threading\n"
        "from beamspace.cli import main\n"
        "start = threading.Thread.start\n"
        "def loaded(*argv):\n"
        "    started = []\n"
        "    threading.Thread.start = lambda t: (started.append(t), start(t))[1]\n"
        "    assert main([*argv, '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
        "    print(sorted(m for m in ('beamspace.link', 'concurrent.futures')\n"
        "                 if m in sys.modules), len(started), file=sys.stderr)\n"
        "loaded('metrics'); loaded('evm-map'); loaded('constellation')\n"
        "loaded('monte-carlo', '--scenarios', '5000', '--threads', '1')\n"
        "import beamspace.link\n"
        "beamspace.link._cpu_count = lambda: 64\n"
        "loaded('monte-carlo', '--scenarios', '5000', '--threads', '8')\n"
        "beamspace.link._SCENARIOS_PER_WORKER = 2500\n"
        "loaded('monte-carlo', '--scenarios', '5000', '--threads', '2')\n"
        "before = set(globals())\n"
        "from beamspace import *\n"
        "print(sorted(set(globals()) - before - {'before'}), file=sys.stderr)\n"
    )
    config = Path(__file__).resolve().parents[1] / "configs" / "hand_scenario.json"
    src = str(Path(beamspace.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", script, str(config), str(tmp_path)], env=env,
                          capture_output=True, text=True, check=True)
    link, pool = "'beamspace.link'", "'concurrent.futures'"
    assert done.stderr.splitlines() == [
        "[] 0", "[] 0", f"[{link}] 0", f"[{link}] 0", f"[{link}] 0", f"[{link}, {pool}] 1",
        str(sorted(PUBLIC_NAMES))]


def test_source_line_budget():
    # lines of src/beamspace/*.py, as wc -l counts them; a change that adds lines
    # raises this bound and says why
    package = Path(beamspace.__file__).parent
    assert sum(p.read_bytes().count(b"\n") for p in package.glob("*.py")) <= LINE_BUDGET
