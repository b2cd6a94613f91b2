import ast
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import beamspace
from helpers import package_env

# Lines of the package's source, as the last change to its size left them.
LINE_BUDGET = 2897

# Every public name of the package; adding or removing one means editing this set.
PUBLIC_NAMES = {
    # errors
    "BeamspaceError", "DegenerateError", "InvalidArgumentError",
    # iokit
    "RunConfig", "load_cdf_csv", "load_config", "load_pattern_csv",
    "save_cdf_csv", "save_metrics_json", "save_pattern_csv", "save_results",
    # link
    "DEFAULT_CONDITION_CAP", "CdfSummary", "LinkScenario", "MonteCarloResult",
    "SymbolPairs", "build_channel", "constellation_at_angle", "draw_geometries",
    "received_constellation", "run_monte_carlo",
    # modulation
    "PskConstellation", "RatioSet", "ratio_label",
    # patterns
    "BasisPair", "EvmMap", "GaussianLobe", "PerturbationLobe",
    "StatePatternSet", "apply_perturbation", "basis_correlation_db",
    "default_mirror_profile", "evm_map", "example_perturbation",
    "generate_mirror_pair", "generate_perturbation", "perturbed_basis",
    "power_imbalance_db",
    # sphere
    "FOUR_PI", "SphericalGrid", "VectorPattern", "build_grid",
    "integrate_power",
}


def test_public_names_are_pinned():
    # names load on first use: resolve each, then nothing else public may be bound
    for name in PUBLIC_NAMES:
        getattr(beamspace, name)
    names = {name for name, value in vars(beamspace).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(PUBLIC_NAMES) == 43
    assert names == PUBLIC_NAMES
    assert sorted(beamspace.__all__) == sorted(PUBLIC_NAMES) == dir(beamspace)
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        beamspace.nonexistent


_NAN, _INF = float("nan"), float("inf")
_LOBE = {"theta": 1.0, "phi": 2.0, "width": 0.5}
_BUMP = _LOBE | {"amplitude": 0.3}
# constructor calls with a malformed scalar, and a word of the message naming it
_MALFORMED_SCALARS = {
    "SphericalGrid('a', 4)": (lambda: beamspace.SphericalGrid("a", 4), "n_theta"),
    "SphericalGrid(None, 4)": (lambda: beamspace.SphericalGrid(None, 4), "n_theta"),
    "SphericalGrid(5, [8])": (lambda: beamspace.SphericalGrid(5, [8]), "n_phi"),
    "build_grid(nan, 180)": (lambda: beamspace.build_grid(_NAN, 180), "n_theta"),
    "build_grid(inf, 180)": (lambda: beamspace.build_grid(_INF, 180), "n_theta"),
    "RatioSet(None)": (lambda: beamspace.RatioSet(None), "order"),
    "PskConstellation('x')": (lambda: beamspace.PskConstellation("x"), "order"),
    "PskConstellation(4, 'a')": (lambda: beamspace.PskConstellation(4, "a"), "phase offset"),
    "PskConstellation(4, nan)": (lambda: beamspace.PskConstellation(4, _NAN), "phase offset"),
    "PskConstellation(4, inf)": (lambda: beamspace.PskConstellation(4, _INF), "phase offset"),
    "GaussianLobe(theta='a')": (lambda: beamspace.GaussianLobe(**_LOBE | {"theta": "a"}),
                                "lobe theta"),
    "GaussianLobe(width='a')": (lambda: beamspace.GaussianLobe(**_LOBE | {"width": "a"}),
                                "lobe width"),
    "GaussianLobe(polarization=None)": (
        lambda: beamspace.GaussianLobe(**_LOBE, polarization=None), "lobe polarization"),
    "PerturbationLobe(theta=None)": (
        lambda: beamspace.PerturbationLobe(**_BUMP | {"theta": None}), "perturbation lobe theta"),
    "PerturbationLobe(amplitude='x')": (
        lambda: beamspace.PerturbationLobe(**_BUMP | {"amplitude": "x"}), "lobe amplitude"),
    # a number is never a string, not even one float() reads
    "PskConstellation(4, '1.5')": (lambda: beamspace.PskConstellation(4, "1.5"), "phase offset"),
    "PskConstellation(4, b'1.5')": (lambda: beamspace.PskConstellation(4, b"1.5"),
                                    "phase offset"),
    "GaussianLobe(theta='1.0')": (lambda: beamspace.GaussianLobe(**_LOBE | {"theta": "1.0"}),
                                  "lobe theta"),
    "PerturbationLobe(amplitude='0.3')": (
        lambda: beamspace.PerturbationLobe(**_BUMP | {"amplitude": "0.3"}), "lobe amplitude"),
}


@pytest.mark.parametrize("make, named", _MALFORMED_SCALARS.values(), ids=_MALFORMED_SCALARS)
def test_constructors_reject_malformed_scalars(make, named):
    # the package's own error, never a raw TypeError, ValueError or OverflowError
    with pytest.raises(beamspace.InvalidArgumentError, match=named):
        make()


def test_constructors_keep_accepting_whole_floats_and_numpy_scalars():
    assert beamspace.SphericalGrid(5.0, np.int64(8)).shape == (5, 8)
    assert beamspace.build_grid(np.float64(7.0), 13).shape == (7, 13)
    assert beamspace.RatioSet(4.0).order == beamspace.PskConstellation(np.int32(4)).order == 4
    assert beamspace.PskConstellation(4, np.float32(0.5)).phase_offset == 0.5
    lobe = beamspace.GaussianLobe(theta=1, phi=np.float64(2.0), width=0.5, polarization=(1, 0))
    assert (lobe.theta, lobe.phi, lobe.polarization) == (1.0, 2.0, (1 + 0j, 0j))
    assert type(lobe.theta) is float and type(lobe.phi) is float


def test_startup_loads_only_what_the_command_runs(tmp_path):
    # each stderr line: which of the Monte-Carlo layer and the thread pool
    # module are loaded so far and how many threads the command started (the
    # commands print to stdout); a sweep starts none at any --threads
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
        "for threads in ('1', '2', '8'):\n"
        "    loaded('monte-carlo', '--scenarios', '5000', '--threads', threads)\n"
        "before = set(globals())\n"
        "from beamspace import *\n"
        "print(sorted(set(globals()) - before - {'before'}), file=sys.stderr)\n"
    )
    config = Path(__file__).resolve().parents[1] / "configs" / "hand_scenario.json"
    done = subprocess.run([sys.executable, "-c", script, str(config), str(tmp_path)],
                          env=package_env(), capture_output=True, text=True, check=True)
    link = "['beamspace.link'] 0"
    assert done.stderr.splitlines() == ["[] 0", "[] 0", *[link] * 4, str(sorted(PUBLIC_NAMES))]


def test_source_line_budget():
    # lines of src/beamspace/*.py, as wc -l counts them; a change that adds lines
    # raises this bound and says why
    package = Path(beamspace.__file__).parent
    assert sum(p.read_bytes().count(b"\n") for p in package.glob("*.py")) <= LINE_BUDGET


def _raises(node, where="<module>"):
    """(enclosing function, raised name) of each raise under ``node``; None for a re-raise."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _raises(child, child.name)
            continue
        if isinstance(child, ast.Raise):
            exc = child.exc
            yield where, None if exc is None else ast.unparse(
                exc.func if isinstance(exc, ast.Call) else exc)
        yield from _raises(child, where)


def test_every_raise_is_one_of_the_two_error_classes():
    # the class decides the exit code (DegenerateError 1, InvalidArgumentError 2); besides
    # them only a bare re-raise, the script's SystemExit and the lazy namespace's
    # AttributeError are raised
    package = Path(beamspace.__file__).parent
    found = {(path.name, where, name) for path in package.glob("*.py")
             for where, name in _raises(ast.parse(path.read_text()))}
    ours = {None, "InvalidArgumentError", "DegenerateError"}
    assert {name for *_, name in found} >= ours
    assert {f for f in found if f[2] not in ours} == {
        ("__init__.py", "__getattr__", "AttributeError"), ("cli.py", "<module>", "SystemExit")}
