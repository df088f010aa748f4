import json
import os
import subprocess
import sys
from pathlib import Path

import exitspec as es

PUBLIC_API = [
    "AsymptoticFit", "AtomicMeasure", "DiscreteOperator", "Disk",
    "DomainSpec", "ExitSamples", "Field", "GeometryError", "Grid",
    "HeatContentCurve", "Interval", "InversionError", "McError",
    "McEstimate", "MomentSequence", "Polygon", "Rectangle", "SimConfig",
    "SolverError", "SpectralData", "analytic_moments", "analytic_spectrum",
    "assemble_half_laplacian", "asymptotic_fit", "atom_count_cap",
    "boundary_measure", "build_grid", "build_radial_grid",
    "carleman_diagnostic", "essential_spectrum", "exit_moment_fields",
    "fit_window", "hankel_psd_check", "heat_content_spectral",
    "heat_content_timestep", "inner", "integrate", "invert_moments",
    "laplace_transform", "lowest_eigenpairs", "mc_laplace", "mc_moments",
    "mc_survival", "measure_to_spectrum", "mellin_numeric",
    "mellin_small_t_bound", "moment_sequence", "numeric_spectrum",
    "pde_moments", "perturb_polygon", "property_m_report",
    "reconstruct_heat_content", "simulate_exit_times", "solve_poisson",
    "verify_identities", "volume", "zeta", "zeta_tail_bound",
]


def test_public_api_is_pinned():
    assert len(PUBLIC_API) == 58
    assert es.__all__ == PUBLIC_API
    for name in PUBLIC_API:
        assert hasattr(es, name), name


# run in a fresh interpreter, where no test plugin has imported scipy yet
FOOTPRINT_PROBE = """
import json, sys
import exitspec as es, exitspec.cli
cfg = es.SimConfig(es.Interval(0, 1), [0.5], 64, 1e-3, seed=1)
s = es.simulate_exit_times(cfg)
es.mc_survival(cfg, 0.1, samples=s)
es.mc_laplace(cfg, 1.0, samples=s)
es.mc_moments(s, 1)
es.analytic_moments(es.Interval(0, 1), 17)
es.analytic_moments(es.Disk(1), 17)
heavy = ("scipy.sparse", "scipy.linalg", "scipy.special")
print(json.dumps(sorted(m for m in sys.modules if m.startswith(heavy))))
"""


def test_import_and_monte_carlo_load_no_scipy_submodule():
    """scipy's sparse, linalg and special load on first use, so importing
    the package and the CLI, a Monte Carlo run and the interval's and the
    disk's exact moments never pay for them."""
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", FOOTPRINT_PROBE],
                         env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == []
