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
