"""Star bodies in constant-curvature spaces: volumes, hyperplane-section
functionals, and numerical verification of their sharp inequalities."""

from .spaces import (
    SpaceSpec,
    metric_sine,
    phi,
    phi_inverse,
    sphere_surface_area,
    unit_ball_volume,
)
from .quadrature import SphereRule, build_sphere_rule
from .harmonics import ZonalHarmonic, zonal_harmonic, radon_multiplier
from .bodies import (
    StarBody,
    ConeBase,
    BandsBase,
    ArcsBase,
    cap_base,
    equality_cone_base,
    full_sphere_base,
    make_ball,
    make_bumpy_ball,
    make_cone,
    make_ellipsoid,
    make_lune,
    make_perturbed_ball,
    make_striped_cone,
    make_symmetric_polygon_body,
    make_vanishing_body,
    striped_cap_subset,
    body_from_json_dict,
    sphere_band_measure,
    spherical_cap_measure,
)
from .functionals import (
    InequalityReport,
    QuadratureConfig,
    RadialDensityMeasure,
    bound_constants,
    busemann_functional,
    busemann_functional_with_error,
    f_spherical,
    f_spherical_limit,
    g_hyperbolic,
    h_hyperbolic,
    gaussian_measure,
    lune_bound,
    psi,
    psi_inverse,
    big_psi,
    rhs_bound,
    section_volume,
    volume,
    volume_and_functional,
)
from .verify import (
    PerturbationResult,
    SearchTrace,
    c5_constant,
    c_chain,
    extremizer_search,
    perturbation_sign_experiment,
    run_theorem_suite,
    sharpness_schedule,
)

__version__ = "0.1.0"
