"""Magnetic geodesic flow on hyperbolic surfaces: geometry, dynamics,
spectra, pushforward densities, and their Monte Carlo verification."""

from .flow import (
    MagneticConfig,
    NumericFlowResult,
    Regime,
    VariationCoeffs,
    flow_exact,
    flow_matrix,
    flow_numeric,
    generator,
    lyapunov_exponent,
    period,
    variation_coeffs,
)
from .halfplane import (
    Moebius,
    Tangent,
    frame_of,
    from_disk,
    hyp_dist,
    hyp_norm,
    mobius_apply,
    rotate_fiber,
    rotation_about_i,
    to_disk,
)
from .mc import (
    PushforwardHistogram,
    compare_to_closed_form,
    exact_ring_averages,
    sample_pushforward,
    sample_radii_analytic,
)
from .spectrum import (
    CriticalGap,
    SpectrumEntry,
    critical_gap,
    ladder,
    select_level,
)
from .surface import (
    DomainReduction,
    FuchsianGroup,
    area_average,
    birkhoff_average,
    bolza_group,
    density_surface,
    density_surface_many,
    octagon_area,
    reduce_point,
    relation_residual,
    translates_meeting_disk,
)
from .torus import (
    DensitySample,
    Flag,
    TorusPoint,
    alpha_radial,
    density_cover,
    density_mass,
    jacobian,
    phi_profile,
    preimage_count,
    preimages_cover,
    psi,
    radius,
    singular_constants,
    t_of_distance,
)

__version__ = "0.1.0"
