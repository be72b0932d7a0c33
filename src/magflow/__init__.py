"""Magnetic geodesic flow on hyperbolic surfaces: geometry, dynamics,
spectra, pushforward densities, and their Monte Carlo verification.

The names below and the submodules that hold them load on first access
(PEP 562), so ``import magflow`` loads neither numpy nor any layer, and a CLI
process loads only the layers its subcommand runs.
"""

import importlib

# The one list of public names, by the layer that defines each; the layers
# keep no __all__ of their own.
_EXPORTS = {
    "flow": (
        "MagneticConfig",
        "NumericFlowResult",
        "Regime",
        "VariationCoeffs",
        "flow_exact",
        "flow_exact_many",
        "flow_matrix",
        "flow_numeric",
        "flow_numeric_rows",
        "lyapunov_exponent",
        "period",
        "variation_coeffs",
    ),
    "halfplane": (
        "Moebius",
        "Tangent",
        "frame_of",
        "from_disk",
        "hyp_dist",
        "hyp_norm",
        "to_disk",
    ),
    "mc": (
        "PushforwardHistogram",
        "compare_to_closed_form",
        "exact_ring_averages",
        "sample_pushforward",
    ),
    "spectrum": (
        "SpectrumEntry",
        "ladder",
    ),
    "surface": (
        "DomainReduction",
        "FuchsianGroup",
        "area_average",
        "birkhoff_average",
        "bolza_group",
        "density_surface",
        "density_surface_many",
        "octagon_area",
        "reduce_point",
        "relation_residual",
        "translates_meeting_disk",
    ),
    "torus": (
        "Flag",
        "TorusPoint",
        "alpha_radial",
        "density_cover_many",
        "density_mass",
        "jacobian",
        "phi_profile",
        "preimage_count",
        "preimages_cover",
        "preimages_many",
        "psi",
        "radius",
        "singular_constants",
        "singular_fits",
        "t_of_distance",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

# the submodules stay attributes of the package, as when it imported them
__all__ = sorted([*_EXPORTS, *_MODULE_OF])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
