"""Scattering of light from a dispersive dielectric slab.

Multi-resonance Sellmeir dispersion, photonic band structure, slab
reflection/transmission with interior mode functions, outgoing-wave Green's
functions, unitary quantum input-output relations, coherent-pulse
photodetection, and independent brute-force verifiers for all of it.
"""

from . import errors
from .medium import (
    Band,
    BandKind,
    IndexValue,
    MediumSpec,
    OscillatorSpecies,
    band_edges,
    band_structure,
    dispersion_omega_of_k,
    refractive_index,
    sellmeir_bracket,
)
from .quantum_io import (
    DetectionTrace,
    PulseSpectrum,
    SMatrix,
    detection_rate,
    energy_budget,
    gaussian_pulse,
    s_matrix,
    transform_coherent,
)
from .slab import (
    GreensValue,
    ModeFunctionSample,
    ScatterSolution,
    greens_function,
    mode_function,
    resonance_coefficients,
    scatter_coefficients,
)

__version__ = "0.1.0"

# The oracle imports scipy.integrate, which costs more than the rest of the
# package together; its names load it on first use (PEP 562).  They are not
# cached here, so a name rebound in qslab.oracle is what qslab serves.
_ORACLE_NAMES = frozenset({
    "SmoothedProfile",
    "ode_scatter",
    "right_incident_solution",
    "source_integral_check",
    "transfer_matrix_rt",
    "write_golden_fixture",
})


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Band",
    "BandKind",
    "DetectionTrace",
    "GreensValue",
    "IndexValue",
    "MediumSpec",
    "ModeFunctionSample",
    "OscillatorSpecies",
    "PulseSpectrum",
    "SMatrix",
    "ScatterSolution",
    "SmoothedProfile",
    "band_edges",
    "band_structure",
    "detection_rate",
    "dispersion_omega_of_k",
    "energy_budget",
    "errors",
    "gaussian_pulse",
    "greens_function",
    "mode_function",
    "ode_scatter",
    "refractive_index",
    "resonance_coefficients",
    "right_incident_solution",
    "s_matrix",
    "scatter_coefficients",
    "sellmeir_bracket",
    "source_integral_check",
    "transfer_matrix_rt",
    "transform_coherent",
    "write_golden_fixture",
]
