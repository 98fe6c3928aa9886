"""Exception types raised by the qslab library and CLI."""


class QslabError(Exception):
    """Base class for all qslab errors."""


class PoleAtResonance(QslabError):
    """The Sellmeir sum was evaluated exactly at a bare resonance, where it divides by zero."""


class RootBracketingFailure(QslabError):
    """Bisection, the one acceptance rule for band edges and dispersion branches, isolated no sign change."""


class PoleDivergentFrequency(QslabError):
    """Scattering was requested exactly at a band-edge index pole."""


class DetectorInsideMedium(QslabError):
    """The photodetector position is not beyond the right face of the slab."""


class StiffnessFailure(QslabError):
    """The ODE integrator could not meet its accuracy contract."""


class ConfigError(QslabError):
    """A medium configuration file is malformed or violates the schema."""


class RangeError(QslabError):
    """A sweep or grid request is out of its valid range."""


class PulseFileError(QslabError):
    """A pulse spectrum file is malformed."""
