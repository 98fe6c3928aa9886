"""Exception types raised by the qslab library and CLI."""


class QslabError(Exception):
    """Base class for all qslab errors."""


class PoleAtResonance(QslabError):
    """The Sellmeir sum was evaluated exactly at a bare resonance, where it divides by zero."""


class RootBracketingFailure(QslabError):
    """A dispersion branch was not isolated by bisection, or its root failed the residual check."""


class EdgeNotFound(QslabError):
    """Bisection isolated no band edge below a resonance.

    ``MediumSpec`` rejects couplings that admit none (sum g/Omega^2 >= 1).
    """


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
