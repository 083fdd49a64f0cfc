"""Exception hierarchy.

Everything raised on purpose derives from :class:`PointerlabError` so callers
can catch the library as a whole.  File-system failures while writing reports
propagate as the interpreter's own ``OSError``.
"""


class PointerlabError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(PointerlabError):
    """Operands live on incompatible spaces."""


class BasisNotOrthonormal(PointerlabError):
    """A family of vectors required to be orthonormal is not."""


class GridMismatch(PointerlabError):
    """Lattice objects defined on different grids were combined."""


class UnresolvableWidth(PointerlabError):
    """A wave packet is narrower than the lattice can resolve."""


class NullState(PointerlabError):
    """Symmetrization annihilated the state (identical fermionic inputs)."""


class SupportViolation(PointerlabError):
    """Too much probability mass lies on the wrong side of the domain."""


class CapacityExceeded(PointerlabError):
    """A dense construction would exceed the configured dimension cap."""


class SpecInvalid(PointerlabError):
    """A premeasurement specification violates its invariants."""


class MeasurementConditionViolated(SpecInvalid):
    """The transfer family is not orthonormal across outcome sectors."""


class ScenarioError(PointerlabError):
    """Base class for scenario-file problems."""


class ParseError(ScenarioError):
    """The scenario file is not parseable."""


class ValidationError(ScenarioError):
    """The scenario file parses but violates the schema."""


class RunStageError(PointerlabError):
    """A scenario pipeline stage failed; the message names the stage."""
