"""Exception taxonomy shared by the whole package.

The CLI maps these onto distinct process exit codes, so keep the split:
ModelError subclasses mean "the input object is mathematically invalid",
SizeBoundError means "the requested computation is outside the configured
exhaustive-search bounds", BoundSettingError means "an ``ESAKIA_*`` bound
variable is not a non-negative integer".
"""


class EsakiaError(Exception):
    """Base class for package errors."""


class ModelError(EsakiaError):
    """An input object fails its defining axioms."""


class PosetError(ModelError):
    pass


class SubsetError(ModelError):
    pass


class LatticeError(ModelError):
    pass


class NucleusError(ModelError):
    pass


class SpaceError(ModelError):
    pass


class SizeBoundError(EsakiaError):
    """Instance too large for an exhaustive check; bounds are env-tunable."""


class BoundSettingError(EsakiaError):
    """An ``ESAKIA_*`` bound variable holds something other than a
    non-negative integer."""
