"""Exception hierarchy shared across the package.

Domain-level failures (bad input data, unmet preconditions) and resource-cap
failures (deliberately bounded computations) are kept apart so the CLI can
map them to distinct exit codes.
"""


class TreelatError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(TreelatError):
    """Input is structurally valid Python but violates a domain precondition."""


class ResourceCapExceeded(TreelatError):
    """A deliberately bounded computation hit its configured cap."""


class InternalInvariantError(TreelatError):
    """A theorem-backed internal invariant failed; indicates a bug, not bad input."""


# -- permutation engine ------------------------------------------------------

class DegreeMismatch(DomainError):
    pass


class PointOutOfRange(DomainError):
    pass


class TooLarge(ResourceCapExceeded):
    """Group order exceeds the enumeration cap."""


# -- group property analysis -------------------------------------------------

class DegreeTooSmall(DomainError):
    pass


class NotTransitive(DomainError):
    pass


class NotNormal(DomainError):
    pass


class NotAlmostSimple(DomainError):
    pass


class PreconditionFailed(DomainError):
    pass


# -- square-complex data -----------------------------------------------------

class MalformedDocument(DomainError):
    pass


def optional_field(document: dict, key: str, kind: type, default=None):
    """document[key] when the key is present, which must then be exactly a
    `kind` (a JSON boolean is no int, a null no string); else `default`."""
    if key not in document:
        return default
    value = document[key]
    if type(value) is not kind:
        raise MalformedDocument(f"{key} must be of type {kind.__name__}, got {value!r}")
    return value


class OddAlphabet(MalformedDocument):
    pass


class InvolutionNotFpf(MalformedDocument):
    pass


class InvalidDatum(DomainError):
    """Operation requires a datum that passes validation."""


# -- local actions ------------------------------------------------------------

class DepthOverflow(ResourceCapExceeded):
    """Sphere word count would exceed the configured bound."""


class TowerTooShort(DomainError):
    pass


# -- pipeline / cli ------------------------------------------------------------

class RatioBelowOne(DomainError):
    pass


class RatioTooLarge(ResourceCapExceeded):
    """Covolume ratio above the cap on N of the index bound."""


class UnknownEntry(DomainError):
    pass
