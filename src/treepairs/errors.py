"""Exception types shared across the package."""

__all__ = [
    "TreePairError",
    "MalformedWordError",
    "NoParentError",
    "NotInternalError",
    "NotCommonError",
    "NotDifficultError",
    "SizeGuardExceededError",
    "SizeTooSmallError",
]


class TreePairError(Exception):
    """Base class for all domain errors raised by this package."""


class MalformedWordError(TreePairError, ValueError):
    """Input is not a valid pre-order tree word (or pair of them), or names
    no node or grow side of one."""


class NoParentError(TreePairError):
    """An operation needing a parent was applied to the root."""


class NotInternalError(TreePairError):
    """An operation needing an internal node was applied to a leaf."""


class NotCommonError(TreePairError):
    """A split was requested at an interval that is not common to the pair."""


class NotDifficultError(TreePairError):
    """An operation requiring a difficult pair received a reducible one."""


class SizeGuardExceededError(TreePairError):
    """An exhaustive search or census was requested beyond its size guard."""


class SizeTooSmallError(TreePairError, ValueError):
    """A size, count or size guard is not an int or is below its least
    value; difficult pairs, for one, only exist from size 4 upward."""
