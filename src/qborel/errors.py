"""Exception types shared across the package.

Every error that carries a witness stores it on the instance so callers
(and certificates) can report the offending datum, not just a message.
"""

from __future__ import annotations


class QBorelError(Exception):
    """Base class for all package errors."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class NotInjective(QBorelError):
    """Two points map to the same value; witness is (x1, x2, y)."""


class InvalidPartition(QBorelError):
    """Blocks fail to cover the point set disjointly."""


class UnsupportedCarrier(QBorelError):
    """The operation is only defined for a different carrier kind."""


class NotAMorphism(QBorelError):
    """A point map does not respect the partitions; witness is a point pair."""


class EndpointMismatch(QBorelError):
    """Source/target spaces of composed maps do not agree."""


class NotWithinRelation(QBorelError):
    """A graph leaves the ambient relation; witness is a pair."""


class NotASelector(QBorelError):
    """A map is not a class-constant choice function; witness is a point pair."""


class IndexTooLarge(QBorelError):
    """A construction needs classes of bounded size; witness is a class."""


class NotAnEnumeration(QBorelError):
    """A graph family fails the closure checks; witness is the report."""


class NotMaximal(QBorelError):
    """A partial injection misses an extendable pair; witness is (y, z)."""


class NoAcceleration(QBorelError):
    """Level dynamics did not become periodic within the probe bounds."""


class InvalidCertificate(QBorelError):
    """Certificate text is not a JSON object with a list of checks."""


class NotCovered(QBorelError):
    """A relation is not contained in the union of the given graphs."""


class NotFree(QBorelError):
    """A group action has a nontrivial stabilizer; witness is (element, point)."""


class NotASubgroup(QBorelError):
    """A subset of a group is not closed under the operations."""


class AlphabetMismatch(QBorelError):
    """Words over different alphabets were combined."""


class BadParameters(QBorelError):
    """Model or probe parameters are out of the supported range."""


class UnknownExample(QBorelError):
    """No gallery instance with the requested name."""


class InstanceSyntaxError(QBorelError):
    """Instance text could not be parsed; carries line and column."""

    def __init__(self, message: str, line: int, column: int = 0):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.column = column


class UnknownReference(QBorelError):
    """A declaration refers to a name not declared earlier."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(message)
        self.line = line
