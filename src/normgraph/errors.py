"""Exception hierarchy shared by all normgraph modules."""


class NormgraphError(Exception):
    """Base class for all library errors."""


class RowOutOfAmbient(NormgraphError):
    """A generator row has a coordinate outside its canonical residue range."""


class UnknownLabel(NormgraphError):
    """A referenced factor / variable label does not exist."""


class AmbientMismatch(NormgraphError):
    """Two subgroups that should share an ambient product do not."""


class NotASubgroup(NormgraphError):
    """Expected a subgroup relationship (D subset of C) that does not hold."""


class BadPartition(NormgraphError):
    """Label sets do not form the required partition of an ambient."""


class TooLargeToEnumerate(NormgraphError):
    """An enumeration would exceed the configured cap."""


class ValidationFailed(NormgraphError):
    """A realization failed its structural validation."""


class UnknownEdge(NormgraphError):
    """A referenced state edge does not exist."""


class UnknownVariable(NormgraphError):
    """A referenced variable does not exist in the given context."""


class AlphabetMismatch(NormgraphError):
    """Alphabets that must agree (possibly through an isomorphism) do not."""


class NotAStateEdge(NormgraphError):
    """Local reduction was asked for something that is not a reducible state edge."""


class FragmentsOverlap(NormgraphError):
    """Fragments that must be disjoint (or non-adjacent) are not."""


class EdgeIsCutSet(NormgraphError):
    """State-trimness analysis requires cutting the edge to leave one component."""


class NotCycleFree(NormgraphError):
    """The operation is defined only for cycle-free realizations."""


class Disconnected(NormgraphError):
    """The operation is defined only for connected realizations."""


class NotTrimProper(NormgraphError):
    """The realization must be internally trim and proper first."""


class MissingIncoming(NormgraphError):
    """A sum-product update is missing an incoming message."""


class WeightOverflow(NormgraphError):
    """Float sum-product weights overflowed, so a marginal is not finite."""


class NotInExternalBehavior(NormgraphError):
    """The supplied configuration is not a valid external configuration."""


class NotInternallyProper(NormgraphError):
    """State recovery requires every constraint code to be proper."""
