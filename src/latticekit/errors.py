"""Exception types shared across the package."""


class LatticeError(Exception):
    """Base class for every error raised by latticekit."""


class UnknownElement(LatticeError):
    """An element name does not occur in the poset or lattice."""


class CycleDetected(LatticeError):
    """The input cover relation contains a directed cycle."""

    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__(f"cover relation has a cycle: {' < '.join(self.cycle)}")


class SizeLimitExceeded(LatticeError):
    """An enumeration or search would exceed its configured cap."""


class ChainCapExceeded(SizeLimitExceeded):
    """Explicit maximal-chain enumeration would exceed the chain cap."""


class InvalidArgument(LatticeError, ValueError):
    """An argument is outside its domain: a negative generator count, a
    name already taken, labels that miss cover edges.  Also a ValueError,
    so callers catching that keep working."""


class InvariantViolation(LatticeError):
    """Equivalent criteria, or two computations of one result, disagree.

    Raised instead of asserting, so the check also runs under ``python -O``;
    it signals a defect in latticekit rather than bad input.
    """


class NotALattice(LatticeError):
    """Some pair of elements has no unique lub or glb, or the order has no
    unique bottom or top, or no elements at all.

    ``pair`` is the offending pair of names, ``candidates`` the set of
    minimal upper (or maximal lower) bounds found for it.  When the whole
    order fails, ``pair`` is None and ``candidates`` holds the elements
    below (or above) all others: kind ``"bottom"`` or ``"top"``, or
    ``"empty"`` for an order with no elements.
    """

    def __init__(self, pair, candidates, kind="join"):
        self.pair = pair
        self.candidates = sorted(candidates)
        self.kind = kind
        if pair is not None:
            message = f"no unique {kind} for {pair}: minimal bounds {self.candidates}"
        elif kind == "empty":
            message = "lattice has no elements"
        else:
            message = f"no unique {kind}: candidates {self.candidates}"
        super().__init__(message)


class NotDistributive(LatticeError):
    """Operation requires a distributive lattice."""


class NotModular(LatticeError):
    """Operation requires a modular lattice."""


class NotRestricted(LatticeError):
    """Operation requires a lattice with at least 2 atoms and 2 coatoms."""


class NotMaximalChain(LatticeError):
    """The given chain is not a maximal chain from bottom to top."""


class NotComparable(LatticeError):
    """Interval endpoints are not comparable."""


class ArityMismatch(LatticeError):
    """Free-lattice operands have different numbers of generators."""


class DnfSyntaxError(LatticeError):
    """Malformed meet/join expression; ``position`` is the text offset."""

    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} at offset {position}")


class UnknownVariable(LatticeError):
    """Expression variable is not one of the allowed generators."""


class InvalidSpec(LatticeError):
    """Structurally invalid reconstruction input."""


class CoverageGap(InvalidSpec):
    """A declared composition factor is covered by no irreducible."""

    def __init__(self, label):
        self.label = label
        super().__init__(f"no declared irreducible covers factor {label!r}")


class DuplicateTopFactor(InvalidSpec):
    """Two irreducibles claim the same top factor."""

    def __init__(self, label):
        self.label = label
        super().__init__(f"more than one irreducible has top factor {label!r}")


class InconsistentOrder(InvalidSpec):
    """Declared containment facts are cyclic."""


class OrderConflict(LatticeError):
    """Declared and factor-derived containments disagree."""

    def __init__(self, pair, reason):
        self.pair = pair
        self.reason = reason
        super().__init__(f"order conflict on {pair}: {reason}")


class EmbeddingFailure(LatticeError):
    """A declared partial cover edge has no image in the rebuilt lattice."""

    def __init__(self, edge):
        self.edge = edge
        super().__init__(f"declared edge {edge} does not embed into the result")
