"""Exception hierarchy for the delone_local package.

All domain errors derive from :class:`DeloneError`, so callers (and the CLI)
can distinguish domain failures from programming errors with one `except`.
"""


class DeloneError(Exception):
    """Base class for all domain errors raised by this package."""


# --- geometry ---------------------------------------------------------------

class NonOrthogonal(DeloneError):
    """A matrix supposed to be orthogonal failed the orthogonality check."""


# --- delone_core ------------------------------------------------------------

class TooFewPoints(DeloneError):
    """An operation needing at least two points got fewer."""


class BoxTooSmall(DeloneError):
    """The trusted box cannot support the requested computation."""


class CenterNotInPatch(DeloneError):
    """The requested cluster center is not a point of the patch."""


class MarginViolation(DeloneError):
    """A ball of the requested radius exits the trusted box.

    Proceeding would silently truncate the cluster, so we hard-fail instead.
    """


class ParseError(DeloneError):
    """A point-set file could not be parsed; message includes the line number."""


# --- equivalence ------------------------------------------------------------

class RadiusMismatch(DeloneError):
    """Two clusters compared for equivalence have different radii."""


class NoUsableCenters(DeloneError):
    """No patch point has enough margin for the requested radius."""


# --- point_group ------------------------------------------------------------

class LowerDimensionalCluster(DeloneError):
    """Cluster with affine hull of dimension < 3; its stabilizer is infinite."""


class NotAGroup(DeloneError):
    """An element set failed the group check: the identity is missing, a
    product is missing, or the product table is not a Latin square."""


class UnrecognizedGroup(DeloneError):
    """A group's counts (proper elements, largest rotation order,
    reflections) fit no finite subgroup of O(3) in the classification.

    Cannot happen for genuine finite subgroups of O(3); raised defensively.
    """


class GroupTooLarge(DeloneError):
    """Group order exceeds the supported ceiling (120, the largest finite
    subgroup of O(3) acting on our data)."""


# --- regularity -------------------------------------------------------------

class UnknownLabel(DeloneError):
    """A bounds-table lookup used a label not present in the table."""


# --- generators -------------------------------------------------------------

class InvalidShift(DeloneError):
    """A bi-lattice shift vector is in the lattice or not orthogonal to the
    layer plane."""


class DegenerateAntiprism(DeloneError):
    """Antiprism parameters collapse the two bases into one plane."""


# --- antiprism_opt ----------------------------------------------------------

class InfeasibleParams(DeloneError):
    """Optimization parameters violate the feasibility constraints."""


class BudgetExhausted(DeloneError):
    """No optimizer start converged within the given budget."""
