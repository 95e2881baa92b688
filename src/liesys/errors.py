"""Exception types shared across the package."""


class LieSysError(Exception):
    """Base class for all package errors."""


class DimensionError(LieSysError):
    """Vector or tensor dimensions are inconsistent."""


class ChartError(LieSysError):
    """Chart mismatch, unknown conversion, or constraint violation."""


class DomainExitError(LieSysError):
    """A trajectory left the validity domain of a realization.

    Carries the time and state at the first offending evaluation.
    """

    def __init__(self, t, state, msg=""):
        self.t = t
        self.state = state
        super().__init__(msg or f"domain exit at t={t}")


class NumericsError(LieSysError):
    """Non-finite values or a failed numerical routine."""

    def __init__(self, msg, t=None, state=None):
        self.t = t
        self.state = state
        super().__init__(msg)


class SingularMatrixError(NumericsError):
    """Ill-conditioned or singular linear system; carries a condition
    estimate and, for a stack of systems, the index of the first failing one."""

    def __init__(self, cond, msg="", index=None):
        self.cond = cond
        self.index = index
        where = "" if index is None else f" at index {index}"
        super().__init__(msg or f"singular or ill-conditioned matrix{where} (cond~{cond:.3g})")


class WNBreakdownError(LieSysError):
    """The Wei-Norman chart broke down along the path.

    Second-kind canonical coordinates are only valid near the identity;
    the caller may re-order the factorization and restart.
    """

    def __init__(self, t, cond, node=None):
        self.t = t
        self.cond = cond
        self.node = node
        where = "" if node is None else f" at node {node}"
        super().__init__(f"Wei-Norman matrix singular{where} near t={t} (cond~{cond:.3g})")


class CoincidenceError(LieSysError):
    """Two particular solutions coincide at some node (division by zero)."""

    def __init__(self, node, msg=""):
        self.node = node
        super().__init__(msg or f"coincident particular solutions at node {node}")


class UnknownNameError(LieSysError):
    """Name not present in a registry."""
