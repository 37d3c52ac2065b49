"""Exception types shared across the library."""


class HierflowError(Exception):
    """Base class for all library errors."""


# graph construction
class SelfLoopError(HierflowError):
    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"self-loop at vertex {vertex}")


class VertexOutOfRangeError(HierflowError):
    pass


class InfeasibleFlowError(HierflowError):
    pass


# dynamic forest
class NotARootError(HierflowError):
    pass


class SameTreeError(HierflowError):
    pass


class NoParentError(HierflowError):
    pass


# push-relabel
class WeightZeroError(HierflowError):
    pass


class BadInstanceError(HierflowError):
    pass


class SolverInvariantError(HierflowError):
    """A solver broke a guarantee of its own, or of a solver passed to it."""


# hierarchy
class NotAcyclicError(HierflowError):
    """A graph that must be acyclic has a cycle: a hierarchy's D, or the
    instance of the DAG approximation."""


class LevelViolationError(HierflowError):
    pass


class NotStronglyConnectedError(HierflowError):
    pass


class InvalidHierarchyError(HierflowError):
    pass


# builder
class IterationCapExceededError(HierflowError):
    pass


class BuildFailedError(HierflowError):
    pass


class CutCheckFailedError(HierflowError):
    """A matching-player round produced a cut that fails its contract."""


# file formats
class ParseError(HierflowError):
    def __init__(self, line_no, reason):
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"line {line_no}: {reason}")


class BadParamsError(HierflowError):
    pass
