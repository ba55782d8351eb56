"""Exception hierarchy shared by all plsphere modules."""


class PLSphereError(Exception):
    """Base class for all errors raised by this package."""


class EmptyInput(PLSphereError):
    pass


class DuplicateVertexInFacet(PLSphereError):
    def __init__(self, facet_index, facet, line=None):
        self.facet_index = facet_index
        self.facet = facet
        where = f"facet #{facet_index}" if line is None else f"line {line}: facet #{facet_index}"
        super().__init__(f"{where} contains a duplicate vertex: {facet}")


class NotPure(PLSphereError):
    pass


class NotAFace(PLSphereError):
    pass


class NotConnected(PLSphereError):
    pass


class NotPseudomanifold(PLSphereError):
    pass


class CapacityExceeded(PLSphereError):
    def __init__(self, needed, budget):
        self.needed = needed
        self.budget = budget
        super().__init__(f"face capacity exceeded: need {needed}, budget {budget}")


class DimensionOutOfRange(PLSphereError):
    pass


class InconsistentMatching(PLSphereError):
    pass


class StaleOption(PLSphereError):
    pass


class ImproperMove(PLSphereError):
    pass


class InvalidSpec(PLSphereError):
    pass


class PrereqFailed(PLSphereError):
    def __init__(self, details):
        self.details = details
        super().__init__(f"precondition failed: {details}")
