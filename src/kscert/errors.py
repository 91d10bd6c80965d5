"""Exception hierarchy shared by all kscert modules."""


class KSCertError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(KSCertError):
    pass


class NonHermitian(KSCertError):
    pass


class AnnihilationFailure(KSCertError):
    """Declared spectrum does not annihilate the operator."""


class ZeroVector(KSCertError):
    pass


class ZeroState(KSCertError):
    pass


class DuplicateObservable(KSCertError):
    pass


class NotCommuting(KSCertError):
    def __init__(self, i, j):
        super().__init__(f"observables {i} and {j} do not commute")
        self.pair = (i, j)


class NonRayMember(KSCertError):
    pass


class NotScalarMultiple(KSCertError):
    """A context product is not a scalar multiple of the identity."""


class NotDichotomic(KSCertError):
    def __init__(self, i):
        super().__init__(f"observable {i} is not {{-1,1}}-dichotomic")
        self.index = i


class VariableOutsideContext(KSCertError):
    pass


class UnknownVariable(KSCertError):
    pass


class UnassignedVariable(KSCertError):
    pass


class IdenticallyZeroOnAssignments(KSCertError):
    """Polynomial vanishes at every spectral assignment; no normalization."""


class EdgeOutsideBases(KSCertError):
    def __init__(self, i, j):
        super().__init__(f"orthogonal pair ({i}, {j}) lies in no supplied basis")
        self.pair = (i, j)


class Condition1Violated(KSCertError):
    def __init__(self, index, matrix):
        super().__init__(f"polynomial {index} does not vanish as an operator")
        self.index = index
        self.matrix = matrix


class NormalizationMismatch(KSCertError):
    def __init__(self, index, declared, computed):
        super().__init__(
            f"polynomial {index} declares c={declared}, but its normalization "
            f"constant is {computed}"
        )
        self.index = index


class PresentationUnavailable(KSCertError, ValueError):
    """The requested form cannot present this inequality."""


class SearchBudgetExceeded(KSCertError):
    pass


class NotKSProofError(KSCertError):
    """Raised by pipeline stages that require a verified proof as input."""


class ParseError(KSCertError):
    def __init__(self, message, line=None):
        loc = f"line {line}: " if line is not None else ""
        super().__init__(loc + message)
        self.line = line
