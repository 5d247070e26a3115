"""Exception types shared across the package."""


class FslabError(Exception):
    """Base class for every error raised by fslab."""


class DomainError(FslabError):
    """Invalid class parameters, measures, or functional arguments, a mu that
    is not a finite real or complex number, or a spot-checked member whose g
    is not normalized (b_1 != 1)."""


class CaseRangeError(FslabError):
    """Extremal configuration requested outside its admissible parameter range."""


class ViolationError(FslabError):
    """A searched member exceeded the closed-form bound beyond tolerance.

    params, p_measure and q_measure determine the offending member (through
    member_from_pq) and mu is where its functional was evaluated.
    """

    def __init__(self, message: str, *, params, p_measure, q_measure, mu):
        super().__init__(message)
        self.params = params
        self.p_measure = p_measure
        self.q_measure = q_measure
        self.mu = mu
