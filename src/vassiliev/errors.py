"""Exception types shared across the package.

Everything derives from VassilievError so callers can catch one base
class at API boundaries (the CLI maps it to exit code 2).
"""


class VassilievError(ValueError):
    """Base class for all input and computation errors raised here."""


class MalformedToken(VassilievError):
    """A token does not match the Gauss code grammar."""


class LabelRoleMismatch(VassilievError):
    """A crossing label does not occur exactly once as O and once as U."""


class SignMismatch(VassilievError):
    """The two passages of one crossing carry different signs."""


class UnbalancedLabel(VassilievError):
    """An arrow or chord label does not occur exactly twice."""


class IndexOutOfRange(VassilievError):
    """A word position lies outside the valid insertion range."""


class UnknownLabel(VassilievError):
    """The requested crossing label is not present in the code."""


class SameChord(VassilievError):
    """Interleaving asked for a chord against itself."""


class UnsupportedOrientationCase(VassilievError):
    """The requested strand insertion has no knot-preserving realization."""


class NonIntegerResult(VassilievError):
    """An invariant that must be an integer evaluated to a non-integer."""


class WrongDegree(VassilievError):
    """A diagram has a different number of chords than the operation needs."""


class TooLarge(VassilievError):
    """Enumeration was requested beyond the supported size."""


class DegreeTooHigh(VassilievError):
    """No evaluator is available at the requested degree."""


class UnknownInvariant(VassilievError):
    """The named invariant is not in the registry."""


class UnderdeterminedSystem(VassilievError):
    """The probe set does not pin down the requested coefficients."""


class NonPlanarCode(VassilievError):
    """A Gauss code that is not the code of a plane knot diagram."""


class CheckFailed(VassilievError):
    """A computed result failed a check that guards its correctness."""


class ParseError(VassilievError):
    """A structured input file failed to parse.

    Carries the 1-based line number of the offending record.
    """

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
