"""Exception hierarchy.

Mathematical invalidity (an input that fails the superalgebra axioms or an
operation precondition) is kept separate from file-format problems so the CLI
can map them to distinct exit codes.
"""


class SuperlieError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParams(SuperlieError, ValueError):
    """A constructor was called with out-of-range parameters."""


class GradingError(SuperlieError):
    """A structure constant lands on a basis element of the wrong parity."""

    def __init__(self, i, j, k, labels):
        self.i, self.j, self.k = i, j, k
        super().__init__(f"bracket [{labels[i]},{labels[j]}] has a component on {labels[k]}"
                         " of the wrong parity")


class JacobiError(SuperlieError):
    """The graded Jacobi identity fails on a basis triple."""

    def __init__(self, i, j, k, residual):
        self.i, self.j, self.k = i, j, k
        self.residual = residual
        super().__init__(f"Jacobi identity fails on basis triple ({i},{j},{k}); residual {residual}")


class ParentMismatch(SuperlieError):
    """Subspaces of different algebras were combined."""


class NonHomogeneous(SuperlieError):
    """An operation requiring a homogeneous element received a mixed one."""


class NotAnIdeal(SuperlieError):
    """Quotient was requested by a subspace that is not an ideal."""


class SingularMatrix(SuperlieError):
    """A base-change matrix is not invertible."""


class ParityMixing(SuperlieError):
    """A base-change matrix mixes the even and odd blocks."""


class UnknownName(SuperlieError, KeyError):
    """A builtin algebra name does not match the name grammar."""


class DependentClasses(SuperlieError):
    """Chosen cohomology classes are linearly dependent modulo coboundaries."""


class StemConditionFailed(SuperlieError):
    """A central extension kernel is not contained in the derived subalgebra."""


class NotNilpotent(SuperlieError):
    """Classification was requested for a non-nilpotent algebra."""


class NotInSecondCenterMinusCenter(SuperlieError):
    """The element is outside the domain of the rank-bound computation."""


class UsageError(SuperlieError):
    """A command line does not match the documented usage."""


class UnreadableInput(SuperlieError):
    """An input file is missing or cannot be read as text."""


class UnwritableOutput(SuperlieError):
    """The output holds text, such as a non-ASCII algebra name, that the
    encoding of stdout cannot represent."""


class ParseError(SuperlieError):
    """A structure-constant file is syntactically malformed."""

    def __init__(self, line, column, message):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class DuplicateIdentifier(ParseError):
    pass


class UnknownIdentifier(ParseError):
    pass


class InconsistentBracket(ParseError):
    pass
