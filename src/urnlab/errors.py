"""Exception types shared across the library.

Every error carries a short machine-readable ``code`` plus a human message;
the CLI maps codes onto exit status.
"""


class UrnlabError(Exception):
    """Base class for all library errors."""

    code = "error"


class InvalidArgumentError(UrnlabError):
    """Input violates a documented precondition."""

    code = "invalid-argument"


class JordanIntegerEigenvalueError(InvalidArgumentError):
    """A Jordan block's eigenvalue is an integer step index: the step factor
    there is nilpotent, which the linear engine's weights cannot express."""

    code = "jordan-integer-eigenvalue"


class SpectrumError(UrnlabError):
    """An eigenvalue violates a stability/positivity requirement.

    The offending eigenvalue is recorded on ``eigenvalue``.
    """

    code = "spectrum-error"

    def __init__(self, message, eigenvalue=None):
        super().__init__(message)
        self.eigenvalue = eigenvalue


class NonConvergenceError(UrnlabError):
    """An iterative kernel failed to reach its tolerance.

    A kernel over a stack of inputs records the first failing one's flat
    position on ``index``.
    """

    code = "non-convergence"

    def __init__(self, message, residual=None, index=None):
        super().__init__(message)
        self.residual = residual
        self.index = index


class RegimeError(UrnlabError):
    """Operation called outside the spectral regime it is defined for."""

    code = "regime-error"


class ChainBasisRequiredError(UrnlabError):
    """A defective eigenvalue needs a caller-supplied chain basis."""

    code = "needs-chain-basis"


class InvalidBasisError(UrnlabError):
    """Supplied chain basis does not bring the matrix to block-canonical form."""

    code = "invalid-basis"

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class AssumptionViolationError(UrnlabError):
    """Model violates a structural assumption (eigenstructure, positivity)."""

    code = "assumption-violation"


class DivergenceError(UrnlabError):
    """A trajectory produced a non-finite state.

    ``first_bad_index`` is the earliest step at which it happened.
    """

    code = "divergence"

    def __init__(self, message, first_bad_index=None):
        super().__init__(message)
        self.first_bad_index = first_bad_index


class NumericalOverflowError(UrnlabError):
    """The drift h(theta) became non-finite at a finite state while the
    state the update leads to is finite: a floating point overflow inside
    one update, not the process diverging.

    ``step`` is the step whose update it broke.
    """

    code = "numerical-overflow"

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class RefinementError(UrnlabError):
    """A grid interval is too wide: its increment covariance overflows."""

    code = "refinement"


class ConfigError(UrnlabError):
    """Config document failed validation; ``path`` is a JSON pointer."""

    code = "config-error"

    def __init__(self, message, path="", expected=None, got=None):
        super().__init__(message)
        self.path = path
        self.expected = expected
        self.got = got
