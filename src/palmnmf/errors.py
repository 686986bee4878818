"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


class DomainError(ValueError):
    """An input value lies outside the domain an operation requires."""


class ParseError(ValueError):
    """A matrix file could not be parsed.

    `line` and `column` are 1-based positions when known.
    """

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class NumericError(RuntimeError):
    """A computation produced non-finite values.

    `iteration` is the solver iteration that failed, if any; 0 is the initial point.
    """

    def __init__(self, message, iteration=None):
        if iteration is not None:
            message = f"iteration {iteration}: {message}"
        super().__init__(message)
        self.iteration = iteration
