"""Exception hierarchy shared by the whole package.

Every error carries a machine-readable ``code`` (stable, kebab-case) and an
``exit_code`` used by the command-line front end:

    2  usage errors (argparse handles these directly)
    3  parse errors in field / polynomial text
    4  math-domain errors (bad inputs to an otherwise healthy pipeline)
    5  internal assertion failures
"""


class OreError(Exception):
    code = "math-domain"
    exit_code = 4


class NotPrime(OreError):
    code = "not-prime"


class ReducibleModulus(OreError):
    code = "reducible-modulus"


class DegreeMismatch(OreError):
    code = "degree-mismatch"


class ContextMismatch(OreError):
    code = "context-mismatch"


class RingMismatch(OreError):
    code = "ring-mismatch"


class DivisionByZero(OreError, ZeroDivisionError):
    code = "division-by-zero"


class ZeroPolynomial(OreError):
    code = "zero-polynomial"


class ZeroElement(OreError):
    code = "zero-element"


class BothZero(OreError):
    code = "both-zero"


class NotAnExtension(OreError):
    code = "not-an-extension"


class IndexOutOfRange(OreError, IndexError):
    code = "index-out-of-range"


class EqualRows(OreError):
    code = "equal-rows"


class BothConstant(OreError):
    code = "both-constant"


class BadEvaluation(OreError):
    code = "bad-evaluation"


class PlanFailure(OreError):
    code = "plan-failure"


class SingularMooreSystem(OreError):
    code = "singular-moore-system"
    exit_code = 5


class ParseError(OreError):
    code = "parse-error"
    exit_code = 3

    def __init__(self, message, column=None):
        if column is not None:
            message = f"{message} (column {column})"
        super().__init__(message)
        self.column = column
