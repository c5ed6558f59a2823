"""Exception taxonomy.

Two bases: InputError for anything wrong with data or arguments, and
NumericalError for solver-side failures. The CLI maps InputError to exit
code 2 and NumericalError to exit code 3.
"""


class EigenlocError(Exception):
    pass


class InputError(EigenlocError):
    pass


class NumericalError(EigenlocError):
    pass


class IsolatedNode(InputError):
    """Node with zero degree; the random-walk operator is undefined."""

    def __init__(self, node: int):
        self.node = node
        super().__init__(f"node {node} is isolated (zero degree)")


class AsymmetricFlow(InputError):
    def __init__(self, i: int, j: int):
        self.i, self.j = i, j
        super().__init__(f"flow matrix is asymmetric at ({i}, {j})")


class NonpositivePopulation(InputError):
    def __init__(self, node: int):
        self.node = node
        super().__init__(f"population of node {node} is not positive")


class NotNormalized(InputError):
    """Vector is not unit L2; caller must renormalize first."""


class EmptySubset(InputError):
    pass


class DisconnectedGraph(InputError):
    pass


class SizeMismatch(InputError):
    pass


class DisconnectedSubgraph(InputError):
    pass


class SubsetTooSmall(InputError):
    pass


class CurveTooShort(InputError):
    pass


class MissingLabels(InputError):
    pass


class ParseError(InputError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DuplicateEdge(InputError):
    def __init__(self, i: int, j: int):
        self.i, self.j = i, j
        super().__init__(f"duplicate edge ({i}, {j})")


class NegativeWeight(InputError):
    def __init__(self, i: int, j: int):
        self.i, self.j = i, j
        super().__init__(f"negative weight on edge ({i}, {j})")


class MissingPopulation(InputError):
    def __init__(self, node: int):
        self.node = node
        super().__init__(f"no population entry for node {node}")


class UnequalBeadSizes(InputError):
    pass


class AllZeroSpectrum(InputError):
    pass


class ConvergenceFailure(NumericalError):
    """Eigenpair `rank` failed a check of kind "residual" (||S y - lambda y||
    above RESIDUAL_TOL), "orthogonality" (Lanczos vectors not orthonormal to
    ORTH_TOL) or "restarts" (not converged within MAX_RESTARTS restarts)."""

    def __init__(self, rank: int, residual: float | None = None, kind: str = "residual"):
        self.rank = rank
        self.residual = residual
        self.kind = kind
        detail = f" (residual {residual:.3e})" if residual is not None else ""
        super().__init__(f"eigenpair {rank} failed the {kind} check{detail}")


class IoError(EigenlocError):
    pass
