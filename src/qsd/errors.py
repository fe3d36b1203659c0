"""Exception types shared across the package.

Input-shape problems raise plain ValueError from the type constructors;
the classes here mark solver-level failures that callers may want to
catch and route (for example the CLI maps them to exit code 2).
"""


class DiscriminationError(Exception):
    """Base class for solver-level failures."""


class DegenerateRatioError(DiscriminationError):
    """A ratio p ties a prior whose state it cannot cover.

    family.guess_result raises it when a state whose prior ties the guessed
    one sits away from the common point; a guess that is merely not optimal
    fails the certificate gate with CertificateError instead.
    """


class DegenerateGeometryError(DiscriminationError):
    """A denominator collapsed (collinear conjugates, boundary-case geometry)."""


class GramConsistencyError(DiscriminationError):
    """The two multiplier triples disagree: the dot products are not coplanar."""


class WeightSystemInfeasible(DiscriminationError):
    """The weight sweep found no w >= 0 with sum w = 2, sum w_i d_i = 0.

    The symmetric shell and the cone, which is solved as the shell about
    its axis point, let it propagate; solve_auto runs the oracle.
    """


class ConvergenceError(DiscriminationError):
    """The minimax oracle could not certify an optimum."""


class CertificateError(DiscriminationError):
    """An assembled solution failed its own verification suite."""
