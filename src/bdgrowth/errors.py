"""Exception types shared across the package, and the hook by which a
record refuses bad values."""


def checked(cls):
    """Make cls, a NamedTuple class, run its _check method, which raises on a
    bad value, on every new instance, _replace's too. A NamedTuple body
    cannot define __new__, so it is wrapped here."""
    make = cls.__new__

    def __new__(klass, *args, **kwargs):
        self = make(klass, *args, **kwargs)
        self._check()
        return self

    cls.__new__ = __new__
    cls._make = classmethod(lambda klass, values: klass(*values))
    return cls


class BdGrowthError(Exception):
    """Base class for all package-specific errors."""


class SampleTooSmall(BdGrowthError):
    """Fewer coalescence times (or tips) than the operation requires."""


class DegenerateTimes(BdGrowthError):
    """All coalescence times coincide, so difference-based statistics vanish."""


class NonFiniteTimes(BdGrowthError, FloatingPointError, ValueError):
    """Coalescence times hold inf or nan.

    A numerical failure (a FloatingPointError) where a sampler produced
    them, and a bad value (a ValueError) where a caller passed them.
    """


class NonConvergence(BdGrowthError):
    """Optimizer failed to produce a usable iterate."""


class InsufficientReplicates(BdGrowthError):
    """Monte Carlo sample too small for the requested precision."""


class RelativeAxisError(BdGrowthError):
    """Operation needs absolute-time coalescence times but got relative ones."""


class ParseError(BdGrowthError):
    """Newick text could not be parsed.

    Carries the character offset (an index into the parsed str) of the
    failure and what was expected there.
    """

    def __init__(self, offset: int, expected: str):
        self.offset = offset
        self.expected = expected
        super().__init__(f"parse error at character {offset}: expected {expected}")


class MissingBranchLength(BdGrowthError):
    """A non-root edge has no branch length, so the tree cannot be used for estimation."""


class NotUltrametric(BdGrowthError):
    """Tip depths differ by more than the allowed tolerance.

    Carries the worst relative deviation seen.
    """

    def __init__(self, worst_deviation: float, tolerance: float):
        self.worst_deviation = worst_deviation
        self.tolerance = tolerance
        super().__init__(
            f"tree is not ultrametric: worst relative tip-depth deviation "
            f"{worst_deviation:.3g} exceeds tolerance {tolerance:.3g}"
        )


class NotBinary(BdGrowthError):
    """Tree has a multifurcating (or single-child) internal node."""
