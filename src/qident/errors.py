"""Exception types shared across the engine, and the parameter-name check."""


class QIdentError(Exception):
    """Base class for all engine errors."""


class DomainError(QIdentError):
    """An input lies outside the operation's domain (|q| >= 1, n < 0, ...)."""


class PoleError(QIdentError):
    """A denominator q-Pochhammer factor vanishes before the termination index."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class DivergenceError(QIdentError):
    """A nonterminating series was requested outside its convergence region."""


class NoConvergence(QIdentError):
    """An adaptive computation failed to reach the requested accuracy."""


class ZeroArgument(QIdentError):
    """An argument that must be nonzero is zero: theta's x, or a divisor parameter."""


class HypothesisViolation(QIdentError):
    """An integral representation's modulus hypothesis fails on the contour."""

    def __init__(self, message: str, factor: str | None = None):
        super().__init__(message)
        self.factor = factor


class UnknownIdentity(QIdentError):
    """The requested identity ID is not registered."""


class ConstraintViolation(QIdentError):
    """Parameters violate an identity's validity predicate."""

    def __init__(self, message: str, predicate: str | None = None):
        super().__init__(message)
        self.predicate = predicate


class SamplerExhausted(QIdentError):
    """The parameter sampler rejected too many consecutive draws."""


def check_names(identity_id: str, expected, params: dict) -> None:
    """DomainError naming the missing and the unexpected names unless the keys
    of params are exactly the names in expected."""
    if params.keys() != set(expected):
        missing = [k for k in expected if k not in params]
        unexpected = sorted(k for k in params if k not in expected)
        problems = "; ".join(
            f"{label} {', '.join(names)}"
            for label, names in (("missing", missing), ("unexpected", unexpected))
            if names
        )
        raise DomainError(f"{identity_id} takes parameters ({', '.join(expected)}): {problems}")


def check_eps(eps: float) -> None:
    """DomainError naming eps unless it is a positive number."""
    if not eps > 0:
        raise DomainError(f"eps must be positive, got {eps!r}")
