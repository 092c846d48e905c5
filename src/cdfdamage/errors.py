"""Exception types shared across the package, and the integer rule for counts."""


class ConfigurationError(ValueError):
    """A model/distribution parameter is outside its admissible range."""


class DomainError(ValueError):
    """An evaluation point or parameter combination is outside the supported domain."""


class DivergenceError(ValueError):
    """A requested integral/moment does not converge."""


class NoClosedFormError(LookupError):
    """The requested quantity has no closed form for this kind; use the numeric route."""


class NoSmoothExpansionError(LookupError):
    """The stored-energy function is not smooth enough at zero for a Taylor expansion."""


class NonConvergenceError(RuntimeError):
    """An iterative solver failed to converge within its budget."""


def integral(name: str, value) -> int:
    """A count given as a number: 2.0 or 1e3 is accepted as an int, 2.9 or inf
    is refused rather than truncated."""
    if not float(value).is_integer():
        raise ConfigurationError(f"{name} must be an integer, got {value}")
    return int(value)
