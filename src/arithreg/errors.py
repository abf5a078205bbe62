"""Exception types shared across the package, and the overflow-checked power that raises one."""


class InvalidSpecError(ValueError):
    """A group/config specification is malformed (bad factors, bad flags)."""


class DomainMismatchError(ValueError):
    """Operands live on different groups, or a precondition on the domain fails."""


class ResourceBudgetError(RuntimeError):
    """An exhaustive computation would exceed the configured size budget."""


class InternalCheckError(AssertionError):
    """A mathematically guaranteed invariant failed at runtime (indicates a bug)."""


class UsageError(ValueError):
    """A checker or CLI entry point was called with an unknown identifier."""


class RetryExhaustedError(RuntimeError):
    """A randomized search ran out of attempts; retry with a different seed."""


def checked_pow(base: float, exponent: float, name: str) -> float:
    """base**exponent, or a DomainMismatchError naming the parameter when the power overflows."""
    try:
        return base**exponent
    except OverflowError:
        raise DomainMismatchError(f"{name}^{exponent} overflows at {name} = {base}") from None
