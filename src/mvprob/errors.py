"""Exception types shared across the package."""


class InputError(ValueError):
    """Invalid input: carrier mismatch, signature violation, bad document."""


class UnsupportedCarrierError(InputError):
    """An operation was asked for on a carrier it does not support."""
