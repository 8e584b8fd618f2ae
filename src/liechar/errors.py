"""Exception types shared across the package, and strict parsing of JSON data."""


class LiecharError(Exception):
    """Base class for all errors raised by this package."""


class NotFiniteTypeError(LiecharError):
    """Cartan matrix is malformed or not of finite type."""


class RankMismatchError(LiecharError):
    """Weights or characters of different ranks were combined."""


class NonDominantError(LiecharError):
    """A dominant weight was required."""


class NonInvariantError(LiecharError):
    """A W-invariant character was required."""


class CoverageError(LiecharError):
    """A decomposition or injective-hull data source lacks a needed weight."""

    def __init__(self, weight, message=None):
        self.weight = weight
        super().__init__(message or f"no data for weight {weight}")


class DivisionFailure(LiecharError):
    """Exact character division failed; carries the obstructing term."""

    def __init__(self, weight, mult, message=None):
        self.weight = weight
        self.mult = mult
        super().__init__(
            message or f"non-divisible: remainder term {mult} at weight {weight}"
        )


class DataValidationError(LiecharError):
    """An external data document failed schema or consistency checks."""


def strict_int(value, what):
    """value itself if it is an int; DataValidationError naming `what` otherwise.

    bool, float, str and every other type are rejected rather than
    converted, so malformed data is never truncated or coerced.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise DataValidationError(f"{what} must be an integer, got {value!r}")


def strict_int_tuple(value, what):
    """A tuple from a sequence whose items all pass strict_int."""
    try:
        coords = tuple(value)
    except TypeError:
        raise DataValidationError(
            f"{what} must be a list of integers, got {value!r}"
        ) from None
    for c in coords:
        strict_int(c, what)
    return coords


def weight_keyed(entries, key, read_value, what):
    """{weight: read_value(entry)} over entries, a JSON list of objects,
    each weight being strict_int_tuple(entry[key]).

    DataValidationError when entries is not a list, naming an entry that
    raises KeyError, TypeError or ValueError (not an object, or a key
    missing), and "duplicate <what> <weight>" on a repeated weight.
    """
    if not isinstance(entries, list):
        raise DataValidationError(f"{key} entries must form a list, got {entries!r}")
    result = {}
    for entry in entries:
        try:
            weight = strict_int_tuple(entry[key], key)
            value = read_value(entry)
        except (KeyError, TypeError, ValueError) as exc:
            raise DataValidationError(f"malformed {what} entry {entry!r}") from exc
        if weight in result:
            raise DataValidationError(f"duplicate {what} {weight}")
        result[weight] = value
    return result
