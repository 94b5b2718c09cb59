"""Exception types raised across the package.

Every error carries enough context to identify the offending input; CLI code
serializes them to JSON via `as_dict`.
"""
from __future__ import annotations


class CatfuseError(Exception):
    """Base class for all package errors."""

    def as_dict(self) -> dict:
        return {"error": type(self).__name__, "message": str(self)}


# ---------------------------------------------------------------------------
# data model
# ---------------------------------------------------------------------------

class MissingColumn(CatfuseError):
    def __init__(self, column: str):
        self.column = column
        super().__init__(f"column {column!r} not found in CSV header")


class UnknownLevel(CatfuseError):
    def __init__(self, row: int, factor: str, token: str):
        self.row = row
        self.factor = factor
        self.token = token
        super().__init__(
            f"row {row}: level {token!r} of factor {factor!r} is not in the schema"
        )


class NonNumericResponse(CatfuseError):
    def __init__(self, row: int, token: str = ""):
        self.row = row
        self.token = token
        super().__init__(f"row {row}: response value {token!r} is not numeric")


class EmptyDataset(CatfuseError):
    pass


class DegenerateFactor(CatfuseError):
    def __init__(self, factor: str, n_levels: int):
        self.factor = factor
        super().__init__(f"factor {factor!r} has {n_levels} level(s); need at least 2")


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

class UnobservedLevel(CatfuseError):
    def __init__(self, factor: str, level: str):
        self.factor = factor
        self.level = level
        super().__init__(
            f"frequency weights need every level observed; factor {factor!r} "
            f"level {level!r} has count 0"
        )


class OlsUnavailable(CatfuseError):
    pass


class MissingCoordinates(CatfuseError):
    def __init__(self, factor: str | None = None):
        self.factor = factor            # None: no factor of the schema has any
        super().__init__("no factor of the schema has spatial coordinates" if factor is None
                         else f"factor {factor!r} has no spatial coordinates")


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

class NotConverged(CatfuseError):
    pass


class LayoutMismatch(CatfuseError):
    pass


# ---------------------------------------------------------------------------
# structure / selection / simlab
# ---------------------------------------------------------------------------

class RankDeficient(CatfuseError):
    pass


class FoldRankDeficient(CatfuseError):
    def __init__(self, fold: int, detail: str = ""):
        self.fold = fold
        msg = f"training part of fold {fold} is rank deficient"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class ShapeMismatch(CatfuseError, ValueError):
    """A per-level coefficient vector of the wrong length."""
