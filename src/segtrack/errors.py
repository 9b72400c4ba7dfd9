"""Exception types shared across the toolkit, and a helper for their messages."""

from __future__ import annotations

from typing import Sequence

_LISTED_ITEMS = 10


def brief_list(items: Sequence) -> str:
    """``items`` as a list literal, cut after the first ten with the total named.

    Keeps messages about large inputs short: a list of 288 labels reads
    ``['a', ..., 'j', ...] (288 in all)``.
    """
    if len(items) <= _LISTED_ITEMS:
        return repr(list(items))
    head = ", ".join(repr(x) for x in items[:_LISTED_ITEMS])
    return f"[{head}, ...] ({len(items)} in all)"


class SegtrackError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidPolygonError(SegtrackError):
    """Polygon violates a structural requirement (too few vertices, non-finite coordinates)."""


class CorruptRleError(SegtrackError):
    """Run-length counts are inconsistent with the stated mask dimensions."""


class CorruptStringError(SegtrackError):
    """Compressed counts string is malformed (bad character or truncated group)."""


class EmptySegmentationError(SegtrackError):
    """Operation requires at least one foreground pixel."""


class ParseError(SegtrackError):
    """Input document is not well-formed."""


class SchemaError(SegtrackError):
    """Input document is well-formed but violates the expected schema."""


class ConflictError(SegtrackError):
    """Two inputs claim the same identity (e.g. duplicate file names)."""


class IntegrityError(SegtrackError):
    """Dataset references are dangling or ids collide."""


class OutOfRangeError(SegtrackError):
    """A numeric field lies outside its documented range."""


class OversizedPolygonError(OutOfRangeError):
    """A polygon would fill more pixels than an IoU may; ``operand`` is its argument position (0 or 1) in that IoU."""

    def __init__(self, message: str, operand: int | None = None) -> None:
        super().__init__(message)
        self.operand = operand


class SizeMismatchError(SegtrackError):
    """Two masks compared in one IoU have frames of different sizes."""


class UndefinedMetricError(SegtrackError):
    """Metric denominator is empty; the value is undefined."""


class ConfigError(SegtrackError):
    """Generator configuration is infeasible."""


class MissingDataError(SegtrackError):
    """Required per-frame data (e.g. masks) is absent."""
