"""Pixel-exact mask and polygon kernels.

Binary masks are dense boolean numpy arrays of shape ``(height, width)``
indexed ``[row, col]``; coordinates elsewhere are continuous image
coordinates with the origin at the top-left corner, x rightward, y
downward, so pixel ``(row, col)`` has its center at ``(col + 0.5,
row + 0.5)``.  Run-length encodings flatten the mask in column-major
order and always start with the length of the leading zero run
(possibly 0).  A segmentation is a :class:`Polygon`, a
:class:`MultiPolygon` or an :class:`RleMask`; each derives its ``area``,
``bbox`` and ``centroid`` on first use and keeps them, ring values from
the vertices.  Only the IoU kernel, :func:`segmentation_ious`, branches
on the form.

Rasterization uses the even-odd rule tested at pixel centers with a
half-open boundary convention: a center lying exactly on a left/top
edge is inside, on a right/bottom edge outside, so adjacent polygons
never claim the same pixel twice.  In spans: the center line ``y = r + 0.5``
of row ``r`` crosses edge ``(x1, y1)-(x2, y2)`` iff ``min(y1, y2) <= y <
max(y1, y2)``, at ``x = x1 + (y - y1) * (x2 - x1) / (y2 - y1)`` in
float64; the row's crossings, sorted, pair up, and pair ``(xa, xb)``
fills the columns ``c`` with ``xa <= c + 0.5 < xb``.  One kernel,
:func:`_spans_many`, cuts rings into these per-row fill spans, each in
an integer window of frame pixel indices (the frame, for :func:`rasterize`).

:func:`segmentation_ious` computes many IoUs in chunked numpy passes.
It reads every mask's one-runs, area and extent from one run table of
their counts, :func:`_run_table` (which also gives :func:`_derive_many`
a batch's centroids), and takes each polygon's fill spans once, in the
mask's frame or in its own fill box against a polygon, with no vertex
shifted.  Per pair it counts, in exact ints,
the pixels both operands cover where their extents meet; a pair whose
extents do not meet reads 0.0 without a fill.  So polygon pixels outside
a mask's frame do not count, and every value equals a comparison of the
two full-frame renderings exactly.  Masks of two sizes, and a polygon
that could fill more than ``_MAX_FILL`` pixels, are refused before
anything is filled; :func:`rings_overlap` refuses such a group of rings
in its frame the same way.  :func:`segmentation_iou` is its one-pair
call; :func:`rle_iou` is the scalar mask/mask sweep.

All functions are pure; nothing here holds global state, so every
operation is safe to call from concurrent threads.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

import numpy as np

from .errors import (
    CorruptRleError,
    CorruptStringError,
    EmptySegmentationError,
    InvalidPolygonError,
    OversizedPolygonError,
    SegtrackError,
    SizeMismatchError,
)


class Point(NamedTuple):
    x: float
    y: float


class BoundingBox(NamedTuple):
    """Axis-aligned box as top-left corner plus extent."""

    x: float
    y: float
    w: float
    h: float


@dataclass(frozen=True)
class Polygon:
    """Closed vertex ring; the edge from the last vertex back to the first is implicit.

    Self-intersecting rings are accepted (see :func:`has_self_intersection`
    to detect them); rings with fewer than 3 vertices or non-finite
    coordinates are rejected at construction.  :attr:`area`, :attr:`bbox`
    and :attr:`centroid` are derived from the vertices on first use and
    kept with the ring; they take no part in ``==`` or ``hash``.  Finite
    coordinates too large for them give ``inf`` or ``nan`` without a numpy
    warning, and callers check the result.
    """

    points: tuple[Point, ...]

    def __post_init__(self) -> None:
        pts = tuple(Point(float(x), float(y)) for x, y in self.points)
        if len(pts) < 3:
            raise InvalidPolygonError(f"polygon needs >=3 vertices, got {len(pts)}")
        if not all(math.isfinite(p.x) and math.isfinite(p.y) for p in pts):
            raise InvalidPolygonError("polygon has non-finite coordinates")
        object.__setattr__(self, "points", pts)

    @classmethod
    def from_xy(cls, coords: Iterable[Sequence[float]]) -> "Polygon":
        return cls(tuple(Point(float(c[0]), float(c[1])) for c in coords))

    def as_array(self) -> np.ndarray:
        """Vertices as an ``(n, 2)`` float64 array."""
        flat = itertools.chain.from_iterable(self.points)
        return np.fromiter(flat, dtype=np.float64, count=2 * len(self.points)).reshape(-1, 2)

    def translated(self, dx: float, dy: float) -> "Polygon":
        return Polygon(tuple(Point(p.x + dx, p.y + dy) for p in self.points))

    @property
    def rings(self) -> tuple["Polygon"]:
        """The ring itself, so one ring reads like a :class:`MultiPolygon`."""
        return (self,)

    @cached_property
    @np.errstate(over="ignore", invalid="ignore")
    def area(self) -> float:
        """Unsigned area of the ring (shoelace formula); orientation-independent."""
        pts = self.as_array()
        x, y = pts[:, 0], pts[:, 1]
        x2, y2 = np.roll(x, -1), np.roll(y, -1)
        return abs(float(np.sum(x * y2 - x2 * y))) / 2.0

    @cached_property
    def _bounds(self) -> tuple[float, float, float, float]:
        """``(x0, y0, x1, y1)``: the least and greatest vertex coordinates, exact."""
        pts = self.as_array()
        (x0, y0), (x1, y1) = pts.min(axis=0).tolist(), pts.max(axis=0).tolist()
        return x0, y0, x1, y1

    @cached_property
    def bbox(self) -> BoundingBox:
        """Tight axis-aligned bounds of the vertices."""
        x0, y0, x1, y1 = self._bounds
        return BoundingBox(x0, y0, x1 - x0, y1 - y0)

    @cached_property
    @np.errstate(over="ignore", invalid="ignore")
    def centroid(self) -> Point:
        """Area-weighted centroid of the ring; the vertex mean when the ring has no area."""
        pts = self.as_array()
        x, y = pts[:, 0], pts[:, 1]
        x2, y2 = np.roll(x, -1), np.roll(y, -1)
        cross = x * y2 - x2 * y
        a = float(np.sum(cross)) / 2.0
        if abs(a) < 1e-12:
            return Point(float(np.mean(x)), float(np.mean(y)))
        cx = float(np.sum((x + x2) * cross)) / (6.0 * a)
        cy = float(np.sum((y + y2) * cross)) / (6.0 * a)
        return Point(cx, cy)


@dataclass(frozen=True)
class MultiPolygon:
    """Rings forming one instance, such as an occluded animal drawn in parts; iterates as its rings.

    The centroid weights each ring's centroid by its area; with no area it is the vertex mean.
    """

    rings: tuple[Polygon, ...]

    def __post_init__(self) -> None:
        rings = tuple(self.rings)
        if not rings:
            raise EmptySegmentationError("empty segmentation")
        object.__setattr__(self, "rings", rings)

    def __iter__(self) -> Iterator[Polygon]:
        return iter(self.rings)

    def __len__(self) -> int:
        return len(self.rings)

    @cached_property
    def area(self) -> float:
        return sum(r.area for r in self.rings)

    @cached_property
    def bbox(self) -> BoundingBox:
        boxes = [r.bbox for r in self.rings]
        x0 = min(b.x for b in boxes)
        y0 = min(b.y for b in boxes)
        x1 = max(b.x + b.w for b in boxes)
        y1 = max(b.y + b.h for b in boxes)
        return BoundingBox(x0, y0, x1 - x0, y1 - y0)

    @cached_property
    def centroid(self) -> Point:
        total = self.area
        if total == 0.0:
            pts = np.concatenate([r.as_array() for r in self.rings])
            return Point(float(pts[:, 0].mean()), float(pts[:, 1].mean()))
        return Point(
            sum(r.area * r.centroid.x for r in self.rings) / total,
            sum(r.area * r.centroid.y for r in self.rings) / total,
        )


def _run_length(count) -> int:
    """``count`` as an int; a fractional or non-finite value is corrupt."""
    if not float(count).is_integer():
        raise CorruptRleError(f"run length {count} is not an integer")
    return int(count)


@dataclass(frozen=True)
class RleMask:
    """Column-major run-length mask: runs alternate zero/one, starting with zero.

    ``counts`` is the whole state.  :attr:`runs`, :attr:`area`,
    :attr:`centroid` and :attr:`bbox` are derived from it on first use
    and kept with the mask, so each is computed once per mask; they take
    no part in ``==`` or ``hash``.  This is the exact-int path of one
    mask: a batch that builds many masks (``synth.disc_masks``) derives
    their area, centroid and bbox in one numpy pass, :func:`_derive_many`.
    Zero-length runs are legal.  Counts are stored as ints; a float or
    numpy count must have an integral value.
    """

    height: int
    width: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        counts = self.counts
        if type(counts) is not tuple:
            counts = tuple(counts)
        if self.height <= 0 or self.width <= 0:
            raise CorruptRleError(f"bad dimensions {self.height}x{self.width}")
        if counts and min(counts) < 0:
            raise CorruptRleError("negative run length")
        total = sum(counts)
        if type(total) is not int:  # a float or numpy count among them
            counts = tuple(map(_run_length, counts))
            total = sum(counts)
        if counts is not self.counts:
            object.__setattr__(self, "counts", counts)
        if total != self.height * self.width:
            raise CorruptRleError(
                f"counts sum {total} != {self.height}x{self.width}"
                f" = {self.height * self.width}"
            )

    @cached_property
    def runs(self) -> tuple[list[int], list[int]]:
        """``(starts, ends)`` of the non-empty one-runs as half-open flat column-major intervals.

        Both lists ascend; callers must not modify them.
        """
        bounds = list(itertools.accumulate(self.counts))
        starts = bounds[:-1:2]  # one-run 2k+1 starts where zero-run 2k ends
        ends = bounds[1::2]
        if 0 in self.counts[1::2]:
            kept = [(s, e) for s, e in zip(starts, ends) if s < e]
            starts, ends = [s for s, _ in kept], [e for _, e in kept]
        return starts, ends

    @cached_property
    def area(self) -> int:
        """Number of set pixels."""
        return sum(self.counts[1::2])

    @cached_property
    def _centroid_and_bbox(self) -> tuple[Point | None, BoundingBox]:
        """Both come from one step per run, in exact ints; the centroid is None on an empty mask."""
        starts, ends = self.runs
        if not starts:
            return None, BoundingBox(0.0, 0.0, 0.0, 0.0)
        h = self.height
        col_sum = 0
        row_sum = 0
        top, bottom = h, 0  # row span [top, bottom)
        for s, e in zip(starts, ends):
            r = s % h
            if r + e - s <= h:  # rows r..r+n-1 of column s // h
                n = e - s
                col_sum += s // h * n
                row_sum += (2 * r + n - 1) * n // 2
                if r < top:
                    top = r
                if r + n > bottom:
                    bottom = r + n
            else:  # rows r..h-1 of column c, k full columns, rows 0..tail-1 of column c + k + 1
                c, last = s // h, (e - 1) // h
                k, tail = last - c - 1, e - last * h
                col_sum += c * (h - r) + h * (2 * c + k + 1) * k // 2 + last * tail
                row_sum += (r + h - 1) * (h - r) // 2 + k * h * (h - 1) // 2 + tail * (tail - 1) // 2
                top, bottom = 0, h
        area = self.area
        c_min, c_max = starts[0] // h, (ends[-1] - 1) // h
        return (
            Point(col_sum / area + 0.5, row_sum / area + 0.5),
            BoundingBox(float(c_min), float(top), float(c_max - c_min + 1), float(bottom - top)),
        )

    @property
    def centroid(self) -> Point:
        """Mean of the set pixels' centers; raises on an empty mask."""
        point = self._centroid_and_bbox[0]
        if point is None:
            raise EmptySegmentationError("cannot take the centroid of an empty mask")
        return point

    @property
    def bbox(self) -> BoundingBox:
        """Tight pixel bounds of the set pixels; all zeros for an empty mask."""
        return self._centroid_and_bbox[1]


def _derive_many(masks: Sequence[RleMask]) -> None:
    """Keep with each mask the ``area`` and ``_centroid_and_bbox`` it would derive, from one :func:`_run_table` pass.

    The centroid comes from int64 sums of the pixels' column and row
    indices, run by run in the terms of :attr:`RleMask._centroid_and_bbox`
    (rows ``r..`` of column ``c``, ``k`` full columns, rows ``..tail - 1``
    of column ``last``).  A mask whose sums may not fit derives its own
    on first use.  The values go where ``cached_property`` keeps them.
    """
    masks = [r for r in masks if r.height * r.width * max(r.height, r.width) < 2**63]  # so every sum, and term, fits int64
    start, end, height, offset, count, area, top, bottom, left, right = _run_table(masks)
    h = height[np.repeat(np.arange(len(masks)), count)]
    (c, row), last = np.divmod(start, h), (end - 1) // h
    m = np.minimum(end - start, h - row)  # rows of the run in column c
    k = np.maximum(last - c - 1, 0)
    tail = np.where(last > c, end - last * h, 0)
    col_sum = c * m + h * (k * c + k * (k + 1) // 2) + last * tail
    row_sum = m * row + m * (m - 1) // 2 + k * (h * (h - 1) // 2) + tail * (tail - 1) // 2
    running = np.zeros((2, len(c) + 1), dtype=np.int64)  # may wrap across masks, but each mask's difference is exact
    np.cumsum((col_sum, row_sum), axis=1, out=running[:, 1:])
    sums = running[:, offset + count] - running[:, offset]
    boxes = np.stack((left, top, right + 1 - left, bottom + 1 - top), axis=1).astype(np.float64)  # all zeros when empty
    for r, a, cs, rs, box in zip(masks, area.tolist(), *sums.tolist(), map(BoundingBox._make, boxes.tolist())):
        r.__dict__.update(area=a, _centroid_and_bbox=(Point(cs / a + 0.5, rs / a + 0.5) if a else None, box))


Segmentation = Union[Polygon, MultiPolygon, RleMask]


# ---------------------------------------------------------------------------
# polygon kernels


def polygon_area(p: Polygon) -> float:
    """Unsigned area of the ring (shoelace formula): :attr:`Polygon.area`."""
    return p.area


def polygon_perimeter(p: Polygon) -> float:
    pts = p.as_array()
    d = np.roll(pts, -1, axis=0) - pts
    return float(np.sum(np.hypot(d[:, 0], d[:, 1])))


def polygon_contains(p: Polygon, point: Sequence[float]) -> bool:
    """Even-odd containment test, consistent with :func:`rasterize` boundaries."""
    px, py = float(point[0]), float(point[1])
    pts = p.points
    n = len(pts)
    crossings = 0
    for i in range(n):
        x1, y1 = pts[i]
        x2, y2 = pts[(i + 1) % n]
        if (y1 <= py < y2) or (y2 <= py < y1):
            xc = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
            if xc <= px:
                crossings += 1
    return crossings % 2 == 1


def has_self_intersection(p: Polygon) -> bool:
    """True when two non-adjacent edges of the ring cross or overlap."""
    pts = [np.asarray(v, dtype=float) for v in p.points]
    n = len(pts)
    edges = [(pts[i], pts[(i + 1) % n]) for i in range(n)]

    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        return 0 if v == 0 else (1 if v > 0 else -1)

    def on_segment(a, b, c):
        return (
            min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= c[1] <= max(a[1], b[1])
        )

    for i in range(n):
        a1, a2 = edges[i]
        if np.array_equal(a1, a2):
            continue
        for j in range(i + 1, n):
            # skip adjacent edges (shared endpoint) and the wrap pair
            if j == i + 1 or (i == 0 and j == n - 1):
                continue
            b1, b2 = edges[j]
            if np.array_equal(b1, b2):
                continue
            o1, o2 = orient(a1, a2, b1), orient(a1, a2, b2)
            o3, o4 = orient(b1, b2, a1), orient(b1, b2, a2)
            if o1 != o2 and o3 != o4:
                return True
            if o1 == 0 and on_segment(a1, a2, b1):
                return True
            if o2 == 0 and on_segment(a1, a2, b2):
                return True
            if o3 == 0 and on_segment(b1, b2, a1):
                return True
            if o4 == 0 and on_segment(b1, b2, a2):
                return True
    return False


# ---------------------------------------------------------------------------
# rasterization


def _fill_spans(rows: np.ndarray, c0: np.ndarray, c1: np.ndarray, height: int, width: int) -> np.ndarray:
    """``(height, width)`` grid with the pixels of every span set; overlapping spans unite."""
    grid = np.zeros((height, width), dtype=bool)
    for r, a, b in zip(rows.tolist(), c0.tolist(), c1.tolist()):
        grid[r, a:b + 1] = True
    return grid


def rings_overlap(rings: Iterable[Polygon], height: int, width: int) -> bool:
    """True when two of ``rings`` claim the same pixel of a ``(height, width)`` frame; read from their spans.

    As an IoU with a mask of that frame does, it refuses rings that could
    fill past the cap there (:func:`_check_fill`) before any span is cut.
    """
    group = MultiPolygon(rings)
    _check_fill(group, (0, 0, height, width), None, "an overlap check")
    rows, c0, c1, _ = _frame_spans(group, height, width)
    order = np.lexsort((c0, rows))
    rows, c0, c1 = rows[order], c0[order], c1[order]
    return bool(np.any((rows[1:] == rows[:-1]) & (c0[1:] <= c1[:-1])))


def rasterize(p: Polygon, height: int, width: int) -> np.ndarray:
    """Fill a ring onto a ``(height, width)`` grid.

    A pixel is set iff its center falls inside the ring under the
    even-odd rule, with centers exactly on left/top edges counted in
    and right/bottom edges counted out.  Geometry outside the grid is
    clipped.
    """
    if height <= 0 or width <= 0:
        raise ValueError(f"grid dimensions must be positive, got {height}x{width}")
    return _fill_spans(*_spans_many([p], [(0, 0, height, width)])[:3], height, width)


# ---------------------------------------------------------------------------
# run-length codecs


def mask_to_rle(mask: np.ndarray) -> RleMask:
    """Exact column-major run-length coding of a binary mask."""
    m = np.asarray(mask, dtype=bool)
    if m.ndim != 2 or m.size == 0:
        raise ValueError(f"expected a non-empty 2-d mask, got shape {m.shape}")
    h, w = m.shape
    flat = m.reshape(-1, order="F")
    change = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    bounds = np.concatenate(([0], change, [flat.size]))
    counts = np.diff(bounds).tolist()
    if flat[0]:
        counts = [0] + counts
    return RleMask(h, w, tuple(counts))


def rle_to_mask(r: RleMask) -> np.ndarray:
    """Dense ``(height, width)`` decoding of the whole frame."""
    return _rle_columns(r, 0, r.width)


def rle_encode_string(r: RleMask) -> str:
    """Compressed counts string.

    Each count at index ``i >= 2`` is stored as the delta against the
    count two positions back; earlier counts are stored raw.  Every
    signed value is emitted little-endian in 6-bit groups: bits 0-4
    carry payload, bit 5 (value 32) flags a following group, and an
    extra group is emitted whenever the top payload bit of the final
    group would leave the sign ambiguous.  Groups map to ASCII by
    adding 48.
    """
    counts = r.counts
    out: list[str] = []
    for i, c in enumerate(counts):
        x = c - counts[i - 2] if i >= 2 else c
        while True:
            group = x & 0x1F
            x >>= 5
            more = (x != -1) if (group & 0x10) else (x != 0)
            if more:
                group |= 0x20
            out.append(chr(group + 48))
            if not more:
                break
    return "".join(out)


_DECODE_CHUNK = 512  # strings (or masks) per numpy pass: a whole file at once holds far more memory, and runs slower
_ENCODE_BOUND = 2**63  # a mask of fewer pixels holds every count, and every delta, in int64
_GROUP_LIMITS = np.array([1 << (5 * k - 1) for k in range(1, 13)], dtype=np.int64)  # y >= 0 takes k groups iff y < 2**(5k-1)


def rle_encode_many(masks: Sequence[RleMask]) -> list[str]:
    """``[rle_encode_string(r) for r in masks]``, in numpy passes over chunks of ``_DECODE_CHUNK`` masks.

    The mirror of :func:`rle_decode_many`, after the COCO API's
    ``rleToString``: one pass takes every delta of a chunk, counts each
    value's 6-bit groups, writes all groups into one ASCII buffer and
    slices it per mask.  A mask's counts are nonnegative and sum to its
    pixel count, so each count and delta of a mask under ``_ENCODE_BOUND``
    pixels fits in int64; a larger mask goes through
    :func:`rle_encode_string` itself.
    """
    out: list[str] = []
    for lo in range(0, len(masks), _DECODE_CHUNK):
        out += _encode_chunk(masks[lo : lo + _DECODE_CHUNK])
    return out


def _encode_chunk(masks: Sequence[RleMask]) -> list[str]:
    fits = [r.height * r.width < _ENCODE_BOUND for r in masks]
    batch = [r.counts for r, ok in zip(masks, fits) if ok]
    lengths = np.fromiter(map(len, batch), np.intp, len(batch))  # each >= 1, since counts sum to h * w >= 1
    counts = np.fromiter(itertools.chain.from_iterable(batch), np.int64, int(lengths.sum()))
    x = counts.copy()
    x[2:] -= counts[:-2]  # the delta against the count two back; both are >= 0, so it cannot wrap
    head = np.arange(len(x)) - np.repeat(np.cumsum(lengths) - lengths, lengths) < 2
    x[head] = counts[head]  # each mask's first two counts are stored raw
    # x ^ (x >> 63) is x, or ~x = -x - 1 for a negative x: the size that sets how many signed groups x takes
    groups = np.searchsorted(_GROUP_LIMITS, x ^ (x >> 63), side="right") + 1
    ends = np.cumsum(groups)
    k = np.arange(int(groups.sum())) - np.repeat(ends - groups, groups)  # group index in its value
    chars = (np.repeat(x, groups) >> (5 * k)) & 0x1F
    chars |= (k < np.repeat(groups - 1, groups)) << 5  # the continuation flag on all but a value's last group
    text = (chars + 48).astype(np.uint8).tobytes().decode("ascii")
    bounds = [0] + ends[np.cumsum(lengths) - 1].tolist()
    strings = (text[a:b] for a, b in zip(bounds, bounds[1:]))
    return [next(strings) if ok else rle_encode_string(r) for r, ok in zip(masks, fits)]


def rle_decode_string(s: str, height: int, width: int) -> RleMask:
    """Inverse of :func:`rle_encode_string`; validates the counts against the size.

    This is the one-string case of :func:`rle_decode_many`, and the
    decoder whose errors that function reproduces.
    """
    counts: list[int] = []
    i, n = 0, len(s)
    while i < n:
        x = 0
        k = 0
        while True:
            if i >= n:
                raise CorruptStringError(
                    f"truncated continuation after {k} group(s) at offset {i}"
                )
            c = ord(s[i]) - 48
            if not 0 <= c <= 63:
                raise CorruptStringError(f"character {s[i]!r} at offset {i} outside [48, 111]")
            x |= (c & 0x1F) << (5 * k)
            i += 1
            k += 1
            if not c & 0x20:
                if c & 0x10:
                    x -= 1 << (5 * k)
                break
        if len(counts) >= 2:
            x += counts[-2]
        if x < 0:
            raise CorruptStringError(f"decoded negative run length {x}")
        counts.append(x)
    return RleMask(height, width, tuple(counts))


_SUM_BOUND = 2.0**62  # a string whose values' magnitudes may sum past this could overflow int64


def rle_decode_many(strings: Sequence[str], sizes: Sequence[tuple[int, int]]) -> Iterator[RleMask]:
    """Yield ``rle_decode_string(s, h, w)`` for each string and ``(h, w)`` size, in order.

    The strings are decoded in numpy passes over chunks of
    ``_DECODE_CHUNK``, after the COCO API's ``rleFrString``.  A string
    the pass cannot prove sound (a character outside [48, 111], a
    truncated continuation, a value that could overflow, a negative
    count) goes through :func:`rle_decode_string` itself, so it raises
    exactly what that raises, when the iteration reaches it.  Every mask
    passes the :class:`RleMask` checks.
    """
    for lo in range(0, len(strings), _DECODE_CHUNK):
        yield from _decode_chunk(strings[lo : lo + _DECODE_CHUNK], sizes[lo : lo + _DECODE_CHUNK])


def _decode_chunk(strings: Sequence[str], sizes: Sequence[tuple[int, int]]) -> Iterator[RleMask]:
    n = len(strings)
    lengths = np.fromiter(map(len, strings), np.intp, n)
    # one code point per character, so a non-ASCII one cannot pass for a valid group
    c = np.frombuffer("".join(strings).encode("utf-32-le", "surrogatepass"), np.uint32).astype(np.int64) - 48
    string_of = np.repeat(np.arange(n), lengths)  # per character
    unsound = np.zeros(n, dtype=bool)
    unsound[string_of[(c < 0) | (c > 63)]] = True
    more = (c & 0x20) != 0  # a group follows in the same value
    last = (np.cumsum(lengths) - 1)[lengths > 0]
    unsound[string_of[last]] |= more[last]  # truncated continuation
    more[last] = False  # so no value runs into the next string
    ends = np.flatnonzero(~more)  # last group of each value
    starts = np.concatenate(([0], ends + 1))[:-1]
    groups = ends - starts + 1
    k = np.arange(len(c)) - np.repeat(starts, groups)  # group index in its value
    x = np.add.reduceat((c & 0x1F) << (5 * k), starts)
    groups = np.minimum(groups, 13)  # a longer value is over the bound anyway
    x -= ((c[ends] & 0x10) != 0) << (5 * groups)  # the sign rule
    # |x| <= 2**(5 * groups), and a string under the bound keeps every running sum exact in int64;
    # past 12 groups a value may wrap, but its string is over the bound
    value_of = string_of[ends]  # string of each value
    unsound |= np.bincount(value_of, np.exp2(5.0 * groups), n) >= _SUM_BOUND
    # undo the delta x[i] += x[i - 2]: a running sum per parity class, restarted at each string
    # (the sums run on across strings and may wrap, but each string's differences are exact)
    n_values = np.bincount(value_of, minlength=n)
    first = np.cumsum(n_values) - n_values
    head = first[value_of]  # first value of each value's string
    even = (np.arange(len(x)) - head) & 1 == 0
    x_even = np.where(even, x, 0)
    x_odd = x - x_even
    run_even, run_odd = np.cumsum(x_even), np.cumsum(x_odd)
    counts = np.where(even, run_even - (run_even - x_even)[head], run_odd - (run_odd - x_odd)[head])
    unsound[value_of[counts < 0]] = True
    flat = counts.tolist()
    bounds = first.tolist() + [len(flat)]
    for s, (h, w), bad, lo, hi in zip(strings, sizes, unsound.tolist(), bounds, bounds[1:]):
        yield rle_decode_string(s, h, w) if bad else RleMask(h, w, tuple(flat[lo:hi]))


def rle_iou(a: RleMask, b: RleMask, crowd: bool = False) -> float:
    """Mask intersection over union.

    With ``crowd`` set, the denominator is the area of ``a`` alone
    (COCO crowd semantics).  Two empty masks have IoU 0.
    """
    if (a.height, a.width) != (b.height, b.width):
        raise ValueError(
            f"dimension mismatch: {a.height}x{a.width} vs {b.height}x{b.width}"
        )
    area_a = a.area
    area_b = b.area
    if area_a == 0 or area_b == 0:
        return 0.0
    sa, ea = a.runs
    sb, eb = b.runs
    na, nb = len(sa), len(sb)
    i = j = 0
    inter = 0
    while i < na and j < nb:  # two-pointer sweep over sorted disjoint intervals
        lo = sa[i] if sa[i] > sb[j] else sb[j]
        hi = ea[i] if ea[i] < eb[j] else eb[j]
        if hi > lo:
            inter += hi - lo
        if ea[i] < eb[j]:
            i += 1
        else:
            j += 1
    denom = area_a if crowd else area_a + area_b - inter
    return inter / denom


def bbox_iou(a: BoundingBox, b: BoundingBox) -> float:
    """Rectangle IoU; 0 whenever either box is degenerate."""
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    if aw <= 0 or ah <= 0 or bw <= 0 or bh <= 0:
        return 0.0
    ix = max(0.0, min(ax + aw, bx + bw) - max(ax, bx))
    iy = max(0.0, min(ay + ah, by + bh) - max(ay, by))
    inter = ix * iy
    if inter == 0.0:
        return 0.0
    return inter / (aw * ah + bw * bh - inter)


# ---------------------------------------------------------------------------
# contour extraction

# Unit directions on the pixel-corner grid: right, down, left, up.
_DIRS = ((1, 0), (0, 1), (-1, 0), (0, -1))
_LEFT_OF = {0: 3, 3: 2, 2: 1, 1: 0}
_RIGHT_OF = {v: k for k, v in _LEFT_OF.items()}


def _components4(m: np.ndarray) -> list[list[tuple[int, int]]]:
    """4-connected foreground components in row-major discovery order."""
    h, w = m.shape
    seen = np.zeros((h, w), dtype=bool)
    comps: list[list[tuple[int, int]]] = []
    for r0 in range(h):
        for c0 in range(w):
            if not m[r0, c0] or seen[r0, c0]:
                continue
            stack = [(r0, c0)]
            seen[r0, c0] = True
            comp = []
            while stack:
                r, c = stack.pop()
                comp.append((r, c))
                for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < h and 0 <= cc < w and m[rr, cc] and not seen[rr, cc]:
                        seen[rr, cc] = True
                        stack.append((rr, cc))
            comps.append(comp)
    return comps


def _boundary_loops(comp: list[tuple[int, int]], m: np.ndarray) -> list[list[tuple[int, int]]]:
    """Closed corner-coordinate loops around a single component.

    Boundary sides are walked with the interior kept on a consistent
    side; at vertices where the boundary pinches (background touching
    itself diagonally) the walk prefers the right turn, hugging the
    interior corner, so the face boundary stays one loop instead of
    splitting at the pinch.
    """
    h, w = m.shape
    cells = set(comp)
    # vertex -> {direction: end vertex}
    outgoing: dict[tuple[int, int], dict[int, tuple[int, int]]] = {}

    def add(start: tuple[int, int], d: int) -> None:
        dx, dy = _DIRS[d]
        outgoing.setdefault(start, {})[d] = (start[0] + dx, start[1] + dy)

    for r, c in comp:
        if (r - 1, c) not in cells:
            add((c, r), 0)          # top side, rightward
        if (r, c + 1) not in cells:
            add((c + 1, r), 1)      # right side, downward
        if (r + 1, c) not in cells:
            add((c + 1, r + 1), 2)  # bottom side, leftward
        if (r, c - 1) not in cells:
            add((c, r + 1), 3)      # left side, upward

    loops: list[list[tuple[int, int]]] = []
    while outgoing:
        start = min(outgoing)
        d = min(outgoing[start])
        ring = [start]
        cur = start
        while True:
            nxt = outgoing[cur].pop(d)
            if not outgoing[cur]:
                del outgoing[cur]
            if nxt == start and nxt not in outgoing:
                break
            ring.append(nxt)
            options = outgoing[nxt]
            for cand in (_RIGHT_OF[d], d, _LEFT_OF[d]):
                if cand in options:
                    d = cand
                    break
            cur = nxt
        loops.append(ring)
    return loops


def _merge_collinear(ring: list[tuple[int, int]]) -> list[tuple[int, int]]:
    n = len(ring)
    out = []
    for i in range(n):
        px, py = ring[(i - 1) % n]
        cx, cy = ring[i]
        nx, ny = ring[(i + 1) % n]
        if (cx - px) * (ny - cy) - (cy - py) * (nx - cx) != 0:
            out.append(ring[i])
    return out if len(out) >= 3 else ring


def _ring_area2(ring: list[tuple[int, int]]) -> int:
    n = len(ring)
    s = 0
    for i in range(n):
        x1, y1 = ring[i]
        x2, y2 = ring[(i + 1) % n]
        s += x1 * y2 - x2 * y1
    return abs(s)


def mask_to_polygons(mask: np.ndarray) -> list[Polygon]:
    """Outer ring of every 4-connected foreground component.

    Rings run along pixel boundaries (integer corner coordinates);
    interior holes are dropped.  Rasterizing a returned ring reproduces
    the outer fill of its component exactly.
    """
    m = np.asarray(mask, dtype=bool)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d mask, got shape {m.shape}")
    polys: list[Polygon] = []
    for comp in _components4(m):
        loops = _boundary_loops(comp, m)
        outer = max(loops, key=_ring_area2)
        ring = _merge_collinear(outer)
        polys.append(Polygon.from_xy(ring))
    return polys


# ---------------------------------------------------------------------------
# simplification


def _segment_distances(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance from each point to segment a-b (endpoint distance off the ends)."""
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return np.hypot(points[:, 0] - a[0], points[:, 1] - a[1])
    t = np.clip(((points - a) @ ab) / denom, 0.0, 1.0)
    proj = a + t[:, None] * ab
    d = points - proj
    return np.hypot(d[:, 0], d[:, 1])


def _rdp_keep(pts: np.ndarray, idx: list[int], epsilon: float) -> set[int]:
    """Indices (into the original ring) kept by Douglas-Peucker over one chain."""
    keep = {idx[0], idx[-1]}
    stack = [(0, len(idx) - 1)]
    while stack:
        a, b = stack.pop()
        if b - a < 2:
            continue
        interior = pts[idx[a + 1:b]]
        d = _segment_distances(interior, pts[idx[a]], pts[idx[b]])
        k = int(np.argmax(d))
        if d[k] > epsilon:
            split = a + 1 + k
            keep.add(idx[split])
            stack.append((a, split))
            stack.append((split, b))
    return keep


def simplify_polygon(p: Polygon, epsilon: float) -> Polygon:
    """Douglas-Peucker on the closed ring.

    The ring is split at its two mutually farthest vertices and each
    half simplified independently; removed vertices deviate from the
    surviving chain by at most ``epsilon``.  At least 3 vertices are
    always kept, topping up with the most deviant removed vertex when
    simplification collapses the ring.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    pts = p.as_array()
    n = len(pts)
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
    flat = int(np.argmax(d2))
    if d2.flat[flat] == 0.0:  # all vertices coincide
        return Polygon(p.points[:3])
    i, j = divmod(flat, n)
    if i > j:
        i, j = j, i

    chain1 = list(range(i, j + 1))
    chain2 = list(range(j, n)) + list(range(0, i + 1))
    kept = _rdp_keep(pts, chain1, epsilon) | _rdp_keep(pts, chain2, epsilon)
    if len(kept) < 3:
        removed = [k for k in range(n) if k not in kept]
        d = _segment_distances(pts[removed], pts[i], pts[j])
        kept.add(removed[int(np.argmax(d))])
    order = sorted(kept)
    return Polygon(tuple(p.points[k] for k in order))


# ---------------------------------------------------------------------------
# segmentation IoU


def _rle_columns(r: RleMask, c_lo: int, c_hi: int) -> np.ndarray:
    """Dense ``(height, c_hi - c_lo)`` decoding of columns ``c_lo..c_hi - 1`` alone."""
    lo, hi = c_lo * r.height, c_hi * r.height
    starts, ends = r.runs
    i0 = bisect.bisect_right(ends, lo)  # one-runs ending at or before lo miss the window
    i1 = bisect.bisect_left(starts, hi)
    bounds = np.empty(2 * (i1 - i0) + 2, dtype=np.int64)  # lo, each one-run's start and end, hi
    bounds[0], bounds[-1] = lo, hi
    bounds[1:-1:2], bounds[2:-1:2] = starts[i0:i1], ends[i0:i1]
    values = np.zeros(len(bounds) - 1, dtype=bool)
    values[1::2] = True
    flat = np.repeat(values, np.diff(np.clip(bounds, lo, hi)))
    return flat.reshape((r.height, c_hi - c_lo), order="F")


_MAX_FILL = 2**30  # pixels one polygon may fill in an IoU: a GiB for each grid of that size
_MAX_INDEX = 2**62  # and all of them this close to the origin, so no pixel index overflows int64


def _fill_box(p: Polygon | MultiPolygon, frame: tuple[int, int, int, int] | None = None) -> tuple[int, int, int, int]:
    """``(top, left, bottom, right)``: the pixels ``p`` could fill, its vertex bounds with a pixel to spare on each side.

    With a ``frame`` ``(top, left, height, width)``, the box is cut to it, so it may be empty.
    """
    bounds = [r._bounds for r in p.rings]
    top, left = math.ceil(min(b[1] for b in bounds) - 0.5) - 1, math.ceil(min(b[0] for b in bounds) - 0.5) - 1
    bottom, right = math.ceil(max(b[3] for b in bounds) - 0.5) + 1, math.ceil(max(b[2] for b in bounds) - 0.5) + 1
    if frame is not None:
        top, left = max(top, frame[0]), max(left, frame[1])
        bottom, right = min(bottom, frame[0] + frame[2]), min(right, frame[1] + frame[3])
    return top, left, bottom, right


def _check_fill(p: Polygon | MultiPolygon, frame: tuple[int, int, int, int] | None, operand: int | None, use: str = "an IoU") -> None:
    """Refuse ``p`` in an IoU when it could fill more than ``_MAX_FILL`` pixels inside ``frame``, or anywhere.

    The pixels it could fill are its :func:`_fill_box` in the frame,
    counted in exact ints.  Too many of them, or one past ``_MAX_INDEX``,
    raises :class:`OversizedPolygonError` naming the IoU argument
    ``operand``; ``use`` names what refuses in the message.
    """
    top, left, bottom, right = _fill_box(p, frame)
    if top < bottom and left < right and (
        (bottom - top) * (right - left) > _MAX_FILL or max(-top, -left, bottom, right) > _MAX_INDEX
    ):
        raise OversizedPolygonError(
            f"polygon with bbox {list(p.bbox)} is too large for {use}, which fills at most"
            f" {_MAX_FILL:,} pixels of a polygon, each within {_MAX_INDEX:,} of the origin",
            operand,
        )


def _refusal(a: Segmentation, b: Segmentation) -> SegtrackError | None:
    """What an IoU of ``a`` and ``b`` refuses before anything is filled: two mask sizes, or a polygon past the fill cap."""
    a_mask, b_mask = isinstance(a, RleMask), isinstance(b, RleMask)
    if a_mask and b_mask:
        if (a.height, a.width) == (b.height, b.width):
            return None
        return SizeMismatchError(f"dimension mismatch: {a.height}x{a.width} vs {b.height}x{b.width}")
    try:
        if a_mask or b_mask:  # a smaller frame holds every pixel a polygon may fill
            poly, mask, operand = (b, a, 1) if a_mask else (a, b, 0)
            if mask.height * mask.width > _MAX_FILL:
                _check_fill(poly, (0, 0, mask.height, mask.width), operand)
        else:  # so both fill boxes are finite, and every window index fits int64
            _check_fill(a, None, 0)
            _check_fill(b, None, 1)
    except OversizedPolygonError as e:
        return e
    return None


_IOU_CHUNK = 1024  # pairs (or rings) per numpy pass
_IOU_BUDGET = 2**14  # values one pass may hold in an array: runs, spans, a polygon's pixels against a mask, crossings
_MASK_BOUND = 2**52  # a mask of fewer pixels keeps every key of a pass of _IOU_CHUNK windows in int64, and every area exact in float64


def _chunks(costs: Sequence[int], budget: int) -> Iterator[tuple[int, int]]:
    """Consecutive ``(lo, hi)`` ranges of at most ``_IOU_CHUNK`` items whose costs sum to at most ``budget``.

    An item that costs more than ``budget`` takes a range of its own.
    """
    total = [0, *itertools.accumulate(costs)]  # exact ints: total[k] is the cost of items 0..k-1
    lo, n = 0, len(costs)
    while lo < n:
        hi = max(lo + 1, min(bisect.bisect_right(total, total[lo] + budget) - 1, lo + _IOU_CHUNK))
        yield lo, hi
        lo = hi


def _ranges(starts: np.ndarray, lengths: np.ndarray, steps: np.ndarray | int = 1) -> np.ndarray:
    """``starts[k] + steps[k] * j`` for every ``0 <= j < lengths[k]``, range after range."""
    ends = np.cumsum(lengths)
    out = np.arange(int(ends[-1]) if len(ends) else 0)
    out -= np.repeat(ends - lengths, lengths)  # j
    out *= np.repeat(steps, lengths) if np.ndim(steps) else steps
    out += np.repeat(starts, lengths)
    return out


_ROW_LIMIT = 3.0 * 2**61  # past every window row, and exact in both float64 and int64


def _spans_many(rings: Sequence[Polygon], windows: Sequence[tuple[int, int, int, int]]) -> tuple[np.ndarray, ...]:
    """``(rows, c0, c1, ring)``: the fill spans of each ring ``k`` in its window ``windows[k]``, concatenated in ring order.

    A window ``(top, left, height, width)`` holds frame pixel indices
    within 2^62 of the origin; no vertex moves with it.  Span ``j`` of
    ring ``ring[j]`` covers columns ``c0[j]..c1[j]`` of row ``rows[j]``;
    one ring's spans in a row never overlap, two rings' may.  The pixel
    rule is the module's: row center ``y`` crosses edge ``(x1, y1)-(x2, y2)``
    iff ``min(y1, y2) <= y < max(y1, y2)``, at ``x1 + (y - y1) * (x2 - x1)
    / (y2 - y1)`` in that order of float64 operations; sorted crossings
    pair up, and ``(xa, xb)`` fills columns ``ceil(xa - 0.5)`` to
    ``ceil(xb - 0.5) - 1``.  Row centers count on from the first row
    ``r0`` a ring can cross as ``np.arange(r0, ..., dtype=np.float64) +
    0.5`` does, so ``y = r + 0.5`` exactly within 2^53 of the origin.
    Rings with the same vertex count, and close row counts, share numpy
    passes over chunks of at most ``_IOU_BUDGET`` crossing slots; a ring
    with more rows than that takes blocks of them over several passes.
    """
    by_size: dict[int, list[int]] = {}
    for k, ring in enumerate(rings):
        by_size.setdefault(len(ring.points), []).append(k)
    windows = np.array(windows, dtype=np.int64).reshape(-1, 4)
    parts = [[np.empty(0, dtype=np.int64)] for _ in range(4)]  # rows, c0, c1 and ring, chunk by chunk
    for n_edges, members in by_size.items():
        flat = itertools.chain.from_iterable(itertools.chain.from_iterable(rings[k].points for k in members))
        pts = np.fromiter(flat, np.float64, 2 * n_edges * len(members)).reshape(len(members), n_edges, 2)
        win = windows[members]
        # the rows a ring can cross, max(top, ceil(y_min - 0.5)) .. min(bottom, ceil(y_max - 0.5) - 1), in exact ints
        y_min, y_max = (np.clip(np.ceil(y - 0.5), -_ROW_LIMIT, _ROW_LIMIT).astype(np.int64) for y in (pts[..., 1].min(axis=1), pts[..., 1].max(axis=1)))
        first = np.maximum(win[:, 0], y_min)
        count = np.maximum(np.minimum(win[:, 0] + win[:, 2] - 1, y_max - 1) + 1 - first, 0)
        by_count = np.argsort(count, kind="stable")  # so a pass pads few rows
        members, pts, win, first, count = np.asarray(members)[by_count], pts[by_count], win[by_count], first[by_count], count[by_count]
        # a ring of more rows than a pass holds is cut into blocks: block b holds rows_in[b] rows of ring of[b] from its row skip[b]
        block = max(1, _IOU_BUDGET // n_edges)
        blocks = -(-count // block)
        of = np.repeat(np.arange(len(members)), blocks)
        skip = _ranges(np.zeros(len(members), dtype=np.int64), blocks, block)
        rows_in = np.minimum(count[of] - skip, block)
        for lo, hi in _chunks((rows_in * n_edges).tolist(), _IOU_BUDGET):
            g = of[lo:hi]
            x1, y1 = pts[g, None, :, 0], pts[g, None, :, 1]  # (block, 1, edge)
            nxt = np.roll(pts[g], -1, axis=1)
            x2, y2 = nxt[:, None, :, 0], nxt[:, None, :, 1]
            n, r0 = rows_in[lo:hi], first[g]
            j = np.arange(int(n.max()))  # row j of each block, past its count on some
            i = skip[lo:hi, None] + j  # the row's index in its ring
            # np.arange(r0, r1 + 1, dtype=float64) holds r0 + i * delta, with delta = float(r0 + 1) - float(r0)
            start = r0.astype(np.float64)[:, None]
            ys = (start + i * ((r0 + 1).astype(np.float64)[:, None] - start) + 0.5)[..., None]  # (block, row, 1)
            sel = (np.minimum(y1, y2) <= ys) & (ys < np.maximum(y1, y2)) & (j < n[:, None])[..., None]
            with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
                xs = ys - y1  # x1 + (ys - y1) * (x2 - x1) / (y2 - y1), one operation at a time
                xs *= x2 - x1
                xs /= y2 - y1
                xs += x1
            xs[~sel] = np.nan
            xs = xs.reshape(-1, n_edges)
            xs.sort(axis=1)  # NaN sorts last, leaving crossing pairs up front
            # a row crosses the closed ring an even number of times, so with
            # an odd edge count the last slot is always NaN and pairs with nothing
            n_pairs = n_edges // 2
            xa = xs[:, 0:2 * n_pairs:2]
            xb = xs[:, 1:2 * n_pairs:2]
            valid = ~np.isnan(xb)
            at, row = np.divmod(np.nonzero(valid)[0], len(j))
            ring, row = g[at], row + skip[lo:hi][at]
            left, right = win[ring, 1], win[ring, 1] + win[ring, 3]
            # clamp to just outside the window, so infinite crossings of near-degenerate edges cast cleanly
            xa = np.minimum(np.maximum(xa[valid], left - 1.0), right + 1.0)
            xb = np.minimum(np.maximum(xb[valid], left - 1.0), right + 1.0)
            c0 = np.maximum(np.ceil(xa - 0.5).astype(np.int64), left)
            c1 = np.minimum(np.ceil(xb - 0.5).astype(np.int64) - 1, right - 1)
            ok = c0 <= c1
            for column, values in zip(parts, ((first[ring] + row)[ok], c0[ok], c1[ok], members[ring[ok]])):
                column.append(values)
    order = np.argsort(np.concatenate(parts[3]), kind="stable")
    out = []
    for column in parts:  # one column at a time, its chunks freed as it is copied
        out.append(np.concatenate(column)[order])
        column.clear()
    return tuple(out)


def _frame_spans(p: Polygon | MultiPolygon, height: int, width: int) -> tuple[np.ndarray, ...]:
    """:func:`_spans_many` of ``p``'s rings in the part of a ``(height, width)`` frame it could fill, checked by the caller."""
    top, left, bottom, right = _fill_box(p, (0, 0, height, width))
    if top >= bottom or left >= right:
        return (np.empty(0, dtype=np.int64),) * 4
    return _spans_many(p.rings, [(top, left, bottom - top, right - left)] * len(p.rings))


def _grid_runs(grid: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, c0, c1)``: the runs of set cells in each row of ``grid``, row by row, ``c1`` inclusive."""
    edges = np.diff(np.pad(grid, ((0, 0), (1, 1))).astype(np.int8), axis=1)  # +1 at a run's first cell, -1 past its last
    rows, cols = np.nonzero(edges)
    return rows[0::2], cols[0::2], cols[1::2] - 1


def _extents(owner: np.ndarray, n: int, top, bottom, left, right, length) -> tuple[np.ndarray, ...]:
    """``(offset, count, area, top, bottom, left, right)`` of ``n`` operands, from items grouped by ascending ``owner``.

    Item ``j`` belongs to operand ``owner[j]`` and covers ``length[j]``
    pixels in rows ``top[j]..bottom[j]`` and columns ``left[j]..right[j]``.
    Operand ``k`` has ``count[k]`` items from ``offset[k]``, ``area[k]``
    pixels and the inclusive extent of its items, empty (``0..-1``) when
    it has none.
    """
    count = np.bincount(owner, minlength=n)
    out = [np.full(n, fill, dtype=np.int64) for fill in (0, 0, -1, 0, -1)]  # area, top, bottom, left, right
    offset = np.cumsum(count) - count
    has = np.flatnonzero(count)
    if has.size:
        for values, ufunc, items in zip(out, (np.add, np.minimum, np.maximum, np.minimum, np.maximum), (length, top, bottom, left, right)):
            values[has] = ufunc.reduceat(items, offset[has])
    return (offset, count, *out)


def _run_table(masks: Sequence[RleMask]) -> tuple[np.ndarray, ...]:
    """``(start, end, height, offset, count, area, top, bottom, left, right)``: every mask's one-runs and extent, in one numpy pass.

    Mask ``k``'s non-empty one-runs are ``start[j]..end[j]`` for the
    ``count[k]`` values of ``j`` from ``offset[k]``, as :attr:`RleMask.runs`
    holds them; its pixel count and extent are :func:`_extents`'s, where a
    run past the end of its column takes every row.  Each mask must have
    fewer than 2^63 pixels, so its counts and their sums fit in int64.
    """
    # one-run k of a mask ends at the sum of its first 2k + 2 counts
    # (the sums run on across masks and may wrap, but each mask's differences are exact)
    counts_of = [r.counts for r in masks]
    lengths = np.fromiter(map(len, counts_of), np.int64, len(masks))
    counts = np.fromiter(itertools.chain.from_iterable(counts_of), np.int64, int(lengths.sum()))
    sums = np.cumsum(counts)
    head = np.cumsum(lengths) - lengths  # of each mask's counts
    n_runs = lengths // 2
    end_at = _ranges(head + 1, n_runs, 2)
    before = np.repeat(sums[head] - counts[head], n_runs) if len(head) else head
    del counts
    start, end = sums[end_at - 1], sums[end_at]
    del sums, end_at
    start -= before
    end -= before
    del before
    keep = start < end  # zero-length runs take no part
    start, end = start[keep], end[keep]
    owner = np.repeat(np.arange(len(masks)), n_runs)[keep]
    height = np.fromiter((r.height for r in masks), np.int64, len(masks))
    h = height[owner]
    (col, row), length = np.divmod(start, h), end - start
    one_column = row + length <= h
    top, bottom = np.where(one_column, row, 0), np.where(one_column, row + length, h) - 1
    return (start, end, height, *_extents(owner, len(masks), top, bottom, col, (end - 1) // h, length))


class _Operands:
    """Every distinct operand of a batch of IoUs once: masks as one-runs, polygons as fill spans in a window.

    Operand ``k < n_masks`` is a mask, the rest are fills.  Each has the
    inclusive pixel extent ``top..bottom``, ``left..right`` (empty when
    ``bottom < top``), its pixel count ``area`` and ``count`` runs or
    spans from ``offset``.  The masks are read from :func:`_run_table`.
    The runs of a mask and the spans of a fill are disjoint and ascend,
    row by row for spans.
    """

    def __init__(self, masks: Sequence[RleMask], fills: Sequence[tuple[Segmentation, tuple[int, int, int, int]]]):
        self.n_masks = len(masks)
        self.run_start, self.run_end, self.height, *mask_extents = _run_table(masks)

        # fill spans, each ring in its operand's window; the rings of one instance may overlap,
        # so theirs are taken again from the union of their pixels
        rings = [ring for seg, _ in fills for ring in seg.rings]
        owner = np.repeat(np.arange(len(fills)), [len(seg.rings) for seg, _ in fills])
        rows, c0, c1, ring = _spans_many(rings, [window for seg, window in fills for _ in seg.rings])
        fill = owner[ring]
        groups = [f for f, (seg, _) in enumerate(fills) if len(seg.rings) > 1]
        if groups:
            parts, in_group = [(rows, c0, c1, fill)], np.isin(fill, groups)
            parts[0] = tuple(v[~in_group] for v in parts[0])
            for f in groups:
                at = fill == f
                if at.any():
                    t, l = int(rows[at].min()), int(c0[at].min())
                    grid = _fill_spans(rows[at] - t, c0[at] - l, c1[at] - l, int(rows[at].max()) + 1 - t, int(c1[at].max()) + 1 - l)
                    r, a, b = _grid_runs(grid)
                    parts.append((r + t, a + l, b + l, np.full(len(r), f)))
            rows, c0, c1, fill = (np.concatenate(v) for v in zip(*parts))
            order = np.argsort(fill, kind="stable")
            rows, c0, c1, fill = rows[order], c0[order], c1[order], fill[order]
        self.span_row, self.span_c0, self.span_c1 = rows, c0, c1
        fill_extents = _extents(fill, len(fills), rows, rows, c0, c1, c1 - c0 + 1)
        self.offset, self.count, self.area, self.top, self.bottom, self.left, self.right = map(np.concatenate, zip(mask_extents, fill_extents))

    def intervals(self, ops: np.ndarray, top, left, height, width, base, by_column) -> tuple[np.ndarray, ...]:
        """``(start, end, pair)``: operand ``ops[p]``'s pixels in window ``p`` as half-open key intervals, by pair.

        Window ``p`` holds keys ``base[p]`` onwards, column-major where
        ``by_column[p]`` and row-major elsewhere.  A mask's runs, cut to
        the window, give one interval per column; a fill's spans give one
        interval each row-major, and one per pixel column-major.  Each
        operand's intervals are disjoint and ascend, except the per-pixel ones.
        """
        parts = [(np.empty(0, dtype=np.int64),) * 3]
        p = np.flatnonzero(ops >= self.n_masks)
        if p.size:
            parts += self._span_intervals(p, ops, top, left, height, width, base, by_column)
        p = np.flatnonzero(ops < self.n_masks)
        if p.size:
            parts.append(self._run_intervals(p, ops, top, left, height, width, base))
        start, end, pair = (np.concatenate(v) for v in zip(*parts))
        order = np.argsort(pair, kind="stable")
        return start[order], end[order], pair[order]

    def _span_intervals(self, p, ops, top, left, height, width, base, by_column) -> list[tuple[np.ndarray, ...]]:
        """Spans cut to the windows: one interval each row-major, one per pixel column-major."""
        at = _ranges(self.offset[ops[p]], self.count[ops[p]])
        p = np.repeat(p, self.count[ops[p]])
        r = self.span_row[at]
        c0 = np.maximum(self.span_c0[at], left[p])
        c1 = np.minimum(self.span_c1[at], left[p] + width[p] - 1)
        ok = (top[p] <= r) & (r < top[p] + height[p]) & (c0 <= c1)
        p, r, c0, c1 = p[ok], r[ok], c0[ok], c1[ok]
        n, col = c1 - c0 + 1, by_column[p]
        row_start = (base[p] + (r - top[p]) * width[p] + c0 - left[p])[~col]
        pixel = _ranges((base[p] + (c0 - left[p]) * height[p] + r - top[p])[col], n[col], height[p][col])
        return [(row_start, row_start + n[~col], p[~col]), (pixel, pixel + 1, np.repeat(p[col], n[col]))]

    def _run_intervals(self, p, ops, top, left, height, width, base) -> tuple[np.ndarray, ...]:
        """Runs cut to the windows' columns, split by column and cut to their rows: one interval per column."""
        at = _ranges(self.offset[ops[p]], self.count[ops[p]])
        p = np.repeat(p, self.count[ops[p]])
        h = self.height[ops[p]]
        s = np.maximum(self.run_start[at], left[p] * h)
        e = np.minimum(self.run_end[at], (left[p] + width[p]) * h)
        ok = s < e
        p, h, s, e = p[ok], h[ok], s[ok], e[ok]
        pieces = (e - 1) // h - s // h + 1
        col = _ranges(s // h, pieces)
        p, h, s, e = (np.repeat(v, pieces) for v in (p, h, s, e))
        r0 = np.maximum(s - col * h, top[p])
        r1 = np.minimum(e - col * h, np.minimum(h, top[p] + height[p]))
        ok = r0 < r1
        p, col, r0, r1 = p[ok], col[ok], r0[ok], r1[ok]
        start = base[p] + (col - left[p]) * height[p] + r0 - top[p]
        return start, start + (r1 - r0), p


def _spans_mask(rows: np.ndarray, c0: np.ndarray, c1: np.ndarray, height: int, width: int) -> RleMask:
    """The ``(height, width)`` mask whose set pixels are those of the spans, its counts in exact ints."""
    bounds = [0]
    if rows.size:
        top, left = int(rows.min()), int(c0.min())
        grid = _fill_spans(rows - top, c0 - left, c1 - left, int(rows.max()) + 1 - top, int(c1.max()) + 1 - left)
        col, r0, r1 = _grid_runs(grid.T)  # column by column, rows ascending
        for c, a, b in zip(col.tolist(), r0.tolist(), r1.tolist()):
            bounds += [(left + c) * height + top + a, (left + c) * height + top + b + 1]
    bounds.append(height * width)
    return RleMask(height, width, tuple(b - a for a, b in zip(bounds, bounds[1:])))


def _scalar_iou(a: Segmentation, b: Segmentation) -> float:
    """The IoU of a pair with a mask of ``_MASK_BOUND`` pixels or more, through :func:`rle_iou`."""
    if isinstance(a, RleMask) and isinstance(b, RleMask):
        return rle_iou(a, b)
    poly, mask = (b, a) if isinstance(a, RleMask) else (a, b)
    rows, c0, c1, _ = _frame_spans(poly, mask.height, mask.width)  # a frame over _MAX_FILL, so _refusal checked it
    return rle_iou(_spans_mask(rows, c0, c1, mask.height, mask.width), mask)


def segmentation_ious(
    segs: Sequence[Segmentation],
    pairs: np.ndarray | Sequence[tuple[int, int]],
    refused: dict[int, SegtrackError] | None = None,
) -> np.ndarray:
    """The exact IoU of each pair ``(i, j)`` of ``segs[i]`` and ``segs[j]``, in a few numpy passes.

    Value ``k`` is :func:`segmentation_iou` of pair ``k``.  Each mask's
    one-runs are taken once, from its counts, and each polygon's fill
    spans once per window: the frame of the masks it meets, or its own
    fill box against polygons.  Per pair, the part of one operand's pixel
    intervals that the other's cover is counted inside the window where
    their extents meet, in chunks of at most ``_IOU_CHUNK`` pairs and
    ``_IOU_BUDGET`` runs, spans and pixels.  A pair whose extents do not
    meet reads 0.0 without a fill.  Each value is ``inter / union`` of
    ints under 2^53, so it is the one Python's ``int / int`` gives.  A
    pair with a mask of ``_MASK_BOUND`` pixels or more goes through
    :func:`rle_iou`.

    What an IoU refuses (masks of two sizes, :class:`SizeMismatchError`;
    a polygon past the fill cap, :class:`OversizedPolygonError`) is found
    before anything is filled: the first refused pair in order raises.
    With a ``refused`` dict, each refused pair's error is stored under its
    index instead and the pair reads NaN, so a caller that reads pairs in
    its own order can raise the refusal it meets first.
    """
    pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    n = len(pairs)
    out = np.full(n, np.nan)
    sa, sb = pairs[:, 0], pairs[:, 1]
    frames: dict[tuple[int, int], int] = {}  # (height, width) of the masks -> frame id; a polygon's is -1
    frame = np.fromiter(
        (frames.setdefault((s.height, s.width), len(frames)) if isinstance(s, RleMask) else -1 for s in segs), np.intp, len(segs)
    )
    is_mask = frame >= 0
    sizes = list(frames)
    large = np.array([h * w > _MAX_FILL for h, w in sizes] + [False])[frame]  # frame -1 reads the last
    huge = np.array([h * w >= _MASK_BOUND for h, w in sizes] + [False])[frame]

    # refusals first, in pair order; only these pairs can be refused
    polys = ~is_mask[sa] & ~is_mask[sb]
    oversized = np.zeros(len(segs), dtype=bool)
    in_poly_pair = np.zeros(len(segs), dtype=bool)
    in_poly_pair[sa[polys]] = in_poly_pair[sb[polys]] = True
    for s in np.flatnonzero(in_poly_pair).tolist():
        try:
            _check_fill(segs[s], None, 0)
        except OversizedPolygonError:
            oversized[s] = True
    suspect = (is_mask[sa] & is_mask[sb] & (frame[sa] != frame[sb])) | ((is_mask[sa] != is_mask[sb]) & (large[sa] | large[sb]))
    suspect |= polys & (oversized[sa] | oversized[sb])
    live = np.ones(n, dtype=bool)
    for i in np.flatnonzero(suspect).tolist():
        error = _refusal(segs[sa[i]], segs[sb[i]])
        if error is not None:
            if refused is None:
                raise error
            refused[i] = error
            live[i] = False

    for i in np.flatnonzero(live & (huge[sa] | huge[sb])).tolist():
        out[i] = _scalar_iou(segs[sa[i]], segs[sb[i]])
    live &= ~(huge[sa] | huge[sb])

    # operands: each mask once, each polygon once per window, the frame id of
    # the mask it meets or -1 for its own fill box; a pair's mask, if any, comes second
    used = np.zeros(len(segs), dtype=bool)
    used[sa[live]] = used[sb[live]] = True
    mask_slots = np.flatnonzero(used & is_mask)
    op_of = np.full(len(segs), -1)
    op_of[mask_slots] = np.arange(len(mask_slots))
    swap = is_mask[sa] & ~is_mask[sb]
    first, second = np.where(swap, sb, sa), np.where(swap, sa, sb)
    op = np.stack((op_of[first], op_of[second]), axis=1)
    window_of = np.where(is_mask[second], frame[second], -1)
    code = first * (len(frames) + 1) + window_of + 1
    fill_a, fill_b = live & ~is_mask[first], live & ~is_mask[second]
    codes, fill = np.unique(np.concatenate((code[fill_a], second[fill_b] * (len(frames) + 1))), return_inverse=True)
    op[fill_a, 0] = len(mask_slots) + fill[:int(fill_a.sum())]
    op[fill_b, 1] = len(mask_slots) + fill[int(fill_a.sum()):]
    fills = []
    for s, key in zip(*np.divmod(codes, len(frames) + 1)):
        if key:
            fills.append((segs[s], (0, 0, *sizes[key - 1])))
        else:
            top, left, bottom, right = _fill_box(segs[s])
            fills.append((segs[s], (top, left, bottom - top, right - left)))
    table = _Operands([segs[s] for s in mask_slots.tolist()], fills)

    # one window per pair where the operands' extents meet; a pair's intersection is
    # the part of its first operand's intervals that its second operand's cover
    idx = np.flatnonzero(live)
    a, b = op[idx, 0], op[idx, 1]
    top = np.maximum(table.top[a], table.top[b])
    left = np.maximum(table.left[a], table.left[b])
    height = np.minimum(table.bottom[a], table.bottom[b]) + 1 - top
    width = np.minimum(table.right[a], table.right[b]) + 1 - left
    inter = np.zeros(len(idx), dtype=np.int64)
    meet = np.flatnonzero((height > 0) & (width > 0))
    by_pixel = (a >= table.n_masks) & (b < table.n_masks)  # a fill against a mask, one interval per pixel
    costs = (table.count[a] + table.count[b] + np.where(by_pixel, np.minimum(table.area[a], height * width), 0))[meet]
    for lo, hi in _chunks(costs.tolist(), _IOU_BUDGET):
        p = meet[lo:hi]
        t, l, h, w, by_column = top[p], left[p], height[p], width[p], b[p] < table.n_masks
        size = h * w
        base = np.cumsum(size) - size
        start, end, pair = table.intervals(a[p], t, l, h, w, base, by_column)
        cover_start, cover_end, _ = table.intervals(b[p], t, l, h, w, base, by_column)
        covered = np.concatenate(([0], np.cumsum(cover_end - cover_start)))
        cover_start = np.append(cover_start, np.iinfo(np.int64).max)

        def cover(x: np.ndarray) -> np.ndarray:  # pixels of the covering intervals before key x
            j = np.searchsorted(cover_end, x, side="right")
            return covered[j] + np.maximum(x - cover_start[j], 0)

        summed = np.concatenate(([0], np.cumsum(cover(end) - cover(start))))
        inter[p] = np.diff(summed[np.searchsorted(pair, np.arange(hi - lo + 1))])
    union = table.area[a] + table.area[b] - inter
    out[idx] = np.divide(inter, union, out=np.zeros(len(idx)), where=union > 0)
    return out


def segmentation_iou(a: Segmentation, b: Segmentation) -> float:
    """Pixel-exact IoU between any two segmentation forms: the one-pair call of :func:`segmentation_ious`.

    The comparison window of a pair with a mask is the mask's frame, so
    polygon pixels outside it do not count; two polygons compare over the
    whole plane.  The result equals the IoU of the two :func:`rasterize`
    renderings exactly.  A polygon that could fill more than ``_MAX_FILL``
    pixels (in the mask's frame, or anywhere against a polygon) raises
    :class:`OversizedPolygonError`, and two masks of different sizes
    :class:`SizeMismatchError`, before anything is filled.
    """
    return float(segmentation_ious([a, b], [(0, 1)])[0])
