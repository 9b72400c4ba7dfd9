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
the vertices.  Only :func:`segmentation_iou` branches on the form.

Rasterization uses the even-odd rule tested at pixel centers with a
half-open boundary convention: a center lying exactly on a left/top
edge is inside, on a right/bottom edge outside, so adjacent polygons
never claim the same pixel twice.  A ring is first cut into per-row
fill spans in frame coordinates, clipped to the frame; the spans are
then filled into a grid.

The IoU of a polygon and a mask is computed inside the mask's frame
over the polygon's own clipped window: its spans are filled into a grid
just large enough for them, by shifting integer row and column indices
only, and only the window's columns of the mask are decoded.  Polygon
pixels outside the frame do not count.  The result equals a comparison
of the two full-frame renderings exactly.

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
    kept with the ring; they take no part in ``==`` or ``hash``.
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
    def area(self) -> float:
        """Unsigned area of the ring (shoelace formula); orientation-independent."""
        pts = self.as_array()
        x, y = pts[:, 0], pts[:, 1]
        x2, y2 = np.roll(x, -1), np.roll(y, -1)
        return abs(float(np.sum(x * y2 - x2 * y))) / 2.0

    @cached_property
    def bbox(self) -> BoundingBox:
        """Tight axis-aligned bounds of the vertices."""
        pts = self.as_array()
        x0, y0 = pts.min(axis=0)
        x1, y1 = pts.max(axis=0)
        return BoundingBox(float(x0), float(y0), float(x1 - x0), float(y1 - y0))

    @cached_property
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
    no part in ``==`` or ``hash``.  Zero-length runs are legal.  Counts
    are stored as ints; a float or numpy count must have an integral
    value.
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
        """Both come from one pass over the runs; the centroid is None on an empty mask."""
        starts, ends = self.runs
        if not starts:
            return None, BoundingBox(0.0, 0.0, 0.0, 0.0)
        h = self.height
        col_sum = 0
        row_sum = 0
        top, bottom = h, 0  # row span [top, bottom)
        for s, e in zip(starts, ends):
            while s < e:  # rows r..r+n-1 of column s // h, one column of the run at a time
                r = s % h
                n = e - s if r + e - s <= h else h - r
                col_sum += s // h * n
                row_sum += (2 * r + n - 1) * n // 2
                if r < top:
                    top = r
                if r + n > bottom:
                    bottom = r + n
                s += n
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


def _ring_spans(p: Polygon, height: int, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fill spans ``(rows, c0, c1)`` of a ring on a ``(height, width)`` grid.

    Span ``k`` covers columns ``c0[k]..c1[k]`` (inclusive) of row
    ``rows[k]``; every span is non-empty and clipped to the grid, and
    the spans of one row never overlap.  The pixel rule is that of
    :func:`rasterize`.
    """
    pts = p.as_array()
    nxt = np.concatenate((pts[1:], pts[:1]))
    x1, y1, x2, y2 = pts[:, 0], pts[:, 1], nxt[:, 0], nxt[:, 1]
    lo = np.minimum(y1, y2)
    hi = np.maximum(y1, y2)
    r0 = max(0, math.ceil(float(lo.min()) - 0.5))
    r1 = min(height - 1, math.ceil(float(hi.max()) - 0.5) - 1)
    if r0 > r1:
        none = np.empty(0, dtype=np.int64)
        return none, none, none

    ys = (np.arange(r0, r1 + 1, dtype=np.float64) + 0.5)[:, None]
    sel = (lo <= ys) & (ys < hi)  # never true on a horizontal edge
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        xs = np.where(sel, x1 + (ys - y1) * (x2 - x1) / (y2 - y1), np.nan)
    xs.sort(axis=1)  # NaN sorts last, leaving crossing pairs up front
    # each row crosses the closed ring an even number of times, so with
    # an odd edge count the last slot is always NaN and pairs with nothing
    n_pairs = xs.shape[1] // 2
    xa = xs[:, 0:2 * n_pairs:2]
    xb = xs[:, 1:2 * n_pairs:2]
    valid = ~np.isnan(xb)
    rows = np.nonzero(valid)[0] + r0
    # clamp to just outside the grid so infinite crossings from
    # near-degenerate edges cast cleanly; pairing is unaffected
    xa = np.minimum(np.maximum(xa[valid], -1.0), width + 1.0)
    xb = np.minimum(np.maximum(xb[valid], -1.0), width + 1.0)
    c0 = np.maximum(np.ceil(xa - 0.5).astype(np.int64), 0)
    c1 = np.minimum(np.ceil(xb - 0.5).astype(np.int64) - 1, width - 1)
    ok = c0 <= c1
    return rows[ok], c0[ok], c1[ok]


def _fill_spans(rows: np.ndarray, c0: np.ndarray, c1: np.ndarray, height: int, width: int) -> np.ndarray:
    """``(height, width)`` grid with the pixels of every span set; overlapping spans unite."""
    grid = np.zeros((height, width), dtype=bool)
    for r, a, b in zip(rows.tolist(), c0.tolist(), c1.tolist()):
        grid[r, a:b + 1] = True
    return grid


def rasterize(p: Polygon, height: int, width: int) -> np.ndarray:
    """Fill a ring onto a ``(height, width)`` grid.

    A pixel is set iff its center falls inside the ring under the
    even-odd rule, with centers exactly on left/top edges counted in
    and right/bottom edges counted out.  Geometry outside the grid is
    clipped.
    """
    if height <= 0 or width <= 0:
        raise ValueError(f"grid dimensions must be positive, got {height}x{width}")
    return _fill_spans(*_ring_spans(p, height, width), height, width)


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
    counts = np.asarray(r.counts, dtype=np.int64)
    values = np.zeros(len(counts), dtype=bool)
    values[1::2] = True
    flat = np.repeat(values, counts)
    return flat.reshape((r.height, r.width), order="F")


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


_DECODE_CHUNK = 512  # strings per numpy pass: a whole file at once holds far more memory, and runs slower
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
    flat = np.zeros(hi - lo, dtype=bool)
    for s, e in zip(starts[i0:i1], ends[i0:i1]):
        flat[max(s - lo, 0):e - lo] = True
    return flat.reshape((r.height, c_hi - c_lo), order="F")


def _union_spans(rings: Iterable[Polygon], height: int, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The spans of every ring on one grid, concatenated; :func:`_fill_spans` unites them."""
    spans = [_ring_spans(ring, height, width) for ring in rings]
    return tuple(np.concatenate(part) for part in zip(*spans))


def _polygon_rle_iou(rings: tuple[Polygon, ...], r: RleMask) -> float:
    """IoU of the union of ``rings`` and a mask, over the rings' clipped window."""
    rows, c0, c1 = _union_spans(rings, r.height, r.width)
    if not rows.size:  # no polygon pixel inside the frame
        return 0.0
    r_lo, r_hi = int(rows.min()), int(rows.max()) + 1
    c_lo, c_hi = int(c0.min()), int(c1.max()) + 1
    poly = _fill_spans(rows - r_lo, c0 - c_lo, c1 - c_lo, r_hi - r_lo, c_hi - c_lo)
    mask = _rle_columns(r, c_lo, c_hi)[r_lo:r_hi]
    inter = int(np.count_nonzero(poly & mask))
    return inter / (int(np.count_nonzero(poly)) + r.area - inter)


def segmentation_iou(a: Segmentation, b: Segmentation) -> float:
    """Pixel-exact IoU between any two segmentation forms.

    Two masks are compared run against run.  A polygon and a mask are
    compared inside the mask's frame, over the window of the polygon's
    own pixels clipped to that frame: polygon pixels outside the frame
    do not count, and only the window's columns of the mask are
    decoded.  Two polygons are rasterized onto a shared integer-offset
    window covering both shapes, which preserves the pixel-center rule
    exactly.
    """
    if isinstance(a, RleMask):
        return rle_iou(a, b) if isinstance(b, RleMask) else _polygon_rle_iou(b.rings, a)
    if isinstance(b, RleMask):
        return _polygon_rle_iou(a.rings, b)
    ba, bb = a.bbox, b.bbox
    x0 = math.floor(min(ba.x, bb.x)) - 1
    y0 = math.floor(min(ba.y, bb.y)) - 1
    x1 = math.ceil(max(ba.x + ba.w, bb.x + bb.w)) + 1
    y1 = math.ceil(max(ba.y + ba.h, bb.y + bb.h)) + 1
    h, w = max(1, y1 - y0), max(1, x1 - x0)
    ma, mb = (
        _fill_spans(*_union_spans([ring.translated(-x0, -y0) for ring in s.rings], h, w), h, w) for s in (a, b)
    )
    inter = int(np.count_nonzero(ma & mb))
    union = int(np.count_nonzero(ma | mb))
    return inter / union if union else 0.0
