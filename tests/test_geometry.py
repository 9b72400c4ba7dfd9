from __future__ import annotations

import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from segtrack import geometry
from segtrack.errors import (
    CorruptRleError,
    CorruptStringError,
    EmptySegmentationError,
    InvalidPolygonError,
    OversizedPolygonError,
    SizeMismatchError,
)
from segtrack.geometry import (
    _DECODE_CHUNK,
    BoundingBox,
    MultiPolygon,
    Point,
    Polygon,
    RleMask,
    bbox_iou,
    has_self_intersection,
    mask_to_polygons,
    mask_to_rle,
    polygon_area,
    polygon_contains,
    polygon_perimeter,
    rasterize,
    rle_decode_many,
    rle_decode_string,
    rle_encode_many,
    rle_encode_string,
    rle_iou,
    rle_to_mask,
    segmentation_iou,
    segmentation_ious,
    simplify_polygon,
)

from _oracles import dense_iou, raster_oracle, reference_centroid_and_bbox, reference_ring_spans, reference_segmentation_iou

SQUARE = Polygon.from_xy([(0, 0), (1, 0), (1, 1), (0, 1)])
TRIANGLE = Polygon.from_xy([(0, 0), (4, 0), (0, 3)])


# ---------------------------------------------------------------------------
# polygon basics


def test_polygon_rejects_short_rings():
    with pytest.raises(InvalidPolygonError):
        Polygon.from_xy([(0, 0), (1, 1)])


def test_polygon_rejects_nan():
    with pytest.raises(InvalidPolygonError):
        Polygon.from_xy([(0, 0), (1, float("nan")), (2, 2)])


def test_unit_square_area():
    assert polygon_area(SQUARE) == 1.0


def test_triangle_area():
    assert polygon_area(TRIANGLE) == 6.0


def test_collinear_ring_area_zero():
    assert polygon_area(Polygon.from_xy([(0, 0), (1, 1), (2, 2)])) == 0.0


def test_area_orientation_independent():
    reversed_sq = Polygon(tuple(reversed(SQUARE.points)))
    assert polygon_area(reversed_sq) == polygon_area(SQUARE)


def test_triangle_bbox():
    assert TRIANGLE.bbox == BoundingBox(0, 0, 4, 3)


def test_bbox_degenerate_repeated_vertex():
    p = Polygon.from_xy([(5, 7), (5, 7), (5, 7)])
    assert p.bbox == BoundingBox(5, 7, 0, 0)


def test_bbox_translation_equivariance():
    shifted = TRIANGLE.translated(10, 20)
    bx = TRIANGLE.bbox
    assert shifted.bbox == BoundingBox(bx.x + 10, bx.y + 20, bx.w, bx.h)


def test_self_intersection_flag():
    bowtie = Polygon.from_xy([(0, 0), (4, 4), (4, 0), (0, 4)])
    assert has_self_intersection(bowtie)
    assert not has_self_intersection(SQUARE)


# ---------------------------------------------------------------------------
# rasterization


def test_rasterize_square_counts():
    sq = Polygon.from_xy([(0, 0), (4, 0), (4, 4), (0, 4)])
    m = rasterize(sq, 8, 8)
    assert int(m.sum()) == 16
    assert m[:4, :4].all()
    assert not m[4:, :].any() and not m[:, 4:].any()


def test_rasterize_outside_grid_is_empty():
    far = Polygon.from_xy([(100, 100), (110, 100), (110, 110), (100, 110)])
    assert not rasterize(far, 8, 8).any()


def test_rasterize_bowtie_matches_even_odd_oracle():
    # hourglass pinched exactly at pixel center (4.5, 4.5): two triangles,
    # the pinch row itself stays empty under the even-odd rule
    pts = [(0, 0), (9, 0), (0, 9), (9, 9)]
    got = rasterize(Polygon.from_xy(pts), 9, 9)
    want = raster_oracle(pts, 9, 9)
    assert np.array_equal(got, want)
    assert not got[4, :].any()
    assert got[:4].sum() == got[5:].sum() > 0


def test_rasterize_invalid_grid():
    with pytest.raises(ValueError):
        rasterize(SQUARE, 0, 4)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(-3, 19), st.floats(-3, 19)), min_size=3, max_size=9))
def test_rasterize_matches_oracle_random_rings(coords):
    poly = Polygon.from_xy(coords)
    assert np.array_equal(rasterize(poly, 16, 16), raster_oracle(coords, 16, 16))


def test_polygon_contains_matches_rasterize():
    pts = [(0.3, 0.2), (7.8, 1.1), (6.5, 7.9), (1.2, 6.4)]
    poly = Polygon.from_xy(pts)
    m = rasterize(poly, 9, 9)
    for r in range(9):
        for c in range(9):
            assert polygon_contains(poly, (c + 0.5, r + 0.5)) == bool(m[r, c])


# ---------------------------------------------------------------------------
# RLE codec


def test_all_zero_rle():
    r = mask_to_rle(np.zeros((3, 3), dtype=bool))
    assert r.counts == (9,)


def test_single_pixel_rle_counts():
    # column-major flattening of a 2x2 mask with (row 0, col 0) set is
    # [1, 0, 0, 0], which run-length codes as a 0-length zero run, one 1, three 0s
    m = np.zeros((2, 2), dtype=bool)
    m[0, 0] = True
    assert mask_to_rle(m).counts == (0, 1, 3)


def test_rle_roundtrip_random():
    rng = np.random.default_rng(11)
    for _ in range(50):
        h, w = rng.integers(1, 40, size=2)
        m = rng.random((h, w)) < rng.random()
        assert np.array_equal(rle_to_mask(mask_to_rle(m)), m)


def test_rle_counts_validated():
    with pytest.raises(CorruptRleError):
        RleMask(3, 3, (4, 4))


@pytest.mark.parametrize("counts", [(0, 4.0), (1, np.int64(3)), [np.int64(2), 2.0]])
def test_rle_integral_counts_become_ints(counts):
    r = RleMask(2, 2, counts)
    assert [type(c) for c in r.counts] == [int, int] and type(r.area) is int
    assert r == RleMask(2, 2, tuple(int(c) for c in counts))


@pytest.mark.parametrize("counts", [(1.5, 2.5), (0, 3.5, 0.5), (0, math.inf)])
def test_rle_fractional_counts_rejected(counts):
    with pytest.raises(CorruptRleError, match="not an integer"):
        RleMask(2, 2, counts)


def test_rle_area_counts_set_pixels():
    rng = np.random.default_rng(5)
    m = rng.random((17, 23)) < 0.4
    assert mask_to_rle(m).area == int(m.sum())


# hand-derived compressed-string vectors: each value below was produced by
# stepping the 6-bit group scheme on paper (delta against the count two
# places back from index 2 on, 5 payload bits per character, bit 32 as the
# continuation flag, ASCII offset 48)
@pytest.mark.parametrize(
    "counts,h,w,expected",
    [
        ((0, 1, 3), 2, 2, "013"),   # deltas 0, 1, 3-0=3
        ((9,), 3, 3, "9"),          # single raw value
        ((4, 1, 4), 3, 3, "410"),   # delta at index 2: 4-4=0
        ((2, 5, 1), 2, 4, "25O"),   # negative delta 1-2=-1 -> all-ones group
        ((100, 28), 8, 16, "T3l0"),  # 100 spans two groups; 28 needs a sign pad group
        ((50, 1, 10), 1, 61, "b11hN"),  # negative two-group delta 10-50=-40
    ],
)
def test_rle_string_hand_vectors(counts, h, w, expected):
    r = RleMask(h, w, counts)
    assert rle_encode_string(r) == expected
    assert rle_decode_string(expected, h, w) == r


def test_rle_string_roundtrip_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        h, w = rng.integers(1, 64, size=2)
        m = rng.random((h, w)) < rng.random()
        r = mask_to_rle(m)
        assert rle_decode_string(rle_encode_string(r), h, w) == r


def test_rle_string_rejects_bad_character():
    with pytest.raises(CorruptStringError):
        rle_decode_string("0\x1f", 2, 2)


def test_rle_string_rejects_truncation():
    # 'T' has the continuation bit set, so a following group is mandatory
    with pytest.raises(CorruptStringError):
        rle_decode_string("T", 8, 16)


def test_rle_string_rejects_wrong_size():
    with pytest.raises(CorruptRleError):
        rle_decode_string("9", 2, 2)


@st.composite
def _encoded_masks(draw):
    """``(counts string, (h, w))`` of a legal mask up to 512x512; runs may be empty or whole columns."""
    h = draw(st.integers(1, 512))
    w = draw(st.integers(1, 512))
    total = h * w
    cut = st.one_of(st.integers(0, total), st.integers(0, w).map(lambda k: k * h))
    cuts = sorted(draw(st.lists(cut, max_size=40)))
    return rle_encode_string(RleMask(h, w, tuple(np.diff([0, *cuts, total]).tolist()))), (h, w)


@settings(max_examples=200, deadline=None)
@given(st.lists(_encoded_masks(), max_size=6))
@example([])
@example([("T3l0", (8, 16))])
@example([("1", (1, 1)), ("01", (1, 1)), ("001", (1, 1))])  # zero-length runs
def test_rle_decode_many_equals_one_at_a_time(items):
    strings = [s for s, _ in items]
    sizes = [size for _, size in items]
    assert list(rle_decode_many(strings, sizes)) == [rle_decode_string(s, h, w) for s, (h, w) in items]


def _each_outcome(masks):
    """The masks an iteration yields, then ``(class, message)`` of the error that ends it, if any."""
    out = []
    try:
        for mask in masks:
            out.append(mask)
    except (CorruptStringError, CorruptRleError) as e:
        out.append((type(e), str(e)))
    return out


_TWELVE_GROUPS = "o" * 11 + "?"  # 2**59 - 1 in twelve groups, the most groups the numpy pass decodes itself
_ADVERSARIAL = st.one_of(
    st.text(st.one_of(st.characters(min_codepoint=40, max_codepoint=120), st.characters(exclude_categories=())),
            max_size=12),
    st.text(st.characters(min_codepoint=48, max_codepoint=111), max_size=8).map(lambda s: s + "o"),  # unterminated
    st.integers(12, 20).map(lambda k: "o" * k + "1"),  # a value of 13 or more groups
    st.integers(1, 40).map(lambda k: _TWELVE_GROUPS * k),  # running sums up to and past 2**63
    st.integers(0, 9).map(lambda k: "0" + _TWELVE_GROUPS + "0" * k + "P" * 11 + "O"),  # a delta of -2**55
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_ADVERSARIAL, _encoded_masks().map(lambda e: e[0])), max_size=5), st.sampled_from([(1, 1), (3, 5)]))
@example(["0~"], (1, 1))
@example(["0?"], (1, 1))  # '?' is what encode("latin-1", "replace") makes of a non-ASCII character
@example(["0é"], (1, 1))
@example(["0\ud800"], (1, 1))
@example(["5", "0" * 13 + "5"], (1, 5))
def test_rle_decode_many_fails_as_one_at_a_time(strings, size):
    """Each string gives the same mask, or the same error class and message, through both decoders."""
    for s in strings:
        assert _each_outcome(rle_decode_many([s], [size])) == _each_outcome(rle_decode_string(s, *size) for s in [s])
    one_at_a_time = (rle_decode_string(s, *size) for s in strings)
    assert _each_outcome(rle_decode_many(strings, [size] * len(strings))) == _each_outcome(one_at_a_time)


def test_rle_decode_many_crosses_chunks():
    rng = np.random.default_rng(5)
    masks = [mask_to_rle(rng.random((h, w)) < 0.3) for h, w in rng.integers(1, 24, size=(2 * _DECODE_CHUNK + 7, 2))]
    strings = [rle_encode_string(r) for r in masks]
    sizes = [(r.height, r.width) for r in masks]
    assert list(rle_decode_many(strings, sizes)) == masks
    bad = _DECODE_CHUNK + 3
    strings[bad] = "0~"
    decoded = rle_decode_many(strings, sizes)
    assert [next(decoded) for _ in range(bad)] == masks[:bad]
    with pytest.raises(CorruptStringError, match=r"^character '~' at offset 1 outside \[48, 111\]$"):
        next(decoded)


# ---------------------------------------------------------------------------
# IoU


def test_rle_iou_identity():
    m = np.zeros((6, 6), dtype=bool)
    m[1:4, 2:5] = True
    r = mask_to_rle(m)
    assert rle_iou(r, r) == 1.0


def test_rle_iou_disjoint():
    a = np.zeros((6, 6), dtype=bool)
    b = np.zeros((6, 6), dtype=bool)
    a[0:2, 0:2] = True
    b[4:6, 4:6] = True
    assert rle_iou(mask_to_rle(a), mask_to_rle(b)) == 0.0


def test_rle_iou_half_overlap_blocks():
    a = np.zeros((10, 15), dtype=bool)
    b = np.zeros((10, 15), dtype=bool)
    a[:, 0:10] = True
    b[:, 5:15] = True
    v = rle_iou(mask_to_rle(a), mask_to_rle(b))
    assert v == pytest.approx(50 / 150)


def test_rle_iou_crowd_denominator():
    a = np.zeros((4, 4), dtype=bool)
    b = np.zeros((4, 4), dtype=bool)
    a[0:2, 0:2] = True   # area 4
    b[0:4, 0:2] = True   # area 8, contains a
    assert rle_iou(mask_to_rle(a), mask_to_rle(b), crowd=True) == 1.0


def test_rle_iou_empty_masks():
    e = mask_to_rle(np.zeros((3, 3), dtype=bool))
    assert rle_iou(e, e) == 0.0


def test_rle_iou_dimension_mismatch():
    a = mask_to_rle(np.zeros((3, 3), dtype=bool))
    b = mask_to_rle(np.zeros((3, 4), dtype=bool))
    with pytest.raises(ValueError):
        rle_iou(a, b)


def test_rle_iou_matches_dense_oracle():
    rng = np.random.default_rng(23)
    for _ in range(40):
        h, w = rng.integers(2, 48, size=2)
        a = rng.random((h, w)) < rng.random()
        b = rng.random((h, w)) < rng.random()
        want = dense_iou(a, b)
        got = rle_iou(mask_to_rle(a), mask_to_rle(b))
        assert got == pytest.approx(want, abs=1e-12)


def test_rle_iou_symmetry_and_bounds():
    rng = np.random.default_rng(3)
    for _ in range(25):
        a = rng.random((12, 12)) < 0.5
        b = rng.random((12, 12)) < 0.5
        ra, rb = mask_to_rle(a), mask_to_rle(b)
        v = rle_iou(ra, rb)
        assert v == rle_iou(rb, ra)
        assert 0.0 <= v <= 1.0


def test_bbox_iou_examples():
    assert bbox_iou(BoundingBox(0, 0, 10, 10), BoundingBox(0, 0, 10, 10)) == 1.0
    assert bbox_iou(BoundingBox(0, 0, 10, 10), BoundingBox(5, 0, 10, 10)) == pytest.approx(1 / 3)
    assert bbox_iou(BoundingBox(0, 0, 10, 10), BoundingBox(10, 0, 10, 10)) == 0.0
    assert bbox_iou(BoundingBox(0, 0, 0, 10), BoundingBox(0, 0, 10, 10)) == 0.0


def test_bbox_iou_symmetric():
    a = BoundingBox(1, 2, 5, 4)
    b = BoundingBox(3, 3, 6, 2)
    assert bbox_iou(a, b) == bbox_iou(b, a)


# ---------------------------------------------------------------------------
# contour extraction


def test_contours_empty_mask():
    assert mask_to_polygons(np.zeros((5, 5), dtype=bool)) == []


def test_contours_single_pixel():
    m = np.zeros((5, 5), dtype=bool)
    m[2, 3] = True
    (poly,) = mask_to_polygons(m)
    assert poly.points == (Point(3, 2), Point(4, 2), Point(4, 3), Point(3, 3))


def test_contours_two_blocks():
    m = np.zeros((10, 10), dtype=bool)
    m[0:3, 0:3] = True
    m[6:9, 5:8] = True
    polys = mask_to_polygons(m)
    assert len(polys) == 2
    assert sorted(polygon_area(p) for p in polys) == [9.0, 9.0]


def test_contours_diagonal_pixels_are_separate():
    m = np.zeros((4, 4), dtype=bool)
    m[0, 0] = True
    m[1, 1] = True
    assert len(mask_to_polygons(m)) == 2


def test_contours_hole_is_dropped():
    m = np.ones((5, 5), dtype=bool)
    m[2, 2] = False
    (poly,) = mask_to_polygons(m)
    # outer ring of the full 5x5 block; the hole does not survive
    assert polygon_area(poly) == 25.0


def test_contours_pinched_component_single_ring():
    # hook shape whose outer boundary touches itself at one corner
    m = np.zeros((4, 5), dtype=bool)
    for r, c in [(1, 1), (0, 1), (0, 2), (0, 3), (1, 3), (2, 3), (2, 2)]:
        m[r, c] = True
    polys = mask_to_polygons(m)
    assert len(polys) == 1
    refill = rasterize(polys[0], 4, 5)
    assert np.array_equal(refill, m)


def _random_hole_free_mask(rng, h, w):
    m = np.zeros((h, w), dtype=bool)
    for _ in range(rng.integers(1, 5)):
        r0, c0 = rng.integers(0, h - 1), rng.integers(0, w - 1)
        rh, cw = rng.integers(1, h // 2 + 1), rng.integers(1, w // 2 + 1)
        m[r0:r0 + rh, c0:c0 + cw] = True
    # fill background pockets that are not 4-connected to the border
    reach = np.zeros((h, w), dtype=bool)
    stack = [(r, c) for r in range(h) for c in (0, w - 1) if not m[r, c]]
    stack += [(r, c) for c in range(w) for r in (0, h - 1) if not m[r, c]]
    for r, c in stack:
        reach[r, c] = True
    while stack:
        r, c = stack.pop()
        for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if 0 <= rr < h and 0 <= cc < w and not m[rr, cc] and not reach[rr, cc]:
                reach[rr, cc] = True
                stack.append((rr, cc))
    return m | ~(m | reach)


def test_contours_refill_roundtrip_random():
    rng = np.random.default_rng(37)
    for _ in range(40):
        h, w = rng.integers(4, 28, size=2)
        m = _random_hole_free_mask(rng, int(h), int(w))
        refill = np.zeros_like(m)
        for poly in mask_to_polygons(m):
            refill |= rasterize(poly, int(h), int(w))
        assert np.array_equal(refill, m)


# ---------------------------------------------------------------------------
# simplification


def test_simplify_drops_near_collinear_vertex():
    ring = Polygon.from_xy([(0, 0), (5, 0.1), (10, 0), (10, 10), (0, 10)])
    out = simplify_polygon(ring, 0.5)
    assert [tuple(p) for p in out.points] == [(0, 0), (10, 0), (10, 10), (0, 10)]


def test_simplify_zero_epsilon_keeps_non_collinear():
    ring = Polygon.from_xy([(0, 0), (5, 0.1), (10, 0), (10, 10), (0, 10)])
    out = simplify_polygon(ring, 0.0)
    assert len(out.points) == 5


def test_simplify_zero_epsilon_drops_exactly_collinear():
    ring = Polygon.from_xy([(0, 0), (5, 0), (10, 0), (10, 10), (0, 10)])
    out = simplify_polygon(ring, 0.0)
    assert (5.0, 0.0) not in [tuple(p) for p in out.points]
    assert len(out.points) == 4


def test_simplify_huge_epsilon_keeps_three_vertices():
    sq = Polygon.from_xy([(0, 0), (10, 0), (10, 10), (0, 10)])
    out = simplify_polygon(sq, 1000.0)
    assert len(out.points) == 3


def test_simplify_negative_epsilon():
    with pytest.raises(ValueError):
        simplify_polygon(SQUARE, -1.0)


def test_simplify_output_is_subsequence_with_bounded_deviation():
    rng = np.random.default_rng(71)
    for _ in range(30):
        n = int(rng.integers(4, 24))
        coords = [(float(x), float(y)) for x, y in rng.uniform(0, 100, size=(n, 2))]
        eps = float(rng.uniform(0, 10))
        ring = Polygon.from_xy(coords)
        out = simplify_polygon(ring, eps)
        kept = [coords.index(tuple(p)) for p in out.points]
        assert kept == sorted(kept)  # subsequence of the input order
        assert len(out.points) >= 3
        # every removed vertex lies within eps of the chord replacing it
        kept_cyc = kept + [kept[0] + n]
        pts = np.array(coords)
        for a, b in zip(kept_cyc[:-1], kept_cyc[1:]):
            seg_a, seg_b = pts[a % n], pts[b % n]
            for k in range(a + 1, b):
                v = pts[k % n]
                ab = seg_b - seg_a
                denom = float(ab @ ab)
                t = 0.0 if denom == 0 else float(np.clip((v - seg_a) @ ab / denom, 0, 1))
                d = float(np.hypot(*(v - (seg_a + t * ab))))
                assert d <= eps + 1e-9


# ---------------------------------------------------------------------------
# centroids


def test_unit_square_centroid():
    assert SQUARE.centroid == pytest.approx((0.5, 0.5))


def test_single_pixel_mask_centroid():
    m = np.zeros((5, 5), dtype=bool)
    m[2, 3] = True
    assert mask_to_rle(m).centroid == Point(3.5, 2.5)


def test_two_pixel_mask_centroid():
    m = np.zeros((3, 3), dtype=bool)
    m[0, 0] = True
    m[0, 2] = True
    assert mask_to_rle(m).centroid == Point(1.5, 0.5)


def test_mask_centroid_matches_pixel_mean():
    rng = np.random.default_rng(13)
    for _ in range(20):
        m = rng.random((14, 9)) < 0.35
        if not m.any():
            continue
        rows, cols = np.nonzero(m)
        want = Point(float(cols.mean() + 0.5), float(rows.mean() + 0.5))
        got = mask_to_rle(m).centroid
        assert got == pytest.approx(want)


def test_empty_mask_centroid_raises():
    with pytest.raises(EmptySegmentationError):
        mask_to_rle(np.zeros((3, 3), dtype=bool)).centroid


@pytest.mark.parametrize(
    "counts,want",
    [
        ((5, 0, 3, 2, 6), BoundingBox(2.0, 0.0, 1.0, 2.0)),  # a zero-length one-run first
        ((5, 0, 11), BoundingBox(0.0, 0.0, 0.0, 0.0)),  # empty, written with a zero-length one-run
    ],
)
def test_zero_length_one_runs_take_no_part(counts, want):
    r = RleMask(4, 4, counts)
    assert r.bbox == want
    assert all(s < e for s, e in zip(*r.runs))


def _draw_mask(draw, h, w):
    total = h * w
    cuts = sorted(draw(st.lists(st.integers(0, total), max_size=12)))
    return RleMask(h, w, tuple(np.diff([0, *cuts, total]).tolist()))


@st.composite
def _rle_masks(draw):
    """Legal counts, zero-length runs included, on frames from 1x1 to 12x12."""
    return _draw_mask(draw, draw(st.integers(1, 12)), draw(st.integers(1, 12)))


@settings(max_examples=300, deadline=None)
@given(r=_rle_masks())
@example(r=RleMask(4, 4, (5, 0, 3, 2, 6)))
@example(r=RleMask(4, 4, (5, 0, 11)))
@example(r=RleMask(4, 3, (2, 9, 1)))  # a run through a full-height column
@example(r=RleMask(1, 7, (1, 2, 0, 3, 1)))  # 1xN: every run crosses columns
@example(r=RleMask(7, 1, (0, 3, 0, 2, 2)))  # Nx1: one column
@example(r=RleMask(3, 3, (9,)))
@example(r=RleMask(3, 3, (0, 9)))
def test_rle_derived_values_match_dense_reference(r):
    twin = RleMask(r.height, r.width, r.counts)
    before = hash(r)
    m = rle_to_mask(r)
    rows, cols = np.nonzero(m)
    area = len(rows)
    starts, ends = r.runs
    assert all(s < e for s, e in zip(starts, ends))
    assert [k for s, e in zip(starts, ends) for k in range(s, e)] == np.flatnonzero(m.reshape(-1, order="F")).tolist()
    assert r.area == area
    if area:
        assert r.centroid == Point(int(cols.sum()) / area + 0.5, int(rows.sum()) / area + 0.5)
        c0, c1, r0, r1 = int(cols.min()), int(cols.max()), int(rows.min()), int(rows.max())
        assert r.bbox == BoundingBox(float(c0), float(r0), float(c1 - c0 + 1), float(r1 - r0 + 1))
    else:
        with pytest.raises(EmptySegmentationError):
            r.centroid
        assert r.bbox == BoundingBox(0.0, 0.0, 0.0, 0.0)
    assert r == twin and hash(r) == hash(twin) == before


@settings(max_examples=300, deadline=None)
@given(r=_rle_masks())
@example(r=RleMask(4, 3, (2, 9, 1)))  # first partial, one full and last partial column
@example(r=RleMask(3, 4, (3, 6, 3)))  # two full columns
@example(r=RleMask(3, 3, (2, 2, 5)))  # across one column boundary
@example(r=RleMask(1, 7, (1, 2, 0, 3, 1)))
@example(r=RleMask(5, 5, (4, 1, 3, 12, 5)))  # a one-column run, then a crossing run
def test_rle_centroid_and_bbox_equal_per_column_oracle(r):
    assert r._centroid_and_bbox == reference_centroid_and_bbox(r)


@settings(max_examples=300, deadline=None)
@given(st.lists(_rle_masks(), max_size=8))
@example([])
@example([RleMask(4, 3, (2, 9, 1)), RleMask(3, 4, (3, 6, 3)), RleMask(3, 3, (9,)), RleMask(1, 7, (1, 2, 0, 3, 1))])
@example([RleMask(1, 3037000499, (0, 3037000499)), RleMask(3, 2**30, (1, 3 * 2**30 - 2, 1))])  # sums just under 2^63
@example([RleMask(2**20, 2**21, (5, 2**41 - 10, 5)), RleMask(2**21, 2**21, (5, 2**42 - 10, 5))])  # sums that fit, and a frame of h * w * max(h, w) = 2^63
def test_derive_many_equals_each_mask_alone(masks):
    fresh = [RleMask(r.height, r.width, r.counts) for r in masks]
    start, end, height, offset, count, area, top, bottom, left, right = geometry._run_table(masks)
    geometry._derive_many(masks)
    for k, (r, f) in enumerate(zip(masks, fresh)):
        runs = start[offset[k]:offset[k] + count[k]].tolist(), end[offset[k]:offset[k] + count[k]].tolist()
        assert (runs, height[k], area[k]) == (f.runs, f.height, f.area)
        if f.area:
            x, y, w, h = f.bbox
            assert (left[k], top[k], right[k], bottom[k]) == (x, y, x + w - 1, y + h - 1)
        else:
            assert bottom[k] < top[k] and right[k] < left[k]
        handed_over = r.height * r.width * max(r.height, r.width) < 2**63
        assert ({"area", "_centroid_and_bbox"} <= r.__dict__.keys()) == handed_over and "runs" not in r.__dict__
        assert type(r.area) is int and (r.area, r._centroid_and_bbox) == (f.area, f._centroid_and_bbox)


def test_rle_centroid_of_a_run_across_a_trillion_columns_is_one_step():
    # a fresh interpreter under a timeout, so a per-column walk fails instead of hanging the suite
    code = (
        "from segtrack.geometry import RleMask\n"
        "r = RleMask(1, 10**12, (0, 10**12))\n"
        "assert r.centroid == (5e11, 0.5), r.centroid\n"
        "assert r.bbox == (0.0, 0.0, 1e12, 1.0), r.bbox\n"
    )
    src = str(Path(geometry.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 0, proc.stderr


@settings(max_examples=300, deadline=None)
@given(st.lists(_rle_masks(), max_size=8))
@example([])
@example([RleMask(1, 1, (1,)), RleMask(1, 1, (0, 1)), RleMask(2, 2, (0, 0, 0, 4)), RleMask(3, 1, (1, 0, 0, 2))])  # zero-length runs
@example([RleMask(3, 3, (0, 9)), RleMask(4, 4, (0, 5, 11))])  # a leading one-run
@example([RleMask(8, 16, (100, 28)), RleMask(1, 61, (50, 1, 10)), RleMask(1, 50, (0, 44, 6))])  # two groups, a sign pad, "\\"
@example([RleMask(2, 3, (1, 5)), RleMask(1, 2**70, (0, 2**70)), RleMask(1, 1, (1,))])  # past int64: the one-mask encoder
@example([RleMask(1, 2**63 - 1, (2**63 - 1,)), RleMask(1, 2**63, (0, 2**63))])  # the last mask int64 holds, and the first it does not
@example([RleMask(2**31, 2**31, (2**62 - 5, 5)), RleMask(1, 2**62 + 2, (2**62, 1, 0, 1))])  # thirteen groups; a delta of -2**62
def test_rle_encode_many_equals_one_at_a_time(masks):
    assert rle_encode_many(masks) == [rle_encode_string(r) for r in masks]


def test_rle_encode_many_crosses_chunks():
    rng = np.random.default_rng(6)
    masks = [mask_to_rle(rng.random((h, w)) < 0.3) for h, w in rng.integers(1, 24, size=(2 * _DECODE_CHUNK + 7, 2))]
    masks[_DECODE_CHUNK - 1] = masks[_DECODE_CHUNK + 1] = RleMask(1, 2**70, (2**69, 2**69))
    assert rle_encode_many(masks) == [rle_encode_string(r) for r in masks]


# ---------------------------------------------------------------------------
# multi-ring segmentations

BIG_SQUARE = Polygon.from_xy([(0, 0), (2, 0), (2, 2), (0, 2)])  # area 4, centroid (1, 1)
SMALL_SQUARE = Polygon.from_xy([(4, 0), (5, 0), (5, 1), (4, 1)])  # area 1, centroid (4.5, 0.5)


def test_multipolygon_weights_ring_centroids_by_area():
    seg = MultiPolygon([BIG_SQUARE, SMALL_SQUARE])
    assert seg.rings == (BIG_SQUARE, SMALL_SQUARE)
    assert len(seg) == 2 and list(seg) == [BIG_SQUARE, SMALL_SQUARE]
    assert seg.area == 5.0
    assert seg.centroid == Point(1.7, 0.9)  # (4 * (1, 1) + 1 * (4.5, 0.5)) / 5
    assert seg.bbox == BoundingBox(0.0, 0.0, 5.0, 2.0)


def test_multipolygon_of_degenerate_rings_takes_the_vertex_mean():
    seg = MultiPolygon([Polygon.from_xy([(0, 0), (1, 1), (2, 2)]), Polygon.from_xy([(4, 0), (4, 1), (4, 2)])])
    assert seg.area == 0.0
    assert seg.centroid == Point(2.5, 1.0)  # mean of all six vertices
    assert seg.bbox == BoundingBox(0.0, 0.0, 4.0, 2.0)
    with pytest.raises(EmptySegmentationError):
        MultiPolygon(())


def test_multipolygon_polygon_iou_matches_dense_reference():
    ring_a = [(1.3, 2.2), (9.7, 1.6), (8.1, 8.9), (2.4, 7.5)]
    ring_b = [(12.5, 3.0), (17.2, 4.4), (14.0, 9.6)]
    other = [(4.1, 0.7), (15.8, 2.9), (13.3, 11.2), (5.5, 10.4)]
    seg = MultiPolygon([Polygon.from_xy(ring_a), Polygon.from_xy(ring_b)])
    poly = Polygon.from_xy(other)
    # the 14x20 frame holds every vertex, so the references lose no pixel
    want = dense_iou(raster_oracle(ring_a, 14, 20) | raster_oracle(ring_b, 14, 20), raster_oracle(other, 14, 20))
    assert 0.0 < want < 1.0
    assert segmentation_iou(seg, poly) == segmentation_iou(poly, seg) == want


# ---------------------------------------------------------------------------
# mixed-form IoU


def test_segmentation_iou_polygon_vs_mask():
    sq = Polygon.from_xy([(0, 0), (4, 0), (4, 4), (0, 4)])
    dense = rasterize(sq, 6, 6)
    assert segmentation_iou(sq, mask_to_rle(dense)) == 1.0


_coord = st.one_of(
    st.floats(-8, 28),
    st.integers(-8, 28).map(lambda k: k + 0.5),  # on a pixel center
    st.integers(-8, 28).map(float),  # on a pixel corner
)
_rings = st.lists(st.lists(st.tuples(_coord, _coord), min_size=3, max_size=7), min_size=1, max_size=3)


@settings(max_examples=150, deadline=None)
@given(
    rings=_rings,
    height=st.integers(1, 20),
    width=st.integers(1, 20),
    mask_seed=st.integers(0, 2**32 - 1),
    density=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
)
@example(rings=[[(30, 30), (40, 30), (35, 40)]], height=8, width=8, mask_seed=0, density=0.5)  # wholly outside
@example(rings=[[(-4, -4), (6.5, -4), (6.5, 6.5), (-4, 6.5)]], height=8, width=8, mask_seed=1, density=0.5)
@example(rings=[[(2, 3.5), (2.5, 2), (2.7, 3)]], height=8, width=8, mask_seed=2, density=0.5)  # no pixel center inside
@example(rings=[[(0, 0), (5, 0), (5, 5), (0, 5)], [(3, 3), (9, 3), (9, 9)]], height=8, width=8, mask_seed=3, density=0.5)
def test_segmentation_iou_mixed_equals_full_frame_reference(rings, height, width, mask_seed, density):
    polys = [Polygon.from_xy(r) for r in rings]
    seg = polys[0] if len(polys) == 1 else MultiPolygon(polys)
    rle = mask_to_rle(np.random.default_rng(mask_seed).random((height, width)) < density)
    dense_poly = np.zeros((height, width), dtype=bool)
    for r in rings:
        dense_poly |= raster_oracle(r, height, width)
    want = dense_iou(dense_poly, rle_to_mask(rle))
    assert segmentation_iou(seg, rle) == want
    assert segmentation_iou(rle, seg) == want


@settings(max_examples=200, deadline=None)
@given(
    rings=st.lists(st.lists(st.tuples(_coord, _coord), min_size=3, max_size=7), min_size=2, max_size=3),
    height=st.integers(1, 12),
    width=st.integers(1, 12),
)
@example(rings=[[(0, 0), (4, 0), (4, 4), (0, 4)], [(4, 0), (8, 0), (8, 4), (4, 4)]], height=8, width=8)  # a shared edge
@example(rings=[[(0, 0), (4, 0), (4, 4), (0, 4)], [(3.5, 0), (8, 0), (8, 4), (3.5, 4)]], height=8, width=8)  # one column
@example(rings=[[(-9, -9), (2, -9), (2, 0.5), (-9, 0.5)]] * 2, height=8, width=8)  # one ring twice, above the frame
@example(rings=[[(0, 0), (6, 0), (6, 6), (0, 6)], [(2, 2), (30, 2), (30, 30)]], height=4, width=4)  # past its far corner
def test_rings_overlap_equals_a_pixel_count(rings, height, width):
    covered = sum(raster_oracle(r, height, width).astype(int) for r in rings)
    assert geometry.rings_overlap([Polygon.from_xy(r) for r in rings], height, width) == bool((covered >= 2).any())


def test_segmentation_iou_polygon_pair_matches_dense():
    a = Polygon.from_xy([(0, 0), (10, 0), (10, 10), (0, 10)])
    b = Polygon.from_xy([(5, 0), (15, 0), (15, 10), (5, 10)])
    assert segmentation_iou(a, b) == pytest.approx(50 / 150)


def test_segmentation_iou_translation_window():
    # same shapes far from the origin still compare exactly
    a = Polygon.from_xy([(100, 200), (110, 200), (110, 210), (100, 210)])
    b = Polygon.from_xy([(105, 200), (115, 200), (115, 210), (105, 210)])
    assert segmentation_iou(a, b) == pytest.approx(50 / 150)
    # each polygon is filled over its own extent, never over the window that holds both
    far = Polygon.from_xy([(1e6, 1e6), (1e6 + 4, 1e6), (1e6 + 4, 1e6 + 4)])
    assert segmentation_iou(a, far) == segmentation_iou(far, a) == 0.0


_OVERSIZED = (
    "polygon with bbox [{}] is too large for an IoU, which fills at most 1,073,741,824 pixels of a polygon,"
    " each within 4,611,686,018,427,387,904 of the origin"
)


@pytest.mark.parametrize(
    "points,bbox",
    [
        ([(0, 0), (1e200, 0), (1e200, 1e200)], "0.0, 0.0, 1e+200, 1e+200"),
        ([(-1e308, 0), (1e308, 0), (0, 3)], "-1e+308, 0.0, inf, 3.0"),  # a box too wide for a float
        ([(0, 0), (32767, 0), (32767, 32767)], "0.0, 0.0, 32767.0, 32767.0"),  # 32769 x 32769 with the spare pixels
        ([(2**64, 0), (2**64 + 2**13, 0), (2**64, 4)], "1.8446744073709552e+19, 0.0, 8192.0, 4.0"),  # past int64
    ],
    ids=["1e200", "inf-box", "past-the-cap", "far"],
)
def test_segmentation_iou_refuses_a_polygon_past_the_fill_cap(points, bbox):
    big, small = Polygon.from_xy(points), Polygon.from_xy([(0, 0), (4, 0), (4, 4)])
    for a, b, operand in ((big, small, 0), (small, big, 1)):
        with pytest.raises(OversizedPolygonError) as info:
            segmentation_iou(a, b)
        assert (str(info.value), info.value.operand) == (_OVERSIZED.format(bbox), operand)
    group = MultiPolygon([small, big])  # named by the box of all its rings
    with pytest.raises(OversizedPolygonError, match=re.escape(_OVERSIZED.format(", ".join(map(repr, group.bbox))))):
        segmentation_iou(small, group)


def test_segmentation_iou_fills_a_huge_polygon_only_inside_a_mask_frame():
    huge = Polygon.from_xy([(-1e12, -1e12), (1e12, -1e12), (0, 1e12)])  # covers the 8 x 8 frame
    mask = mask_to_rle(rasterize(Polygon.from_xy([(0, 0), (4, 0), (4, 4)]), 8, 8))
    assert segmentation_iou(huge, mask) == segmentation_iou(mask, huge) == 10 / 64
    far = Polygon.from_xy([(1e200, 1e200), (2e200, 1e200), (1e200, 2e200)])
    assert segmentation_iou(far, mask) == segmentation_iou(mask, far) == 0.0
    # with a pixel to spare on each side, 32768 x 32768 pixels are the cap exactly, and nothing is refused
    geometry._check_fill(Polygon.from_xy([(0, 0), (32766, 0), (32766, 32766)]), None, 0)


def test_segmentation_iou_refuses_before_filling_a_frame_past_the_cap(monkeypatch):
    frame = RleMask(2**16, 2**15, (0, 16, 2**31 - 16))  # rows 0..15 of column 0 set, in a frame of 2**31 pixels
    corner = Polygon.from_xy([(-1e12, -1e12), (4, -1e12), (4, 4), (-1e12, 4)])  # 4 x 4 of its pixels in the frame
    assert segmentation_iou(frame, corner) == segmentation_iou(corner, frame) == 4 / 28
    far_corner = Polygon.from_xy([(2**15 - 4, 2**16 - 4), (1e12, 2**16 - 4), (1e12, 1e12), (2**15 - 4, 1e12)])
    assert segmentation_iou(frame, far_corner) == 0.0  # its 4 x 4 pixels in the frame's last corner
    monkeypatch.setattr(geometry, "_spans_many", lambda *args: pytest.fail("filled a polygon past the cap"))
    cover = Polygon.from_xy([(-1, -1), (2**16, -1), (2**16, 2**17)])  # 2**15 x 2**16 of its pixels in the frame
    with pytest.raises(OversizedPolygonError) as info:
        segmentation_iou(frame, cover)
    assert info.value.operand == 1


TRI_A = [(3.8, 0.3), (0.6, 1.3), (1.5, 2.5)]
TRI_B = [(2.9, 0.1), (1.4, 1.6), (0.2, 1.9)]


def test_segmentation_iou_polygon_pair_compares_as_polygon_and_mask():
    a, b = Polygon.from_xy(TRI_A), Polygon.from_xy(TRI_B)
    assert segmentation_iou(a, b) == segmentation_iou(b, a) == 1 / 3
    assert segmentation_iou(a, mask_to_rle(rasterize(b, 6, 6))) == 1 / 3


_pair_coord = st.one_of(
    st.integers(-60, 180).map(lambda k: k / 10),  # one decimal, as hand-drawn labels often are
    st.integers(-12, 36).map(lambda k: k / 2),  # on pixel centers and corners
    st.floats(-6, 18),
)
_pair_rings = st.lists(st.lists(st.tuples(_pair_coord, _pair_coord), min_size=3, max_size=7), min_size=1, max_size=3)


def _window_render(rings, top, left, height, width):
    grid = np.zeros((height, width), dtype=bool)
    for ring in rings:
        grid |= raster_oracle(ring, height, width, top, left)
    return grid


@settings(max_examples=200, deadline=None)
@given(rings_a=_pair_rings, rings_b=_pair_rings)
@example(rings_a=[TRI_A], rings_b=[TRI_B])
@example(rings_a=[[(-3.5, -2.5), (1.5, -2.5), (1.5, 0.5)]], rings_b=[[(-3.5, -2.5), (1.5, 0.5), (-3.5, 0.5)]])
@example(rings_a=[[(0, 0), (5, 0), (5, 5), (0, 5)], [(3, 3), (9, 3), (9, 9)]], rings_b=[[(40, 40), (44, 40), (44, 44)]])
def test_segmentation_iou_polygon_pair_equals_dense_reference(rings_a, rings_b):
    a, b = ([Polygon.from_xy(r) for r in rings] for rings in (rings_a, rings_b))
    seg_a = a[0] if len(a) == 1 else MultiPolygon(a)
    seg_b = b[0] if len(b) == 1 else MultiPolygon(b)
    xs = [x for ring in rings_a + rings_b for x, _ in ring]
    ys = [y for ring in rings_a + rings_b for _, y in ring]
    top, left = math.floor(min(ys)) - 1, math.floor(min(xs)) - 1
    height, width = math.ceil(max(ys)) + 1 - top, math.ceil(max(xs)) + 1 - left
    want = dense_iou(_window_render(rings_a, top, left, height, width), _window_render(rings_b, top, left, height, width))
    assert segmentation_iou(seg_a, seg_b) == segmentation_iou(seg_b, seg_a) == want
    if top >= -1 and left >= -1:  # inside the frame: as a polygon compares with the other's rendering
        frame_b = np.zeros((height + top, width + left), dtype=bool)
        for ring in b:
            frame_b |= rasterize(ring, height + top, width + left)
        assert segmentation_iou(seg_a, mask_to_rle(frame_b)) == want


# ---------------------------------------------------------------------------
# many IoUs in one call


def _all_pairs(n):
    return [(i, j) for i in range(n) for j in range(n)]


@st.composite
def _rle_mask_sets(draw):
    """One to six masks of the _rle_masks corpus sharing one frame."""
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    return [_draw_mask(draw, h, w) for _ in range(draw(st.integers(1, 6)))]


@settings(max_examples=300, deadline=None)
@given(masks=_rle_mask_sets())
@example(masks=[RleMask(4, 4, (5, 0, 3, 2, 6)), RleMask(4, 4, (5, 0, 11)), RleMask(4, 4, (16,)), RleMask(4, 4, (0, 16))])
@example(masks=[RleMask(4, 3, (2, 9, 1)), RleMask(4, 3, (0, 3, 2, 7)), RleMask(4, 3, (5, 7))])  # runs across columns
@example(masks=[RleMask(1, 7, (1, 2, 0, 3, 1)), RleMask(1, 7, (0, 1, 1, 5))])  # 1xN: every run crosses columns
@example(masks=[RleMask(7, 1, (0, 3, 0, 2, 2)), RleMask(7, 1, (2, 0, 0, 5))])  # Nx1: one column
def test_segmentation_ious_of_masks_equal_rle_iou(masks):
    pairs = _all_pairs(len(masks))
    assert segmentation_ious(masks, pairs).tolist() == [rle_iou(masks[i], masks[j]) for i, j in pairs]


_FAR = Polygon.from_xy([(1000.5, 1000), (1004, 1000.5), (1002, 1003)])


@st.composite
def _mixed_segs(draw):
    """Polygons, multi-ring polygons and masks of one frame; rings reach past the frame, and one may lie far off."""
    h, w = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    segs = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            rings = [Polygon.from_xy(r) for r in draw(_pair_rings)]
            segs.append(rings[0] if len(rings) == 1 else MultiPolygon(rings))
        else:
            segs.append(_draw_mask(draw, h, w))
    if draw(st.booleans()):
        segs.append(_FAR)
    return segs


_MIXED_EXAMPLES = [
    [Polygon.from_xy(TRI_A), Polygon.from_xy(TRI_B), mask_to_rle(rasterize(Polygon.from_xy(TRI_B), 6, 6))],
    # overlapping rings of one instance count their shared pixels once
    [MultiPolygon([Polygon.from_xy([(0, 0), (5, 0), (5, 5), (0, 5)]), Polygon.from_xy([(3, 3), (9, 3), (9, 9)])]),
     RleMask(8, 8, (10, 30, 24)), Polygon.from_xy([(-4, -4), (6.5, -4), (6.5, 6.5), (-4, 6.5)]), _FAR],
    [RleMask(3, 3, (0, 9)), RleMask(3, 3, (9,)), Polygon.from_xy([(2, 3.5), (2.5, 2), (2.7, 3)]), _FAR],  # no pixel center
]


@settings(max_examples=200, deadline=None)
@given(segs=_mixed_segs())
@example(segs=_MIXED_EXAMPLES[0])
@example(segs=_MIXED_EXAMPLES[1])
@example(segs=_MIXED_EXAMPLES[2])
def test_segmentation_ious_equal_the_one_pair_reference(segs):
    pairs = _all_pairs(len(segs))
    want = [reference_segmentation_iou(segs[i], segs[j]) for i, j in pairs]
    assert segmentation_ious(segs, pairs).tolist() == want
    assert [segmentation_iou(segs[i], segs[j]) for i, j in pairs] == want


@settings(max_examples=100, deadline=None)
@given(segs=_mixed_segs(), chunk=st.integers(1, 4), budget=st.integers(1, 64))
@example(segs=_MIXED_EXAMPLES[1], chunk=1, budget=1)
def test_segmentation_ious_are_the_same_in_any_chunks(segs, chunk, budget):
    pairs = _all_pairs(len(segs))
    with mock.patch.object(geometry, "_IOU_CHUNK", chunk), mock.patch.object(geometry, "_IOU_BUDGET", budget):
        got = segmentation_ious(segs, pairs)
    assert got.tolist() == [reference_segmentation_iou(segs[i], segs[j]) for i, j in pairs]


def test_segmentation_ious_cross_chunk_boundaries():
    # hand-drawn rings against disc masks, as labelled frames meet a detector's output, and mask pairs
    rng = np.random.default_rng(15)
    segs = []
    for _ in range(geometry._IOU_CHUNK + 40):
        cx, cy = rng.uniform(-4, 36, 2)
        angles = np.sort(rng.uniform(0, 2 * math.pi, 9))
        segs.append(Polygon.from_xy([(cx + 6 * math.cos(a), cy + 6 * math.sin(a)) for a in angles]))
        yy, xx = np.mgrid[:32, :32]
        segs.append(mask_to_rle((xx + 0.5 - cx - rng.normal()) ** 2 + (yy + 0.5 - cy - rng.normal()) ** 2 < 30))
    pairs = [(k, k + 1) for k in range(0, len(segs), 2)] + [(k + 1, k + 3) for k in range(0, len(segs) - 3, 2)]
    assert len(pairs) > 2 * geometry._IOU_CHUNK
    got = segmentation_ious(segs, pairs)
    assert got.tolist() == [reference_segmentation_iou(segs[i], segs[j]) for i, j in pairs]
    assert np.count_nonzero(got) > len(pairs) // 2


def test_segmentation_ious_refuse_the_first_refused_pair_in_order():
    small, big = Polygon.from_xy([(0, 0), (4, 0), (4, 4)]), Polygon.from_xy([(0, 0), (1e200, 0), (1e200, 1e200)])
    segs = [small, big, RleMask(8, 8, (64,)), RleMask(6, 6, (36,))]
    pairs = [(0, 0), (2, 3), (1, 0), (0, 1)]
    with pytest.raises(SizeMismatchError, match=r"^dimension mismatch: 8x8 vs 6x6$"):
        segmentation_ious(segs, pairs)
    with pytest.raises(OversizedPolygonError) as info:
        segmentation_ious(segs, pairs[2:])
    assert info.value.operand == 0
    refused = {}
    got = segmentation_ious(segs, pairs, refused)
    assert got[0] == 1.0 and np.isnan(got[1:]).all()
    assert [(k, type(e), getattr(e, "operand", None)) for k, e in sorted(refused.items())] == [
        (1, SizeMismatchError, None), (2, OversizedPolygonError, 0), (3, OversizedPolygonError, 1)
    ]
    assert segmentation_ious(segs, []).shape == (0,)


def test_segmentation_ious_of_masks_past_the_bound_go_through_rle_iou():
    def column_3(h, w, r0, r1):  # rows r0..r1 - 1 of column 3
        return RleMask(h, w, (3 * h + r0, r1 - r0, h * w - 3 * h - r1))

    poly = Polygon.from_xy([(3, 0), (4, 0), (4, 4), (3, 4)])  # rows 0..3 of column 3
    for h, w in ((2**26, 2**26), (2**32, 2**32)):  # 2**52 pixels, and more than int64 holds
        assert h * w >= geometry._MASK_BOUND
        mask, other = column_3(h, w, 2, 6), column_3(h, w, 4, 8)
        got = segmentation_ious([mask, other, poly], [(0, 1), (2, 0), (0, 2), (2, 2), (1, 1)])
        assert got.tolist() == [2 / 6, 2 / 6, 2 / 6, 1.0, 1.0]
    small = column_3(16, 16, 2, 6)
    assert segmentation_ious([small, poly], [(0, 1)]).tolist() == [2 / 6]
    tall = RleMask(2**64, 1, (2, 4, 2**64 - 6))  # rows 2..5 of one column
    first_column = Polygon.from_xy([(0, 0), (1, 0), (1, 4), (0, 4)])
    assert segmentation_ious([small, tall, first_column], [(0, 2), (2, 1), (1, 1)]).tolist() == [0.0, 2 / 6, 1.0]
    rings = ([(3, 0), (4, 0), (4, 4), (3, 4)], [(3, 2), (4, 2), (4, 6), (3, 6)], [(3, -9), (4, -9), (4, -5)])
    group = MultiPolygon([Polygon.from_xy(r) for r in rings])  # rows 0..5 of column 3 in the frame, the last ring above it
    for h, w in ((16, 16), (2**26, 2**26), (2**64, 4)):  # the batched kernel, then the fallback
        assert segmentation_ious([group, column_3(h, w, 2, 6)], [(0, 1), (1, 0)]).tolist() == [4 / 6, 4 / 6]


@pytest.mark.parametrize("offset", [0, -7.25, 2**40 + 0.5, 2**53 + 1, 2**60])
def test_spans_many_equal_ring_spans_far_from_the_origin(offset):
    # the last two rings have rows x edges past _IOU_BUDGET: the diamond takes its rows in 5 blocks, the square in 3
    tall = [[(x, 1000 * y) for x, y in ring] for ring in (DIAMOND, SQUARE_10)]
    rings = [Polygon.from_xy([(x + offset, y - offset) for x, y in ring]) for ring in (TRI_A, TRI_B, SQUARE_10, DIAMOND, *tall)]
    boxes = [(t, l, b - t, r - l) for t, l, b, r in map(geometry._fill_box, rings)]
    windows = boxes + [(0, 0, 6, 6)] * len(rings) + [(t + 4000, l, 5000, w) for t, l, _, w in boxes[4:]]  # starting inside a block
    rings = rings + rings + rings[4:]
    rows, c0, c1, ring = geometry._spans_many(rings, windows)
    assert offset or len(rows) > 20000
    for k, window in enumerate(windows):
        want = reference_ring_spans(rings[k], *window)
        got = rows[ring == k], c0[ring == k], c1[ring == k]
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), k


def test_spans_many_of_rings_over_a_million_rows_hold_little_memory():
    # two slivers over every row of a 2^20 x 1 frame, past every pixel center: one pass each would hold ~150 MB
    slivers = [Polygon.from_xy([(x, 0), (x + 0.1, 0), (x + 0.05, 2**20)]) for x in (0.1, 0.6)]
    tracemalloc.start()
    try:
        spans = geometry._spans_many(slivers, [(0, 0, 2**20, 1)] * 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(v) for v in spans] == [0] * 4
    assert peak < 16 * 2**20, peak


SQUARE_10 = [(0.5, 0.5), (10.5, 0.5), (10.5, 10.5), (0.5, 10.5)]
DIAMOND = [(5, -2), (12.2, 5), (5, 12.7), (-2.3, 5), (5, 4.5)]


def test_rasterized_area_close_to_shoelace():
    rng = np.random.default_rng(90)
    for _ in range(25):
        # convex rings sampled on a circle, all edges >= 20 px
        radius = float(rng.uniform(60, 150))
        n = int(rng.integers(3, 9))
        min_gap = 2 * math.asin(min(1.0, 10.0 / radius))
        while True:
            angles = np.sort(rng.uniform(0, 2 * math.pi, size=n))
            gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * math.pi]]))
            if gaps.min() >= min_gap:
                break
        cx = cy = radius + 10
        coords = [(cx + radius * math.cos(a), cy + radius * math.sin(a)) for a in angles]
        poly = Polygon.from_xy(coords)
        side = int(2 * (radius + 10)) + 2
        raster = rasterize(poly, side, side)
        assert abs(polygon_area(poly) - int(raster.sum())) <= polygon_perimeter(poly)
