from __future__ import annotations

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segtrack import metrics
from segtrack.errors import OversizedPolygonError, SchemaError, SizeMismatchError, UndefinedMetricError
from segtrack.formats import (
    CocoAnnotation,
    CocoCategory,
    CocoDataset,
    CocoImage,
    coco_to_tracks,
    image_frame_map,
    parse_predictions,
    read_coco,
    write_coco,
    write_predictions,
)
from segtrack.geometry import BoundingBox, Polygon, RleMask, mask_to_rle
from segtrack.metrics import (
    ApReport,
    MotConfig,
    evaluate_coco_ap,
    evaluate_mot,
    event_rates,
    hungarian,
    match_frame,
    mota,
)
from segtrack.tracking import DetectionRecord, Track, TrackState, assemble_tracks

from _oracles import (
    brute_force_assignment_vec,
    canonical_assignment_oracle,
    coco_ap_oracle,
    random_ap_dataset,
    reference_hungarian,
    reference_segmentation_iou,
)


def rect(x, y, w=10.0, h=10.0):
    return Polygon.from_xy([(x, y), (x + w, y), (x + w, y + h), (x, y + h)])


def rect_rle(x, y, w, h, canvas=160):
    m = np.zeros((canvas, canvas), dtype=bool)
    m[y:y + h, x:x + w] = True
    return mask_to_rle(m)


# ---------------------------------------------------------------------------
# hungarian


def test_hungarian_two_by_two():
    assert hungarian([[1, 2], [2, 1]]) == {0: 0, 1: 1}


def test_hungarian_diagonal_dominant():
    n = 5
    cost = [[0.0 if i == j else 10.0 for j in range(n)] for i in range(n)]
    assert hungarian(cost) == {i: i for i in range(n)}


def test_hungarian_rectangular_wide():
    assert hungarian([[5, 1, 9], [1, 5, 9]]) == {0: 1, 1: 0}


def test_hungarian_rectangular_tall():
    got = hungarian([[5.0, 1.0], [1.0, 5.0], [0.0, 0.0]])
    assert len(got) == 2
    cols = sorted(got.values())
    assert cols == [0, 1]
    total = sum([[5.0, 1.0], [1.0, 5.0], [0.0, 0.0]][r][c] for r, c in got.items())
    assert total == 1.0  # rows 0->1 (1), 2->0 (0); row 1 unassigned


def test_hungarian_tie_break_lowest_row_then_column():
    assert hungarian([[1, 1], [1, 1]]) == {0: 0, 1: 1}
    assert hungarian([[0, 0, 5], [0, 0, 5]]) == {0: 0, 1: 1}


def test_hungarian_empty_and_single():
    assert hungarian([]) == {}
    assert hungarian([[3.5]]) == {0: 0}


def test_hungarian_rejects_nan():
    with pytest.raises(ValueError):
        hungarian([[1.0, float("nan")], [0.0, 1.0]])


def test_hungarian_rejects_costs_too_large_to_compare():
    # max|cost| * n overflows to inf, which would make every column a tie
    with pytest.raises(ValueError, match="too large"):
        hungarian([[1e308, 0.0], [0.0, 1e308]])
    assert hungarian([[1e300, 0.0], [0.0, 1e300]]) == {0: 1, 1: 0}


def _tie_prone_matrix(rng, kind, n_rows, n_cols):
    shape = (n_rows, n_cols)
    if kind == "uniform":
        return rng.uniform(-5, 10, size=shape)
    if kind == "integer":
        return rng.integers(0, 4, size=shape).astype(float)
    if kind == "tenths":
        # ties whose float sums differ in the last bits, e.g. 0.1 + 0.2 against 0.3
        return rng.integers(1, 10, size=shape) / 10
    if kind == "iou":
        # 1 - IoU: mostly disjoint pairs (cost exactly 1), the rest pixel-count fractions
        union = rng.integers(20, 400, size=shape)
        inter = rng.integers(1, union + 1)
        return np.where(rng.random(shape) < 0.6, 1.0, 1.0 - inter / union)
    return np.full(shape, float(rng.integers(0, 3)))


_KINDS = ["uniform", "integer", "tenths", "iou", "equal"]


@pytest.mark.parametrize("kind", _KINDS)
def test_hungarian_canonical_ties_match_oracles(kind):
    """2000 matrices up to 7x7 against enumeration, 250 up to 12x12 against the O(n^5) solver."""
    rng = np.random.default_rng(_KINDS.index(kind))
    for trial in range(450):
        small = trial < 400
        n_rows, n_cols = (int(k) for k in rng.integers(*((1, 8) if small else (8, 13)), size=2))
        cost = _tie_prone_matrix(rng, kind, n_rows, n_cols).tolist()
        got = hungarian(cost)
        assert got == reference_hungarian(cost), cost
        if small:
            assert got == canonical_assignment_oracle(cost), cost


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_hungarian_tie_tolerance_is_on_the_total(n):
    """Each diagonal cost is within the tie tolerance, their sum is not: the zero-cost cycle wins."""
    cost = np.where(np.eye(n, k=1) + np.eye(n, k=1 - n) > 0, 0.0, 1.0 if n > 2 else 0.0)
    np.fill_diagonal(cost, 0.75e-9 * (1.0 + np.abs(cost).max() * n))
    cost = cost.tolist()
    expected = {i: (i + 1) % n for i in range(n)}
    assert hungarian(cost) == expected
    assert reference_hungarian(cost) == expected
    assert canonical_assignment_oracle(cost) == expected


def test_hungarian_near_ties_match_reference():
    """Small integers plus noise up to 1.5 tolerances: whole-cycle sums straddle the tolerance.

    Here the old solver's rule, within tolerance of the best completion
    given the rows already fixed, can part from the permutation oracle's
    single tolerance on the total, so only the old solver is the reference.
    """
    rng = np.random.default_rng(7)
    for trial in range(400):
        n_rows, n_cols = (int(k) for k in rng.integers(*((1, 8) if trial < 350 else (8, 13)), size=2))
        base = rng.integers(0, 3, size=(n_rows, n_cols)).astype(float)
        tol = 1e-9 * (1.0 + base.max() * max(n_rows, n_cols))
        cost = (base + rng.uniform(0, (0.2, 0.5, 0.9, 1.5)[trial % 4] * tol, size=base.shape)).tolist()
        assert hungarian(cost) == reference_hungarian(cost), cost


def test_hungarian_matches_brute_force():
    rng = np.random.default_rng(101)
    for trial in range(150):
        n = int(rng.integers(2, 8))
        cost = rng.uniform(0, 10, size=(n, n))
        got = hungarian(cost.tolist())
        assert sorted(got) == list(range(n))
        assert len(set(got.values())) == n
        total = sum(cost[r][c] for r, c in got.items())
        assert total <= brute_force_assignment_vec(cost) + 1e-9


def test_hungarian_integer_costs_exact():
    rng = np.random.default_rng(55)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        cost = rng.integers(0, 6, size=(n, n)).astype(float)
        got = hungarian(cost.tolist())
        total = sum(cost[r][c] for r, c in got.items())
        assert total == brute_force_assignment_vec(cost)


# ---------------------------------------------------------------------------
# mota / rates


def test_mota_reported_two_animal_video():
    v = mota(38, 52, 11, 10575)
    assert v == pytest.approx(0.990449, abs=1e-6)
    assert f"{100 * v:.2f}" == "99.04"


def test_mota_perfect_and_zero():
    assert mota(0, 0, 0, 100) == 1.0
    assert mota(100, 0, 0, 100) == 0.0


def test_mota_undefined_for_empty_gt():
    with pytest.raises(UndefinedMetricError):
        mota(1, 1, 1, 0)


def test_mota_scale_invariant():
    for k in (2, 5, 17):
        assert mota(3 * k, 2 * k, 4 * k, 50 * k) == pytest.approx(mota(3, 2, 4, 50))


def test_event_rates_reported_values():
    assert event_rates(52, 10575) == pytest.approx(0.4917, abs=5e-4)
    assert event_rates(38, 10575) == pytest.approx(0.3593, abs=5e-4)
    assert event_rates(11, 10575) == pytest.approx(0.1040, abs=5e-4)
    assert f"{event_rates(52, 10575):.2f}" == "0.49"


def test_event_rates_undefined():
    with pytest.raises(UndefinedMetricError):
        event_rates(5, 0)


# ---------------------------------------------------------------------------
# frame matching


def test_match_frame_diagonal_preference():
    gt = [("g1", rect(0, 0)), ("g2", rect(100, 0))]
    preds = [("a", rect(1, 0)), ("b", rect(101, 0))]
    log = match_frame(gt, preds, prev={}, frame=0)
    assert [(g, p) for g, p, _ in log.matches] == [("g1", "a"), ("g2", "b")]
    assert log.misses == () and log.false_positives == () and log.switches == ()


def test_match_frame_sticky_beats_higher_iou():
    gt = [("g1", rect(0, 0))]
    preds = [("a", rect(3, 0)), ("b", rect(1, 0))]  # b overlaps more than a
    log = match_frame(gt, preds, prev={"g1": "a"}, frame=5)
    assert log.matches == (("g1", "a", pytest.approx(70 / 130)),)
    assert log.false_positives == ("b",)
    assert log.switches == ()


def test_match_frame_switch_when_previous_label_gone():
    gt = [("g1", rect(0, 0))]
    preds = [("b", rect(1, 0))]
    log = match_frame(gt, preds, prev={"g1": "a"}, frame=9)
    assert [(g, p) for g, p, _ in log.matches] == [("g1", "b")]
    assert log.switches == ("g1",)


def test_match_frame_duplicate_gt_rejected():
    with pytest.raises(ValueError):
        match_frame([("g", rect(0, 0)), ("g", rect(5, 5))], [], prev={})


def test_match_frame_below_threshold_is_miss_and_fp():
    gt = [("g1", rect(0, 0))]
    preds = [("a", rect(8, 0))]  # IoU 20/180 < 0.5
    log = match_frame(gt, preds, prev={})
    assert log.matches == ()
    assert log.misses == ("g1",)
    assert log.false_positives == ("a",)


# ---------------------------------------------------------------------------
# sequence evaluation


def _track(label, frames, x_of, y=0.0):
    states = [
        TrackState(
            frame=f,
            score=1.0,
            segmentation=rect(x_of(f), y),
        )
        for f in frames
    ]
    return Track(label, states)


def test_evaluate_mot_identical_tracks():
    gt = [_track("v1", range(10), lambda f: 3 * f), _track("v2", range(10), lambda f: 3 * f, y=50)]
    report = evaluate_mot(gt, gt)
    assert (report.false_negatives, report.false_positives, report.id_switches) == (0, 0, 0)
    assert report.mota == 1.0
    assert report.motp == 1.0
    assert report.n_gt == 20


def test_evaluate_mot_label_permutation_counts_two_switches():
    gt = [_track("v1", range(10), lambda f: 0), _track("v2", range(10), lambda f: 100)]
    swap_from = 6
    pred = [
        Track("a", [TrackState(f, score=1.0, segmentation=rect(0 if f < swap_from else 100, 0)) for f in range(10)]),
        Track("b", [TrackState(f, score=1.0, segmentation=rect(100 if f < swap_from else 0, 0)) for f in range(10)]),
    ]
    report = evaluate_mot(gt, pred)
    assert report.id_switches == 2
    assert report.false_negatives == 0 and report.false_positives == 0
    switches_by_frame = [f.frame for f in report.per_frame_log if f.switches]
    assert switches_by_frame == [swap_from]


def test_evaluate_mot_sticky_through_crossing():
    # two objects pass through each other; predictions equal ground truth,
    # so the sticky rule must keep identities without a single switch
    gt = [
        _track("v1", range(21), lambda f: float(f * 2)),
        _track("v2", range(21), lambda f: float(40 - f * 2)),
    ]
    report = evaluate_mot(gt, gt)
    assert report.id_switches == 0
    assert report.mota == 1.0


def test_evaluate_mot_counts_miss_and_fp():
    gt = [_track("v1", range(5), lambda f: 0)]
    pred_states = [TrackState(f, score=1.0, segmentation=rect(0, 0)) for f in range(5) if f != 2]
    stray = Track("junk", [TrackState(4, score=1.0, segmentation=rect(200, 200))])
    report = evaluate_mot(gt, [Track("v1", pred_states), stray])
    assert report.false_negatives == 1
    assert report.false_positives == 1
    assert report.id_switches == 0
    assert report.n_gt == 5
    assert report.mota == pytest.approx(1 - 2 / 5)


def test_evaluate_mot_accounting_invariant():
    gt = [_track("v1", range(8), lambda f: 0), _track("v2", range(4), lambda f: 100)]
    pred = [_track("v1", range(0, 8, 2), lambda f: 0)]
    report = evaluate_mot(gt, pred)
    total = sum(len(f.matches) + len(f.misses) for f in report.per_frame_log)
    assert total == report.n_gt == 12


def test_evaluate_mot_frames_denominator():
    gt = [_track("v1", range(10), lambda f: 0), _track("v2", range(10), lambda f: 100)]
    report = evaluate_mot(gt, gt, MotConfig(denominator="frames"))
    assert report.n_gt == 10


def test_evaluate_mot_from_files_takes_no_centroid():
    # ground truth holds one mask track and one polygon track; both are
    # matched by mask predictions, so both IoU paths run
    box = BoundingBox(0.0, 0.0, 1.0, 1.0)  # read back, never checked
    ds = CocoDataset(categories=[CocoCategory(1, "mask_vole"), CocoCategory(2, "poly_vole")])
    preds = []
    for f in range(4):
        ds.images.append(CocoImage(f + 1, f"frame_{f:06d}.png", 160, 160, frame_index=f))
        ds.annotations += [
            CocoAnnotation(2 * f + 1, f + 1, 1, rect_rle(10 + 5 * f, 10, 20, 20), box, 400.0),
            CocoAnnotation(2 * f + 2, f + 1, 2, rect(80.0 + 5 * f, 80.0, 20.0, 20.0), box, 400.0),
        ]
        preds += [
            DetectionRecord(f, "a", 0.9, rect_rle(11 + 5 * f, 10, 20, 20), box),
            DetectionRecord(f, "b", 0.9, rect_rle(80 + 5 * f, 81, 20, 20), box),
        ]
    gt_tracks = coco_to_tracks(read_coco(write_coco(ds)))
    pred_tracks = assemble_tracks(parse_predictions(write_predictions(preds)))
    report = evaluate_mot(gt_tracks, pred_tracks)
    assert (report.false_negatives, report.false_positives, report.id_switches) == (0, 0, 0)
    segs = [s.segmentation for t in gt_tracks + pred_tracks for s in t.states]
    masks = [s for s in segs if isinstance(s, RleMask)]
    polygons = [s for s in segs if isinstance(s, Polygon)]
    assert (len(masks), len(polygons)) == (12, 4)
    assert not any("_centroid_and_bbox" in m.__dict__ for m in masks)
    assert not any("centroid" in p.__dict__ for p in polygons)


def test_evaluate_mot_counts_an_empty_mask_as_unmatched():
    # an empty mask overlaps nothing, so it is a miss as ground truth and a
    # false positive as a prediction; it needs no centroid to be scored
    empty, full = rect_rle(0, 0, 0, 0, canvas=20), rect_rle(2, 2, 5, 5, canvas=20)
    gt = [Track("v", [TrackState(0, score=1.0, segmentation=empty), TrackState(1, score=1.0, segmentation=full)])]
    pred = [Track("a", [TrackState(0, score=1.0, segmentation=full), TrackState(1, score=1.0, segmentation=empty)])]
    report = evaluate_mot(gt, pred)
    assert (report.false_negatives, report.false_positives, report.id_switches) == (2, 2, 0)


def test_evaluate_mot_empty_gt_undefined():
    with pytest.raises(UndefinedMetricError):
        evaluate_mot([], [_track("a", range(3), lambda f: 0)])


def test_mot_config_validation():
    with pytest.raises(ValueError):
        MotConfig(iou_threshold=0.0)
    with pytest.raises(ValueError):
        MotConfig(denominator="pixels")


# ---------------------------------------------------------------------------
# COCO AP


def _ap_dataset(n_images=1, cats=("a",)):
    ds = CocoDataset(categories=[CocoCategory(i + 1, n) for i, n in enumerate(cats)])
    for i in range(n_images):
        ds.images.append(CocoImage(i + 1, f"img_{i}.png", 160, 160, frame_index=i))
    return ds


def _gt_ann(ds, image_id, cat_id, x, y, w, h):
    seg = rect_rle(x, y, w, h)
    ds.annotations.append(
        CocoAnnotation(
            id=len(ds.annotations) + 1,
            image_id=image_id,
            category_id=cat_id,
            segmentation=seg,
            bbox=seg.bbox,
            area=float(w * h),
            iscrowd=0,
        )
    )
    return seg


def _det(frame, label, score, x, y, w, h):
    seg = rect_rle(x, y, w, h)
    return DetectionRecord(frame=frame, label=label, score=score, segmentation=seg, bbox=seg.bbox)


def test_ap_perfect_detector():
    ds = _ap_dataset()
    _gt_ann(ds, 1, 1, 20, 20, 10, 10)
    report = evaluate_coco_ap(ds, [_det(0, "a", 0.9, 20, 20, 10, 10)])
    (row,) = report.rows
    assert row.ap == row.ap50 == row.ap75 == 1.0
    assert row.ap_small == 1.0          # 100 px falls in the small band
    assert row.ap_medium is None and row.ap_large is None


def test_ap_false_positive_then_true_positive():
    ds = _ap_dataset()
    _gt_ann(ds, 1, 1, 20, 20, 10, 10)
    preds = [
        _det(0, "a", 0.9, 120, 120, 10, 10),  # IoU 0 with the gt
        _det(0, "a", 0.8, 20, 20, 10, 10),    # exact match
    ]
    report = evaluate_coco_ap(ds, preds)
    (row,) = report.rows
    assert row.ap50 == pytest.approx(0.5)
    assert row.ap75 == pytest.approx(0.5)
    assert row.ap == pytest.approx(0.5)


def test_ap_no_detections_is_zero():
    ds = _ap_dataset()
    _gt_ann(ds, 1, 1, 20, 20, 10, 10)
    (row,) = evaluate_coco_ap(ds, []).rows
    assert row.ap == 0.0 and row.ap50 == 0.0


def test_ap_category_without_gt_is_empty_marker():
    ds = _ap_dataset(cats=("a", "b"))
    _gt_ann(ds, 1, 1, 20, 20, 10, 10)
    rows = evaluate_coco_ap(ds, []).rows
    assert rows[1].name == "b"
    assert rows[1].values() == (None,) * 6


def test_ap_unknown_category_rejected():
    ds = _ap_dataset()
    _gt_ann(ds, 1, 1, 20, 20, 10, 10)
    with pytest.raises(SchemaError, match="zebra"):
        evaluate_coco_ap(ds, [_det(0, "zebra", 0.5, 0, 0, 5, 5)])


def test_ap_unknown_categories_message_is_capped():
    ds = _ap_dataset()
    _gt_ann(ds, 1, 1, 20, 20, 10, 10)
    preds = [_det(0, f"spurious_{i:03d}", 0.5, 0, 0, 5, 5) for i in range(288)]
    with pytest.raises(SchemaError, match=r"^unknown categories in predictions: \['spurious_000', .*, \.\.\.\] \(288 in all\)$") as e:
        evaluate_coco_ap(ds, preds)
    assert "spurious_009" in str(e.value) and "spurious_010" not in str(e.value)
    assert len(str(e.value)) < 250


def test_ap_unknown_frame_rejected():
    ds = _ap_dataset()
    _gt_ann(ds, 1, 1, 20, 20, 10, 10)
    with pytest.raises(SchemaError, match="frames"):
        evaluate_coco_ap(ds, [_det(7, "a", 0.5, 0, 0, 5, 5)])


def test_ap_max_dets_caps_per_image_and_category():
    ds = _ap_dataset()
    _gt_ann(ds, 1, 1, 20, 20, 10, 10)
    preds = [
        _det(0, "a", 0.9, 120, 120, 10, 10),  # junk, but highest score
        _det(0, "a", 0.8, 20, 20, 10, 10),
    ]
    (row,) = evaluate_coco_ap(ds, preds, max_dets=1).rows
    assert row.ap50 == 0.0


@pytest.mark.parametrize("max_dets", [0, -1])
def test_ap_max_dets_below_one_rejected(max_dets):
    ds = _ap_dataset()
    _gt_ann(ds, 1, 1, 20, 20, 10, 10)
    with pytest.raises(ValueError, match=f"^max_dets must be >= 1, got {max_dets}$"):
        evaluate_coco_ap(ds, [_det(0, "a", 0.8, 20, 20, 10, 10)], max_dets=max_dets)


def test_ap_score_rank_not_magnitude():
    ds = _ap_dataset()
    _gt_ann(ds, 1, 1, 20, 20, 10, 10)
    _gt_ann(ds, 1, 1, 60, 60, 12, 12)
    preds = [
        _det(0, "a", 0.9, 21, 20, 10, 10),
        _det(0, "a", 0.4, 120, 20, 10, 10),
        _det(0, "a", 0.6, 60, 61, 12, 12),
    ]
    base = evaluate_coco_ap(ds, preds)
    squashed = [
        DetectionRecord(d.frame, d.label, d.score ** 3, d.segmentation, d.bbox) for d in preds
    ]
    assert evaluate_coco_ap(ds, squashed) == base


def test_ap50_never_below_averaged_ap():
    ds, preds = random_ap_dataset(321)
    for row in evaluate_coco_ap(ds, preds).rows:
        if row.ap is not None and row.ap50 is not None:
            assert row.ap50 >= row.ap - 1e-12


def test_ap_matches_brute_force_oracle():
    # stacked datasets add score ties and overlapping ground truth
    for seed, stacked in itertools.product((0, 1, 2, 3, 4), (False, True)):
        ds, preds = random_ap_dataset(seed, max_images=8, stacked=stacked)
        got = {r.name: r for r in evaluate_coco_ap(ds, preds).rows}
        want = coco_ap_oracle(ds, preds)
        assert set(got) == set(want)
        for name, w in want.items():
            g = got[name]
            assert g.values() == (w["ap"], w["ap50"], w["ap75"], w["small"], w["medium"], w["large"])


# ---------------------------------------------------------------------------
# refusals: the first one each evaluation meets, as one IoU call per pair met it

_HUGE = Polygon.from_xy([(0, 0), (1e200, 0), (1e200, 1e200)])


def _square(x, y, side, size=8):
    m = np.zeros((size, size), dtype=bool)
    m[y:y + side, x:x + side] = True
    return mask_to_rle(m)


_segs = st.one_of(
    st.builds(_square, st.integers(0, 4), st.integers(0, 4), st.integers(2, 4)),
    st.builds(lambda x, y: rect(x, y, 3.0, 3.0), st.integers(0, 5), st.integers(0, 5)),
    st.builds(lambda x: _square(x, 0, 3, size=6), st.integers(0, 3)),  # another frame size
    st.just(_HUGE),
)


def _per_pair_mot(gt_tracks, pred_tracks):
    """evaluate_mot's fold, each IoU one reference call when the matching first reads it.

    Returns the frame logs, or the first refusal with the frame and prediction label of its pair.
    """
    gt_frames, pred_frames = metrics._states_by_frame(gt_tracks), metrics._states_by_frame(pred_tracks)
    prev, logs = {}, []
    for f in sorted(set(gt_frames) | set(pred_frames)):
        g, p = gt_frames.get(f, []), pred_frames.get(f, [])
        read = []

        def iou(gi, pj):
            read.append(pj)
            return reference_segmentation_iou(g[gi][1], p[pj][1])

        try:
            log = metrics._match_frame(g, p, iou, prev, MotConfig(), f)
        except (OversizedPolygonError, ValueError) as e:
            return e, f, p[read[-1]][0]
        prev.update((gid, label) for gid, label, _ in log.matches)
        logs.append(log)
    return tuple(logs)


@settings(max_examples=150, deadline=None)
@given(
    gt=st.lists(st.dictionaries(st.integers(0, 3), _segs, min_size=1), min_size=1, max_size=3),
    pred=st.lists(st.dictionaries(st.integers(0, 3), _segs), max_size=4),
)
def test_evaluate_mot_meets_the_refusal_a_per_pair_evaluation_met(gt, pred):
    gt_tracks = [Track(f"g{i}", [TrackState(f, 1.0, seg) for f, seg in sorted(t.items())]) for i, t in enumerate(gt)]
    pred_tracks = [Track(f"p{i}", [TrackState(f, 1.0, seg) for f, seg in sorted(t.items())]) for i, t in enumerate(pred)]
    want = _per_pair_mot(gt_tracks, pred_tracks)
    if isinstance(want, tuple) and len(want) == 3 and isinstance(want[0], Exception):
        error, frame, label = want
        with pytest.raises((OversizedPolygonError, SizeMismatchError)) as info:
            evaluate_mot(gt_tracks, pred_tracks)
        if isinstance(error, OversizedPolygonError):
            assert (type(info.value), str(info.value), info.value.operand) == (OversizedPolygonError, str(error), error.operand)
        else:  # the reference names both sizes, ground truth first
            gh, gw, ph, pw = map(int, re.fullmatch(r"dimension mismatch: (\d+)x(\d+) vs (\d+)x(\d+)", str(error)).groups())
            assert type(info.value) is SizeMismatchError
            assert str(info.value) == f"frame {frame}, label {label!r}: mask size {ph}x{pw} differs from the ground truth's {gh}x{gw}"
    else:
        assert evaluate_mot(gt_tracks, pred_tracks).per_frame_log == want


def test_evaluate_mot_compares_no_pair_the_matching_never_reads():
    # frame 1: g0 keeps its sticky match, so the 6 x 6 prediction meets no ground truth and is a false positive
    gt = [Track("g0", [TrackState(f, 1.0, _square(0, 0, 4)) for f in (0, 1)])]
    pred = [Track("p0", [TrackState(f, 1.0, _square(0, 0, 4)) for f in (0, 1)]),
            Track("p1", [TrackState(1, 1.0, _square(0, 0, 3, size=6))])]
    report = evaluate_mot(gt, pred)
    assert (report.false_negatives, report.false_positives, report.id_switches) == (0, 1, 0)
    # where the matching reads that pair, it is refused, named by frame and label
    gt[0] = Track("g0", [TrackState(0, 1.0, _square(0, 0, 4)), TrackState(1, 1.0, _square(4, 4, 4))])
    with pytest.raises(SizeMismatchError, match=r"^frame 1, label 'p1': mask size 6x6 differs from the ground truth's 8x8$"):
        evaluate_mot(gt, pred)


def _per_pair_coco(gt, preds, max_dets=100):
    """The first refusal of evaluate_coco_ap's IoUs, one reference call per pair, with the detection of its pair.

    Categories by id, then (image, category) keys, detections by score, ground truth in file order.
    """
    frames = image_frame_map(gt)
    cat_of = {c.name: c.id for c in gt.categories}
    dets = {}
    for idx, det in enumerate(preds):
        dets.setdefault((frames[det.frame].id, cat_of[det.label]), []).append((idx, det))
    anns = {}
    for ann in gt.annotations:
        anns.setdefault((ann.image_id, ann.category_id), []).append(ann)
    for cat in sorted(c.id for c in gt.categories):
        for key in sorted(k for k in {*dets, *anns} if k[1] == cat):
            for _, det in sorted(dets.get(key, []), key=lambda t: (-t[1].score, t[0]))[:max_dets]:
                for ann in anns.get(key, []):
                    try:
                        reference_segmentation_iou(det.segmentation, ann.segmentation)
                    except (OversizedPolygonError, ValueError) as e:
                        return e, det
    return None


@settings(max_examples=150, deadline=None)
@given(
    anns=st.lists(st.tuples(st.integers(1, 2), st.sampled_from("ab"), _segs), max_size=5),
    dets=st.lists(st.tuples(st.integers(0, 1), st.sampled_from("ab"), st.sampled_from([0.3, 0.6, 0.9]), _segs), max_size=6),
    max_dets=st.integers(1, 3),
)
def test_evaluate_coco_ap_meets_the_refusal_a_per_pair_evaluation_met(anns, dets, max_dets):
    ds = _ap_dataset(n_images=2, cats=("a", "b"))
    for k, (image_id, name, seg) in enumerate(anns):
        ds.annotations.append(CocoAnnotation(k + 1, image_id, "ab".index(name) + 1, seg, seg.bbox, seg.area, 0))
    preds = [DetectionRecord(frame, label, score, seg, seg.bbox) for frame, label, score, seg in dets]
    want = _per_pair_coco(ds, preds, max_dets)
    if want is None:
        evaluate_coco_ap(ds, preds, max_dets=max_dets)
        return
    error, det = want
    with pytest.raises((OversizedPolygonError, SizeMismatchError)) as info:
        evaluate_coco_ap(ds, preds, max_dets=max_dets)
    if isinstance(error, OversizedPolygonError):
        assert (type(info.value), str(info.value), info.value.operand) == (OversizedPolygonError, str(error), error.operand)
    else:  # the reference names both sizes, prediction first
        ph, pw, gh, gw = map(int, re.fullmatch(r"dimension mismatch: (\d+)x(\d+) vs (\d+)x(\d+)", str(error)).groups())
        assert type(info.value) is SizeMismatchError
        assert str(info.value) == f"frame {det.frame}, label {det.label!r}: mask size {ph}x{pw} differs from the ground truth's {gh}x{gw}"
