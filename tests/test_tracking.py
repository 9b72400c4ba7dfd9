from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segtrack import tracking
from segtrack.errors import OutOfRangeError, SchemaError
from segtrack.geometry import BoundingBox, Point, Polygon, mask_to_rle
from segtrack.tracking import (
    Bout,
    DetectionRecord,
    Track,
    TrackState,
    assemble_tracks,
    detect_novel_spots,
    filter_by_score,
    interpolate_gaps,
    read_tracks_csv,
    segment_bouts,
    tracks_to_detections,
    write_tracks_csv,
)

from _oracles import reference_assemble_tracks, reference_write_tracks_csv


def square(x, y, side=4.0):
    return Polygon.from_xy([(x, y), (x + side, y), (x + side, y + side), (x, y + side)])


def det(frame, label, score=0.9, x=0.0, y=0.0, side=4.0):
    return DetectionRecord(
        frame=frame,
        label=label,
        score=score,
        segmentation=square(x, y, side),
        bbox=BoundingBox(x, y, side, side),
    )


# ---------------------------------------------------------------------------
# score filtering


def test_filter_keeps_records_at_or_above_threshold():
    dets = [det(0, "vole_1", 0.9), det(0, "vole_2", 0.3)]
    assert filter_by_score(dets, 0.5) == [dets[0]]


def test_filter_zero_threshold_keeps_all():
    dets = [det(0, "a", 0.1), det(1, "b", 0.0)]
    assert filter_by_score(dets, 0.0) == dets


def test_filter_threshold_one_keeps_only_perfect():
    dets = [det(0, "a", 1.0), det(1, "b", 0.999)]
    assert filter_by_score(dets, 1.0) == [dets[0]]


def test_filter_rejects_bad_threshold():
    with pytest.raises(ValueError):
        filter_by_score([], 1.5)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0, 1), max_size=12), st.floats(0, 1))
def test_filter_idempotent(scores, threshold):
    dets = [det(i, f"a{i}", s) for i, s in enumerate(scores)]
    once = filter_by_score(dets, threshold)
    assert filter_by_score(once, threshold) == once


# ---------------------------------------------------------------------------
# duplicate resolution: assemble_tracks keeps one record per (label, frame)


def test_duplicates_keep_highest_score():
    a, b = det(3, "vole_1", 0.9), det(3, "vole_1", 0.4)
    assert assemble_tracks([b, a]) == assemble_tracks([a])


def test_duplicates_tie_breaks_on_area():
    big = det(3, "vole_1", 0.5, side=10)
    small = det(3, "vole_1", 0.5, side=5)
    assert assemble_tracks([small, big]) == assemble_tracks([big])


def test_duplicates_final_tie_keeps_first():
    first = det(3, "vole_1", 0.5, x=0)
    second = det(3, "vole_1", 0.5, x=50)
    assert assemble_tracks([first, second]) == assemble_tracks([first])


def test_duplicates_distinct_labels_unchanged():
    dets = [det(3, "vole_1"), det(3, "vole_2"), det(3, "vole_3")]
    assert assemble_tracks(dets) == [
        Track(d.label, [TrackState(3, score=d.score, segmentation=d.segmentation)]) for d in dets
    ]


def test_duplicates_resolved_per_frame():
    dets = [det(1, "a", 0.5, x=0), det(2, "a", 0.9, x=10), det(1, "a", 0.8, x=20), det(2, "a", 0.3, x=30)]
    assert assemble_tracks(dets) == assemble_tracks([dets[2], dets[1]])


def _assembly_stream(rng):
    """A random detection stream crowded into few labels and frames, with polygon and RLE masks of tied areas."""
    records = []
    for _ in range(rng.integers(0, 14)):
        frame, label = int(rng.integers(0, 4)), str(rng.choice(["a", "b", "c"]))
        score = float(rng.choice([0.2, 0.5, 0.5, 0.7, 1.0]))
        x, y, side = int(rng.integers(0, 8)), int(rng.integers(0, 8)), int(rng.choice([2, 2, 3]))
        if rng.random() < 0.5:
            seg = square(x, y, side)
        else:
            mask = np.zeros((12, 12), dtype=bool)
            mask[y : y + side, x : x + side] = True
            seg = mask_to_rle(mask)
        records.append(DetectionRecord(frame=frame, label=label, score=score, segmentation=seg, bbox=seg.bbox))
    return records


def test_assembly_equals_per_frame_oracle():
    rng = np.random.default_rng(11)
    seen = {"collision": 0, "score_tie": 0, "full_tie": 0}
    for _ in range(1200):
        records = _assembly_stream(rng)
        threshold = float(rng.choice([0.0, 0.5]))
        assert assemble_tracks(filter_by_score(records, threshold)) == reference_assemble_tracks(records, threshold)
        cells = {}
        for r in filter_by_score(records, threshold):
            cells.setdefault((r.label, r.frame), []).append(r)
        for group in cells.values():
            top = [r for r in group if r.score == max(g.score for g in group)]
            seen["collision"] += len(group) > 1
            seen["score_tie"] += len(top) > 1
            seen["full_tie"] += len({r.segmentation.area for r in top}) < len(top)
    assert min(seen.values()) >= 200, seen


# ---------------------------------------------------------------------------
# track assembly


def test_assemble_single_label():
    dets = [det(0, "vole_1"), det(1, "vole_1"), det(2, "vole_1")]
    (track,) = assemble_tracks(dets)
    assert track.label == "vole_1"
    assert track.present_frames() == [0, 1, 2]
    assert all(not s.interpolated for s in track.states)


def test_assemble_two_labels_with_gap():
    dets = [
        det(0, "vole_1"), det(1, "vole_1"), det(2, "vole_1"),
        det(0, "vole_2"), det(2, "vole_2"),
    ]
    t1, t2 = assemble_tracks(dets)
    assert (t1.label, t2.label) == ("vole_1", "vole_2")
    assert t2.present_frames() == [0, 2]
    assert {s.frame: s for s in t2.states}.get(1) is None


def test_assemble_empty():
    assert assemble_tracks([]) == []


def test_assemble_duplicate_frame_label_keeps_first():
    first, second = det(0, "vole_1"), det(0, "vole_1")
    (track,) = assemble_tracks([first, second])
    assert track.states[0].segmentation is first.segmentation


def test_assemble_centroid_comes_from_segmentation():
    (track,) = assemble_tracks([det(0, "a", x=10, y=20, side=4)])
    assert track.states[0].centroid == pytest.approx((12.0, 22.0))


def test_state_centroid_is_its_segmentations():
    seg = square(10, 20)
    state = TrackState(0, segmentation=seg)
    assert state.centroid == seg.centroid == Point(12.0, 22.0)
    with pytest.raises(ValueError):
        TrackState(0, segmentation=seg, point=Point(12.0, 22.0))
    assert TrackState(0, point=Point(1.0, 2.0)).centroid == Point(1.0, 2.0)
    assert TrackState(0).centroid is None


def test_tracks_roundtrip_through_detections():
    dets = [det(0, "a"), det(1, "a", x=3), det(0, "b", x=20), det(2, "b", x=24)]
    tracks = assemble_tracks(dets)
    assert assemble_tracks(tracks_to_detections(tracks)) == tracks


# ---------------------------------------------------------------------------
# gap interpolation


def _sparse_track(frames_and_centroids):
    return Track(
        "a",
        [
            TrackState(frame=f, score=1.0, point=Point(*c))
            for f, c in frames_and_centroids
        ],
    )


def test_interpolate_fills_single_gap():
    t = interpolate_gaps(_sparse_track([(0, (0, 0)), (2, (2, 2))]), max_gap=1)
    s = {s.frame: s for s in t.states}.get(1)
    assert s is not None and s.interpolated
    assert s.centroid == Point(1.0, 1.0)
    assert s.segmentation is None and s.score is None


def test_interpolate_zero_max_gap_is_identity():
    src = _sparse_track([(0, (0, 0)), (2, (2, 2))])
    assert interpolate_gaps(src, 0) == src


def test_interpolate_skips_long_gaps():
    src = _sparse_track([(0, (0, 0)), (6, (6, 6))])
    assert interpolate_gaps(src, 3) == src


def test_interpolate_never_touches_original_states():
    src = _sparse_track([(0, (0, 0)), (3, (6, 0)), (10, (0, 0))])
    out = interpolate_gaps(src, 2)
    for s in src.states:
        assert {o.frame: o for o in out.states}.get(s.frame) == s
    assert [s.frame for s in out.states if s.interpolated] == [1, 2]


def test_interpolate_gap_boundaries_not_extended():
    # nothing is invented before the first or after the last detection
    out = interpolate_gaps(_sparse_track([(5, (0, 0)), (7, (2, 2))]), 5)
    at = {s.frame: s for s in out.states}
    assert at.get(4) is None and at.get(8) is None


# ---------------------------------------------------------------------------
# novel spot detection


def spot_det(frame, x, y):
    return det(frame, "mark", 1.0, x=x - 2, y=y - 2, side=4)  # centroid lands on (x, y)


def test_spot_confirmed_after_persistence_frames():
    dets = [spot_det(f, 10, 10) for f in range(1, 6)]
    (event,) = detect_novel_spots(dets, min_dist=20, persistence=3)
    assert event.first_frame == 1
    assert event.confirmed_frame == 3
    assert event.location == pytest.approx((10, 10))


def test_second_distant_spot_confirmed_separately():
    dets = [spot_det(f, 10, 10) for f in range(1, 6)]
    dets += [spot_det(f, 100, 100) for f in range(6, 9)]
    events = detect_novel_spots(dets, min_dist=20, persistence=3)
    assert len(events) == 2
    assert events[1].first_frame == 6
    assert events[1].confirmed_frame == 8


def test_redetection_near_confirmed_spot_is_ignored():
    dets = [spot_det(f, 10, 10) for f in range(1, 6)]
    dets += [spot_det(f, 12, 11) for f in range(10, 20)]
    events = detect_novel_spots(dets, min_dist=20, persistence=3)
    assert len(events) == 1


def test_spot_same_frame_detections_count_once():
    dets = [spot_det(1, 10, 10), spot_det(1, 10, 10), spot_det(2, 10, 10)]
    assert detect_novel_spots(dets, min_dist=20, persistence=3) == []


def test_spot_persistence_one_confirms_immediately():
    (event,) = detect_novel_spots([spot_det(4, 30, 30)], min_dist=10, persistence=1)
    assert event.first_frame == event.confirmed_frame == 4


def test_spot_argument_validation():
    with pytest.raises(ValueError):
        detect_novel_spots([], min_dist=0)
    with pytest.raises(ValueError):
        detect_novel_spots([], min_dist=5, persistence=0)


# ---------------------------------------------------------------------------
# bout segmentation


def test_bouts_plain_runs():
    assert segment_bouts(["H", "H", "H", "L", "L"], 1) == [Bout("H", 0, 2), Bout("L", 3, 4)]


def test_bouts_absorb_short_flicker():
    assert segment_bouts(["H", "H", "L", "H", "H"], 2) == [Bout("H", 0, 4)]


def test_bouts_empty_input():
    assert segment_bouts([], 3) == []


def test_bouts_leading_short_run_dropped():
    assert segment_bouts(["L", "H", "H", "H"], 2) == [Bout("H", 1, 3)]


def test_bouts_cover_full_span_when_min_duration_one():
    rng = np.random.default_rng(4)
    labels = [rng.choice(["a", "b", "c"]) for _ in range(60)]
    bouts = segment_bouts(labels, 1)
    assert bouts[0].start_frame == 0
    assert bouts[-1].end_frame == 59
    for prev, nxt in zip(bouts, bouts[1:]):
        assert nxt.start_frame == prev.end_frame + 1  # no overlap, no gap


def test_bouts_validation():
    with pytest.raises(ValueError):
        segment_bouts(["a"], 0)


# ---------------------------------------------------------------------------
# CSV interchange


def test_tracks_csv_roundtrip():
    tracks = assemble_tracks(
        [det(0, "a"), det(1, "a", x=3), det(3, "a", x=9), det(1, "b", x=30)]
    )
    data = write_tracks_csv(tracks)
    back = read_tracks_csv(data)
    assert [t.label for t in back] == ["a", "b"]
    assert back[0].present_frames() == [0, 1, 3]
    assert back[1].present_frames() == [1]
    orig = {s.frame: s for s in tracks[0].states}.get(1)
    again = {s.frame: s for s in back[0].states}.get(1)
    assert again.centroid == pytest.approx(orig.centroid, abs=1e-3)


def test_tracks_csv_covers_full_span():
    tracks = assemble_tracks([det(0, "a"), det(2, "a", x=4)])
    text = write_tracks_csv(tracks).decode()
    rows = text.strip().splitlines()
    assert rows[0] == "frame,label,present,cx,cy,score,interpolated"
    assert len(rows) == 4  # frames 0, 1, 2
    assert rows[2].startswith("1,a,false,")


def test_tracks_csv_deterministic():
    tracks = assemble_tracks([det(0, "a"), det(1, "b", x=8)])
    assert write_tracks_csv(tracks) == write_tracks_csv(tracks)


def test_tracks_csv_gaps_absent_and_interpolated_states():
    b = Track("b", [
        TrackState(5, score=0.5, point=Point(1.0, 2.0)),
        TrackState(2, point=Point(0.5, 0.25)),
        TrackState(4, interpolated=True, point=Point(0.75, 1.125)),
    ])
    a = Track("a", [TrackState(3, score=0.25), TrackState(6, score=1.0, point=Point(9.0, 9.5))])
    empty = Track("c", [])
    assert write_tracks_csv([b, empty, a]).decode() == "\n".join([
        "frame,label,present,cx,cy,score,interpolated",
        "2,a,false,,,,false", "2,b,true,0.5000,0.2500,,false", "2,c,false,,,,false",
        "3,a,true,,,0.250000,false", "3,b,false,,,,false", "3,c,false,,,,false",
        "4,a,false,,,,false", "4,b,true,0.7500,1.1250,,true", "4,c,false,,,,false",
        "5,a,false,,,,false", "5,b,true,1.0000,2.0000,0.500000,false", "5,c,false,,,,false",
        "6,a,true,9.0000,9.5000,1.000000,false", "6,b,false,,,,false", "6,c,false,,,,false",
    ]) + "\n"


def _random_tracks(rng):
    """Tracks with awkward labels, gaps, empty tracks, masks, and interpolated states lacking a centroid or score."""
    labels = ["a", "b,c", 'say "hi"', "two\nlines", "", "cr\r", " pad ", "\u00e9t\u00e9", "z"]
    tracks = []
    for label in rng.choice(labels, size=int(rng.integers(0, 5)), replace=False):
        frames = sorted(set(int(f) for f in rng.integers(0, 12, size=int(rng.integers(0, 7)))))
        states = []
        for f in frames:
            kind = rng.integers(0, 4)
            score = [None, 0.0, 1.0, float(rng.random())][rng.integers(0, 4)]
            if kind == 0:
                states.append(TrackState(f, score=score, segmentation=square(float(rng.integers(0, 50)), 3.5)))
            elif kind == 1:
                states.append(TrackState(f, score=score, point=Point(float(rng.normal(0, 100)), float(rng.random()))))
            else:
                point = None if kind == 2 else Point(float(rng.random()), -float(rng.random()))
                states.append(TrackState(f, score=score, interpolated=bool(rng.random() < 0.7), point=point))
        tracks.append(Track(str(label), states))
    return tracks


def test_tracks_csv_equals_per_cell_oracle():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        tracks = _random_tracks(rng)
        assert write_tracks_csv(tracks) == reference_write_tracks_csv(tracks)


def test_tracks_csv_row_limit_checked_before_formatting(monkeypatch):
    tracks = [Track("a", [TrackState(0, score=1.0)]), Track("b", [TrackState(10**12, score=1.0)])]
    with pytest.raises(OutOfRangeError) as e:
        write_tracks_csv(tracks)
    assert str(e.value) == (
        "track CSV would have 2000000000002 rows (frames 0 to 1000000000000, labels: 2), more than the limit of 20000000"
    )
    monkeypatch.setattr(tracking, "_MAX_ROWS", 6)
    assert write_tracks_csv([Track("a", [TrackState(0)]), Track("b", [TrackState(2)])]).count(b"\n") == 7
    with pytest.raises(OutOfRangeError, match=r"^track CSV would have 8 rows \(frames 0 to 3, labels: 2\), "):
        write_tracks_csv([Track("a", [TrackState(0)]), Track("b", [TrackState(3)])])


_CSV_HEAD = "frame,label,present,cx,cy,score,interpolated\n0,a,true,1.0,2.0,0.9,false\n"


@pytest.mark.parametrize(
    "text,message",
    [
        (_CSV_HEAD + "1,a,true,1.0,2.0\n", "line 3: not enough values to unpack (expected 7, got 5)"),
        (_CSV_HEAD + "1,a,yes,1.0,2.0,0.9,false\n", "line 3: present must be true or false, got 'yes'"),
        (_CSV_HEAD + "one,a,true,1.0,2.0,0.9,false\n", "line 3: invalid literal for int() with base 10: 'one'"),
        (_CSV_HEAD + "1,a,true,1.0,,0.9,false\n", "line 3: could not convert string to float: ''"),
        (_CSV_HEAD.replace("\n", "\r", 1), "line 1: new-line character seen in unquoted field"),
        ("frame,label\n", "line 1: unexpected header ['frame', 'label']"),
        (_CSV_HEAD + "0,a,true,3.0,4.0,0.8,false\n", "track 'a' has two states at frame 0"),
        (_CSV_HEAD + "1,a,true,nan,1,0.5,false\n", "line 3: cx, cy and score must be finite, got 'nan', '1', '0.5'"),
        (_CSV_HEAD + "1,a,true,1,-inf,0.5,false\n", "line 3: cx, cy and score must be finite, got '1', '-inf', '0.5'"),
        (_CSV_HEAD + "1,a,true,,,NaN,false\n", "line 3: cx, cy and score must be finite, got '', '', 'NaN'"),
        (_CSV_HEAD + "1,a,true,1,1,0.5,maybe\n", "line 3: interpolated must be true or false, got 'maybe'"),
        (_CSV_HEAD + "1,a,false,,,,\n", "line 3: interpolated must be true or false, got ''"),
        (_CSV_HEAD + "xyz,a,false,,,,false\n", "line 3: invalid literal for int() with base 10: 'xyz'"),
        (_CSV_HEAD + "1,a,false,5,6,0.3,false\n",
         "line 3: an absent row must have empty cx, cy and score and interpolated false, got '5', '6', '0.3', 'false'"),
        (_CSV_HEAD + "1,a,false,,,,true\n",
         "line 3: an absent row must have empty cx, cy and score and interpolated false, got '', '', '', 'true'"),
    ],
    ids=["short-row", "bad-present", "bad-frame", "empty-cy", "carriage-return", "bad-header", "repeated-frame",
         "nan-cx", "infinite-cy", "nan-score", "bad-interpolated", "absent-empty-interpolated",
         "absent-bad-frame", "absent-with-values", "absent-interpolated"],
)
def test_tracks_csv_malformed_row_names_line(text, message):
    with pytest.raises(SchemaError) as e:
        read_tracks_csv(text)
    assert str(e.value).startswith(message)
