from __future__ import annotations

import ast
import itertools
import json
import random

import pytest

from segtrack.analytics import (
    InteractionEvent,
    TrajectoryStats,
    ZoneDefinition,
    ZoneStats,
    distance_traveled,
    emit_report,
    interaction_events,
    label_color,
    plot_trajectories,
    track_stats,
    zone_occupancy,
)
from segtrack.errors import MissingDataError
from segtrack.geometry import Point, Polygon
from segtrack.metrics import ApReport, ApRow, MotConfig, MotReport, evaluate_mot
from segtrack.tracking import Track, TrackState

from _oracles import reference_interaction_events


def track_from_centroids(label, frame_centroids):
    return Track(label, [TrackState(frame=f, score=1.0, point=Point(*c)) for f, c in frame_centroids])


def track_of_mask(label, frames, seg):
    return Track(label, [TrackState(frame=f, score=1.0, segmentation=seg) for f in frames])


def square(x, y, side=4.0):
    return Polygon.from_xy([(x, y), (x + side, y), (x + side, y + side), (x, y + side)])


# ---------------------------------------------------------------------------
# distance


def test_distance_345():
    t = track_from_centroids("a", [(0, (0, 0)), (1, (3, 4))])
    assert distance_traveled(t) == 5.0


def test_distance_single_state():
    assert distance_traveled(track_from_centroids("a", [(0, (1, 1))])) == 0.0


def test_distance_zero_step_ignored():
    t = track_from_centroids("a", [(0, (0, 0)), (1, (3, 4)), (2, (3, 4))])
    assert distance_traveled(t) == 5.0


def test_distance_gap_contributes_straight_line():
    t = track_from_centroids("a", [(0, (0, 0)), (5, (3, 4))])
    assert distance_traveled(t) == 5.0


def test_distance_scale():
    t = track_from_centroids("a", [(0, (0, 0)), (1, (3, 4))])
    assert distance_traveled(t, px_per_unit=5.0) == 1.0


def test_distance_translation_invariant():
    base = [(0, (0, 0)), (1, (2, 5)), (2, (9, 1))]
    shifted = [(f, (x + 100, y - 40)) for f, (x, y) in base]
    assert distance_traveled(track_from_centroids("a", base)) == pytest.approx(
        distance_traveled(track_from_centroids("a", shifted))
    )


def test_track_stats_mean_speed_over_span():
    t = track_from_centroids("a", [(0, (0, 0)), (4, (8, 0))])
    stats = track_stats(t)
    assert stats == TrajectoryStats("a", 8.0, 2, 2.0)


# ---------------------------------------------------------------------------
# zones


ARENA_LEFT = ZoneDefinition("left", Polygon.from_xy([(0, 0), (50, 0), (50, 100), (0, 100)]))
ARENA_RIGHT = ZoneDefinition("right", Polygon.from_xy([(50, 0), (100, 0), (100, 100), (50, 100)]))


def test_zone_full_occupancy():
    t = track_from_centroids("a", [(f, (10, 10)) for f in range(5)])
    occ = zone_occupancy(t, [ARENA_LEFT, ARENA_RIGHT])
    assert occ["left"] == ZoneStats(5, 1.0)
    assert occ["right"].frames == 0
    assert occ["outside"].frames == 0


def test_zone_outside_bucket():
    t = track_from_centroids("a", [(0, (200, 200))])
    occ = zone_occupancy(t, [ARENA_LEFT])
    assert occ["outside"] == ZoneStats(1, 1.0)


def test_zone_fraction_ratio():
    states = [(f, (10, 10)) for f in range(4)] + [(f, (80, 10)) for f in range(4, 10)]
    occ = zone_occupancy(track_from_centroids("a", states), [ARENA_LEFT, ARENA_RIGHT])
    assert occ["left"] == ZoneStats(4, 0.4)
    assert occ["right"] == ZoneStats(6, 0.6)


def test_zone_first_listed_wins_on_overlap():
    big = ZoneDefinition("big", Polygon.from_xy([(0, 0), (100, 0), (100, 100), (0, 100)]))
    t = track_from_centroids("a", [(0, (10, 10))])
    occ = zone_occupancy(t, [ARENA_LEFT, big])
    assert occ["left"].frames == 1 and occ["big"].frames == 0


def test_zone_fractions_sum_to_one():
    states = [(f, (float(f * 11 % 120), 10.0)) for f in range(13)]
    occ = zone_occupancy(track_from_centroids("a", states), [ARENA_LEFT, ARENA_RIGHT])
    assert sum(z.fraction for z in occ.values()) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# interactions


def test_interaction_centroid_distance_run():
    a_states = [(f, (0, 0)) for f in range(30)]
    b_states = [(f, (3, 0) if 10 <= f <= 20 else (50, 0)) for f in range(30)]
    events = interaction_events(
        [track_from_centroids("a", a_states), track_from_centroids("b", b_states)],
        criterion="centroid_distance",
        threshold=5.0,
        min_duration=5,
    )
    assert events == [InteractionEvent(("a", "b"), 10, 20, "centroid_distance")]


def test_interaction_short_run_dropped():
    a_states = [(f, (0, 0)) for f in range(10)]
    b_states = [(f, (3, 0) if 4 <= f <= 6 else (50, 0)) for f in range(10)]
    events = interaction_events(
        [track_from_centroids("a", a_states), track_from_centroids("b", b_states)],
        threshold=5.0,
        min_duration=5,
    )
    assert events == []


def test_interaction_absent_partner_no_events():
    a = track_from_centroids("a", [(f, (0, 0)) for f in range(10)])
    b = track_from_centroids("b", [(f + 100, (0, 0)) for f in range(10)])
    assert interaction_events([a, b], threshold=5.0) == []


def test_interaction_symmetric():
    a_states = [(f, (0, 0)) for f in range(20)]
    b_states = [(f, (2, 0) if f % 7 < 4 else (50, 0)) for f in range(20)]
    a = track_from_centroids("a", a_states)
    b = track_from_centroids("b", b_states)
    assert interaction_events([a, b], threshold=5.0) == interaction_events([b, a], threshold=5.0)


def test_interaction_mask_iou_criterion():
    seg_a = square(0, 0, 10)
    seg_b = square(2, 0, 10)
    a = track_of_mask("a", range(6), seg_a)
    b = track_of_mask("b", range(6), seg_b)
    events = interaction_events([a, b], criterion="mask_iou", threshold=0.1, min_duration=2)
    assert events == [InteractionEvent(("a", "b"), 0, 5, "mask_iou")]


def test_interaction_mask_iou_missing_segmentation_names_frames():
    a = track_of_mask("a", [0, 1], square(0, 0))
    b = track_from_centroids("b", [(0, (0, 0)), (1, (0, 0))])  # no masks
    with pytest.raises(MissingDataError, match=r"\[0, 1\]"):
        interaction_events([a, b], criterion="mask_iou", threshold=0.1)


def test_interaction_identical_labels_rejected():
    a = track_from_centroids("a", [(0, (0, 0))])
    b = track_from_centroids("a", [(0, (0, 0))])
    with pytest.raises(ValueError):
        interaction_events([a, b], threshold=1.0)


def test_interaction_gap_in_presence_splits_runs():
    a_states = [(f, (0, 0)) for f in (0, 1, 2, 5, 6, 7)]
    b_states = [(f, (1, 0)) for f in (0, 1, 2, 5, 6, 7)]
    events = interaction_events(
        [track_from_centroids("a", a_states), track_from_centroids("b", b_states)],
        threshold=5.0,
        min_duration=2,
    )
    assert [(e.start_frame, e.end_frame) for e in events] == [(0, 2), (5, 7)]


@pytest.mark.parametrize("n", [0, 1])
def test_interaction_fewer_than_two_tracks_give_no_events(n):
    tracks = [track_from_centroids("a", [(f, (0, 0)) for f in range(5)])][:n]
    assert interaction_events(tracks, threshold=5.0) == []
    assert interaction_events(tracks, criterion="mask_iou", threshold=0.5) == []  # one track needs no masks


def random_tracks(rng, masks=False):
    """2-6 tracks in shuffled order over ten frames, with absences and, per state, a small-grid centroid or mask.

    Without ``masks`` some states have no centroid; with it a few states lack their mask.  Ten
    frames keep every message's frame list whole, since ``brief_list`` cuts after ten.
    """
    tracks = []
    for label in rng.sample(["a", "b", "c", "vole_10", "vole_2", "Z"], rng.randint(2, 6)):
        states = []
        for f in range(10):
            if rng.random() < 0.3:
                continue
            x, y = rng.randint(0, 6), rng.randint(0, 6)
            if masks and rng.random() < 0.97:
                states.append(TrackState(frame=f, score=1.0, segmentation=square(x, y)))
            elif not masks and rng.random() < 0.85:
                states.append(TrackState(frame=f, score=1.0, point=Point(x, y)))
            else:
                states.append(TrackState(frame=f, score=1.0))
        tracks.append(Track(label, states))
    return tracks


def pairwise_events(tracks, **kwargs):
    """The sorted union of the per-pair oracle over every pair of tracks."""
    events = [e for a, b in itertools.combinations(tracks, 2) for e in reference_interaction_events(a, b, **kwargs)]
    return sorted(events, key=lambda e: (e.start_frame, e.labels))


def test_interaction_sweep_equals_pairwise_oracle():
    rng = random.Random(0)
    for _ in range(1000):
        tracks = random_tracks(rng)
        kwargs = dict(threshold=rng.choice([1.0, 2.5, 4.0]), min_duration=rng.randint(1, 4))
        assert interaction_events(tracks, **kwargs) == pairwise_events(tracks, **kwargs)


def test_interaction_sweep_equals_pairwise_oracle_on_masks():
    rng = random.Random(1)
    outcomes = {"events": 0, "missing": 0}
    for _ in range(200):
        tracks = random_tracks(rng, masks=True)
        kwargs = dict(criterion="mask_iou", threshold=rng.choice([0.1, 0.3, 0.6]), min_duration=rng.randint(1, 4))
        missing = set()  # the union of the frames each pair's oracle names
        for a, b in itertools.combinations(tracks, 2):
            try:
                reference_interaction_events(a, b, **kwargs)
            except MissingDataError as e:
                missing |= set(ast.literal_eval(str(e).split(": ", 1)[1]))
        if missing:
            outcomes["missing"] += 1
            with pytest.raises(MissingDataError) as info:
                interaction_events(tracks, **kwargs)
            assert str(info.value) == f"frames missing segmentation for mask IoU: {sorted(missing)}"
        else:
            outcomes["events"] += 1
            assert interaction_events(tracks, **kwargs) == pairwise_events(tracks, **kwargs)
    assert min(outcomes.values()) >= 40


# ---------------------------------------------------------------------------
# report emission


MICE_ROW = ApRow("mice", 79.906, 97.006, 93.182, None, 79.906, 0.0)


def test_emit_ap_report_benchmark_row_bytes():
    report = ApReport(rows=(MICE_ROW,))
    data = emit_report(report, format="csv")
    assert data.decode().splitlines() == [
        "category,AP,AP50,AP75,APS,APM,APL",
        "mice,79.906,97.006,93.182,-,79.906,0.000",
    ]


def test_emit_empty_report_header_only():
    assert emit_report(ApReport(rows=()), format="csv").decode() == "category,AP,AP50,AP75,APS,APM,APL\n"


def test_emit_json_roundtrip():
    report = ApReport(rows=(MICE_ROW,))
    payload = json.loads(emit_report(report, format="json"))
    assert payload == [
        {"category": "mice", "AP": 79.906, "AP50": 97.006, "AP75": 93.182,
         "APS": None, "APM": 79.906, "APL": 0.0}
    ]


def test_emit_mot_report_csv():
    gt = [track_of_mask("v", range(4), square(0, 0))]
    report = evaluate_mot(gt, gt, MotConfig())
    data = emit_report(report, format="csv", name="clip1").decode()
    lines = data.splitlines()
    assert lines[0] == "video,n_frames,n_gt,fn,fp,ids,mota,motp"
    assert lines[1] == "clip1,4,4,0,0,0,1.000000,1.000000"


def test_emit_stats_csv():
    stats = [TrajectoryStats("a", 12.3456, 10, 1.23456)]
    data = emit_report(stats, format="csv").decode()
    assert data.splitlines()[1] == "a,12.346,10,1.235"


def test_emit_report_quotes_labels_as_the_csv_module_does():
    stats = [TrajectoryStats("a,b", 2.0, 2, 1.0), TrajectoryStats('q"t', 0.0, 1, 0.0), TrajectoryStats("x<&y", 0.0, 1, 0.0)]
    assert emit_report(stats, format="csv") == (
        b'label,distance_traveled,frames_present,mean_speed\n"a,b",2.000,2,1.000\n"q""t",0.000,1,0.000\n'
        b"x<&y,0.000,1,0.000\n"
    )
    row = ApRow("a,b", 1.0, 1.0, 1.0, None, 1.0, None)
    assert emit_report(ApReport(rows=(row,)), format="csv") == (
        b'category,AP,AP50,AP75,APS,APM,APL\n"a,b",1.000,1.000,1.000,-,1.000,-\n'
    )
    gt = [track_of_mask("v", range(2), square(0, 0))]
    assert emit_report(evaluate_mot(gt, gt, MotConfig()), format="csv", name="clip,1").splitlines()[1] == (
        b'"clip,1",2,2,0,0,0,1.000000,1.000000'
    )


def test_emit_deterministic():
    report = ApReport(rows=(MICE_ROW,))
    assert emit_report(report) == emit_report(report)


def test_emit_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit_report(ApReport(rows=()), format="xml")


# ---------------------------------------------------------------------------
# plotting


def _four_tracks():
    return [
        track_from_centroids(f"vole_{i}", [(f, (10.0 * i + f, 5.0 * i)) for f in range(8)])
        for i in range(1, 5)
    ]


def test_plot_four_tracks_four_polylines():
    svg = plot_trajectories(_four_tracks(), 100, 60).decode()
    assert svg.count("<polyline") == 4
    for i in range(1, 5):
        assert f">vole_{i}</text>" in svg


def test_plot_deterministic_bytes():
    assert plot_trajectories(_four_tracks(), 100, 60) == plot_trajectories(_four_tracks(), 100, 60)


def test_plot_single_state_draws_dot():
    t = track_from_centroids("solo", [(0, (5, 5))])
    svg = plot_trajectories([t], 50, 50).decode()
    assert "<circle" in svg and "<polyline" not in svg


def test_plot_empty_has_legend_header():
    svg = plot_trajectories([], 50, 50).decode()
    assert ">tracks</text>" in svg
    assert svg.startswith("<svg")


def test_plot_viewbox_matches_arena():
    svg = plot_trajectories([], 320, 240).decode()
    assert 'viewBox="0 0 320 240"' in svg


def test_plot_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        plot_trajectories([], 0, 50)


def test_label_color_stable():
    assert label_color("vole_1") == label_color("vole_1")
    assert label_color("vole_1").startswith("#")
