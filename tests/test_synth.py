from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from segtrack import cli, geometry
from segtrack.errors import ConfigError
from segtrack.formats import write_coco
from segtrack.geometry import RleMask, mask_to_rle, rle_iou, rle_to_mask
from segtrack.metrics import MotConfig, evaluate_mot
from segtrack.synth import (
    InjectionLog,
    PerturbationConfig,
    ScenarioConfig,
    disc_mask,
    disc_masks,
    generate_scenario,
    perturb,
)
from segtrack.tracking import Track, TrackState, assemble_tracks, tracks_to_detections

from _oracles import reference_disc_mask

WELL_SEPARATED = ScenarioConfig(
    n_animals=3,
    n_frames=40,
    arena=(128, 128),
    body_radius=6.0,
    speed_max=3.0,
    min_separation=17.0,  # > 2 * body_radius + 6 * noise std used below
    seed=5,
)


# ---------------------------------------------------------------------------
# disc rasterization


def test_disc_matches_dense_pixel_rule():
    rng = np.random.default_rng(2)
    for _ in range(40):
        h, w = 48, 64
        cx, cy = rng.uniform(0, w), rng.uniform(0, h)
        r = rng.uniform(1, 12)
        rle, bbox = disc_mask(cx, cy, r, h, w)
        ys, xs = np.mgrid[0:h, 0:w]
        want = (xs + 0.5 - cx) ** 2 + (ys + 0.5 - cy) ** 2 <= r * r
        assert np.array_equal(rle_to_mask(rle), want)
        if want.any():
            rows, cols = np.nonzero(want)
            assert bbox == (
                cols.min(), rows.min(),
                cols.max() - cols.min() + 1, rows.max() - rows.min() + 1,
            )


def test_disc_outside_grid_is_empty():
    rle, bbox = disc_mask(500, 500, 5, 32, 32)
    assert rle.area == 0
    assert bbox == (0, 0, 0, 0)


def test_disc_rle_is_canonical():
    rle, _ = disc_mask(10.3, 12.7, 5.0, 32, 32)
    assert rle == mask_to_rle(rle_to_mask(rle))


def _assert_batch_equals_oracle(cxs, cys, r, h, w):
    """``disc_masks`` gives the oracle's counts, and hands over the area, centroid and bbox a fresh mask derives."""
    masks = disc_masks(cxs, cys, r, h, w)
    assert len(masks) == len(cxs)
    for mask, cx, cy in zip(masks, cxs, cys):
        want, want_bbox = reference_disc_mask(cx, cy, r, h, w)
        assert mask.counts == want.counts
        assert {"area", "_centroid_and_bbox"} <= mask.__dict__.keys()  # handed over, not derived
        assert "runs" not in mask.__dict__
        fresh = RleMask(h, w, want.counts)
        assert mask.runs == fresh.runs
        assert type(mask.area) is int and mask.area == fresh.area
        assert mask._centroid_and_bbox == fresh._centroid_and_bbox
        assert mask.bbox == want_bbox
        assert (mask == fresh, hash(mask), repr(mask)) == (True, hash(fresh), repr(fresh))
    return masks


def _centers(lo, hi):
    # half-pixel steps put pixel centers exactly on the circle
    return st.one_of(st.floats(lo, hi), st.integers(int(2 * lo), int(2 * hi)).map(lambda k: k / 2))


@st.composite
def _disc_batches(draw):
    h, w = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    r = draw(st.one_of(st.just(1.0), st.integers(1, 16).map(float), st.floats(1.0, 16.0)))
    n = draw(st.integers(0, 10))
    cxs = draw(st.lists(_centers(-r - 4, w + r + 4), min_size=n, max_size=n))
    cys = draw(st.lists(_centers(-r - 4, h + r + 4), min_size=n, max_size=n))
    return cxs, cys, r, h, w


@settings(max_examples=300, deadline=None)
@given(_disc_batches())
@example(([], [], 3.0, 8, 8))
@example(([40.0, -6.0, 4.0], [4.0, 4.0, -5.5], 5.0, 8, 8))  # off the frame: all empty
@example(([3.0, 0.0, 8.0], [-0.5, 8.5, 4.0], 1.0, 8, 8))  # clipped to empty, radius 1.0 on the pixel grid
@example(([4.0, 0.3], [1.5, 2.0], 5.0, 3, 9))  # full-height columns, whose runs merge
@example(([1.0], [1.0], 40.0, 2, 2))  # one run covers the frame, no trailing zeros
@example(([2.7, 5.2], [3.1, 0.4], 2.35, 6, 7))  # non-integer radius
def test_disc_masks_equal_per_disc_oracle(batch):
    _assert_batch_equals_oracle(*batch)


def test_disc_masks_corpus_across_chunks():
    """A seeded corpus spanning several chunks, with every kind of disc the batch must get right."""
    rng = np.random.default_rng(12)
    seen = dict(off_frame=0, empty=0, merged=0, radius_one=0, fractional=0)
    for r, h, w, n in [(1.0, 9, 11, 400), (2.35, 16, 16, 400), (5.5, 7, 20, 400), (8.0, 40, 30, 2600), (13.7, 5, 5, 300)]:
        cxs = rng.uniform(-r - 3, w + r + 3, n)
        cys = rng.uniform(-r - 3, h + r + 3, n)
        cxs[::3] = np.round(cxs[::3] * 2) / 2
        cys[::3] = np.round(cys[::3] * 2) / 2
        masks = _assert_batch_equals_oracle(cxs, cys, r, h, w)
        seen["off_frame"] += int(np.sum((cxs < 0) | (cxs >= w) | (cys < 0) | (cys >= h)))
        seen["empty"] += sum(m.area == 0 for m in masks)
        # merged runs: fewer one-runs than the columns the mask touches
        seen["merged"] += sum(0 < len(m.runs[0]) < m.bbox.w for m in masks)
        seen["radius_one"] += n * (r == 1.0)
        seen["fractional"] += n * (not r.is_integer())
    assert min(seen.values()) >= 100, seen


def test_disc_masks_of_a_wide_frame_hand_over_no_wrapped_centroid():
    # the column-index sum of this disc passes 2^63, so the batch leaves its
    # centroid to the mask, which derives it in exact ints
    w, h, r = 2**40, 2**20, 500000
    (m,) = disc_masks([w - r - 2.0], [h / 2], r, h, w)
    fresh = RleMask(h, w, m.counts)
    assert (m.area, m.centroid, m.bbox) == (fresh.area, fresh.centroid, fresh.bbox)
    assert abs(m.centroid.x - (w - r - 2.0)) < 1.0


def test_disc_masks_reject_bad_centers():
    with pytest.raises(ValueError):
        disc_masks([1.0, 2.0], [1.0], 2.0, 8, 8)
    with pytest.raises(ValueError):
        disc_masks([float("nan")], [1.0], 2.0, 8, 8)


# the four files of a radius-1.0 scenario whose jitter is rejected and
# halved 112 times, as the per-disc rasterizer wrote them
HALVING_ARGS = ["--width", 32, "--height", 32, "--radius", 1.0, "--noise", 3.0, "--animals", 3, "--frames", 200,
                "--p-fp", 0.5, "--p-fn", 0.05, "--n-ids", 1, "--seed", 3, "--perturb-seed", 4]
HALVING_SHA256 = {
    "gt.json": "edaad3295a7abc76c0734497db89645c4b73f4170ca01acb85be61aa7f4f4477",
    "gt_tracks.csv": "40591ba6fe6deb04e0cd78bac8f6b12354cd58c4b7abb1a2f90405cd5b81a38c",
    "injection.json": "3d92ca25b7a1b0a46d1705a48dc830db08fd9dc0b9a140f25d6d49d1186fbe3c",
    "preds.jsonl": "b9d95fbbb7691033505eaf0c9e4278ff98b5757ba753b8e68031c073a47b7840",
}


def test_perturb_halving_path_bytes_pinned(tmp_path, monkeypatch):
    rejected = []
    ious = geometry.segmentation_ious

    def counting(segs, pairs, refused=None):  # the batched check, and each halving's one-pair re-check
        values = ious(segs, pairs, refused)
        rejected.extend(values <= 0.5)
        return values

    monkeypatch.setattr(geometry, "segmentation_ious", counting)
    out = tmp_path / "scen"
    assert cli.main(["synth", "--out-dir", str(out)] + [str(a) for a in HALVING_ARGS]) == 0
    assert sum(rejected) == 112
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in HALVING_SHA256} == HALVING_SHA256


# ---------------------------------------------------------------------------
# scenario generation


def test_scenario_shape():
    tracks, dataset = generate_scenario(WELL_SEPARATED)
    assert len(tracks) == 3
    for t in tracks:
        assert len(t.states) == 40
        assert all(s.segmentation is not None for s in t.states)
    assert len(dataset.images) == 40
    assert len(dataset.annotations) == 120
    assert [c.name for c in dataset.categories] == ["animal_1", "animal_2", "animal_3"]


def test_scenario_deterministic_bytes():
    _, ds_a = generate_scenario(WELL_SEPARATED)
    _, ds_b = generate_scenario(WELL_SEPARATED)
    assert write_coco(ds_a) == write_coco(ds_b)


def test_scenario_seed_changes_output():
    _, ds_a = generate_scenario(WELL_SEPARATED)
    _, ds_b = generate_scenario(ScenarioConfig(**{**WELL_SEPARATED.__dict__, "seed": 6}))
    assert write_coco(ds_a) != write_coco(ds_b)


def test_scenario_separation_gives_disjoint_masks():
    cfg = ScenarioConfig(
        n_animals=4, n_frames=30, arena=(160, 160), body_radius=6.0,
        speed_max=4.0, min_separation=14.0, seed=9,
    )
    tracks, _ = generate_scenario(cfg)
    for f in range(cfg.n_frames):
        masks = [{s.frame: s for s in t.states}.get(f).segmentation for t in tracks]
        for i in range(len(masks)):
            for j in range(i + 1, len(masks)):
                assert rle_iou(masks[i], masks[j]) == 0.0


def test_scenario_speed_bound():
    tracks, _ = generate_scenario(WELL_SEPARATED)
    slack = 1.5  # mask centroids wobble around the true disc center
    for t in tracks:
        pts = [s.centroid for s in t.states]
        for a, b in zip(pts, pts[1:]):
            assert np.hypot(b.x - a.x, b.y - a.y) <= WELL_SEPARATED.speed_max + slack


def test_scenario_infeasible_packing():
    with pytest.raises(ConfigError):
        generate_scenario(
            ScenarioConfig(n_animals=30, n_frames=2, arena=(40, 40), body_radius=5.0,
                           speed_max=1.0, min_separation=30.0, seed=1)
        )


def test_scenario_masks_stay_inside_arena():
    tracks, dataset = generate_scenario(WELL_SEPARATED)
    w, h = WELL_SEPARATED.arena
    for ann in dataset.annotations:
        x, y, bw, bh = ann.bbox
        assert 0 <= x and x + bw <= w
        assert 0 <= y and y + bh <= h


# ---------------------------------------------------------------------------
# perturbation


def test_perturb_all_zero_is_identity():
    tracks, _ = generate_scenario(WELL_SEPARATED)
    preds, log = perturb(tracks, PerturbationConfig(seed=3), body_radius=6.0)
    assert preds == tracks_to_detections(tracks)
    assert (log.fn_count, log.fp_count, log.ids_count) == (0, 0, 0)


def test_perturb_fn_log_matches_dropped():
    tracks, _ = generate_scenario(WELL_SEPARATED)
    preds, log = perturb(tracks, PerturbationConfig(p_fn=0.2, seed=11), body_radius=6.0)
    assert len(preds) == 120 - log.fn_count
    assert log.fn_count > 0
    dropped = {(f, lbl) for f, lbl in log.fn_events}
    produced = {(p.frame, p.label) for p in preds}
    assert not dropped & produced


def test_perturb_fp_are_far_and_logged():
    tracks, _ = generate_scenario(WELL_SEPARATED)
    preds, log = perturb(tracks, PerturbationConfig(p_fp=0.5, seed=13), body_radius=6.0)
    spurious = [p for p in preds if p.label.startswith("spurious_")]
    assert len(spurious) == log.fp_count > 0
    by_frame = {}
    for t in tracks:
        for s in t.states:
            by_frame.setdefault(s.frame, []).append(s)
    for fp in spurious:
        for s in by_frame[fp.frame]:
            assert rle_iou(fp.segmentation, s.segmentation) == 0.0


def test_perturb_jitter_keeps_high_overlap():
    tracks, _ = generate_scenario(WELL_SEPARATED)
    preds, _ = perturb(tracks, PerturbationConfig(centroid_noise=1.0, seed=17), body_radius=6.0)
    by_key = {(s.frame, t.label): s for t in tracks for s in t.states}
    for p in preds:
        true_state = by_key[(p.frame, p.label)]
        assert rle_iou(p.segmentation, true_state.segmentation) > 0.5


def test_perturb_jitter_falls_back_to_truth_when_no_disc_fits():
    # a one-pixel-wide bar: no disc of radius 4 overlaps it with IoU > 0.5,
    # so every jittered offset is halved until it vanishes
    bar = mask_to_rle(np.pad(np.ones((30, 1), dtype=bool), ((10, 24), (20, 43))))
    tracks = [Track("a", [TrackState(frame=f, score=1.0, segmentation=bar) for f in range(4)])]
    preds, _ = perturb(tracks, PerturbationConfig(centroid_noise=2.0, seed=1), body_radius=4.0)
    assert [p.segmentation for p in preds] == [bar] * 4


def test_perturb_swap_yields_two_switches():
    tracks, _ = generate_scenario(
        ScenarioConfig(n_animals=2, n_frames=30, arena=(128, 128), body_radius=6.0,
                       speed_max=3.0, min_separation=17.0, seed=21)
    )
    preds, log = perturb(tracks, PerturbationConfig(n_ids=1, seed=23), body_radius=6.0)
    assert log.ids_count == 1
    report = evaluate_mot(tracks, assemble_tracks(preds), MotConfig())
    assert report.id_switches == 2
    swap_frame = log.ids_events[0][0]
    assert [f.frame for f in report.per_frame_log if f.switches] == [swap_frame]
    assert report.false_negatives == 0 and report.false_positives == 0


def test_perturb_swap_count_validation():
    tracks, _ = generate_scenario(
        ScenarioConfig(n_animals=2, n_frames=5, arena=(128, 128), body_radius=6.0,
                       speed_max=3.0, seed=1)
    )
    with pytest.raises(ConfigError):
        perturb(tracks, PerturbationConfig(n_ids=5, seed=1), body_radius=6.0)


def test_perturb_single_animal_cannot_swap():
    tracks, _ = generate_scenario(
        ScenarioConfig(n_animals=1, n_frames=5, arena=(128, 128), body_radius=6.0,
                       speed_max=3.0, seed=1)
    )
    with pytest.raises(ConfigError):
        perturb(tracks, PerturbationConfig(n_ids=1, seed=1), body_radius=6.0)


def test_report_matches_exact_small_injection():
    # 3 dropped detections, 1 spurious detection, 1 label swap -> the
    # report must read exactly (fn=3, fp=1, ids=2)
    cfg = ScenarioConfig(n_animals=3, n_frames=60, arena=(128, 128), body_radius=6.0,
                         speed_max=3.0, min_separation=17.0, seed=42)
    tracks, _ = generate_scenario(cfg)
    pcfg = PerturbationConfig(p_fn=0.02, p_fp=0.02, n_ids=1, centroid_noise=0.4, seed=13)
    preds, log = perturb(tracks, pcfg, body_radius=6.0)
    assert (log.fn_count, log.fp_count, log.ids_count) == (3, 1, 1)
    report = evaluate_mot(tracks, assemble_tracks(preds), MotConfig())
    assert (report.false_negatives, report.false_positives, report.id_switches) == (3, 1, 2)


def test_full_error_recovery_one_scenario():
    # composite check: evaluation must recover every injected count exactly
    cfg = ScenarioConfig(
        n_animals=4, n_frames=120, arena=(160, 160), body_radius=6.0,
        speed_max=3.0, min_separation=17.0, seed=31,
    )
    tracks, _ = generate_scenario(cfg)
    pcfg = PerturbationConfig(p_fn=0.05, p_fp=0.1, n_ids=2, centroid_noise=0.6, seed=33)
    preds, log = perturb(tracks, pcfg, body_radius=6.0)
    report = evaluate_mot(tracks, assemble_tracks(preds), MotConfig())
    assert report.false_negatives == log.fn_count
    assert report.false_positives == log.fp_count
    assert report.id_switches == 2 * log.ids_count


def test_error_free_composition_reproduces_ground_truth():
    tracks, _ = generate_scenario(WELL_SEPARATED)
    rebuilt = assemble_tracks(tracks_to_detections(tracks))
    assert rebuilt == tracks
