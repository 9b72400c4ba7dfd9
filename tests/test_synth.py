from __future__ import annotations

import numpy as np
import pytest

from segtrack.errors import ConfigError
from segtrack.formats import write_coco
from segtrack.geometry import mask_to_rle, rle_iou, rle_to_mask
from segtrack.metrics import MotConfig, evaluate_mot
from segtrack.synth import (
    InjectionLog,
    PerturbationConfig,
    ScenarioConfig,
    disc_mask,
    generate_scenario,
    perturb,
)
from segtrack.tracking import assemble_tracks, tracks_to_detections

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
