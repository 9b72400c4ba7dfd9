from __future__ import annotations

import errno
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path
from xml.dom import minidom

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import segtrack
from segtrack import cli
from segtrack.cli import main
from segtrack.formats import read_coco
from segtrack.metrics import mota


def write_labelme_dir(tmp_path, n=6):
    d = tmp_path / "labels"
    d.mkdir()
    for i in range(n):
        doc = {
            "version": "5.2.1",
            "imagePath": f"frame_{i:03d}.png",
            "imageHeight": 100,
            "imageWidth": 100,
            "shapes": [
                {
                    "label": "vole_1",
                    "points": [[10 + i, 10], [30 + i, 10], [30 + i, 30], [10 + i, 30]],
                    "shape_type": "polygon",
                    "group_id": None,
                },
                {
                    "label": "nose",
                    "points": [[50, 50]],
                    "shape_type": "point",
                    "group_id": None,
                },
            ],
        }
        (d / f"frame_{i:03d}.json").write_text(json.dumps(doc))
    return d


def run(argv):
    return main([str(a) for a in argv])


# ---------------------------------------------------------------------------


def test_convert_then_split(tmp_path):
    labels = write_labelme_dir(tmp_path)
    coco = tmp_path / "coco.json"
    assert run(["convert", "--labelme-dir", labels, "--out", coco, "--keypoint-radius", 5]) == 0
    ds = read_coco(coco.read_bytes())
    assert len(ds.images) == 6
    assert len(ds.annotations) == 12
    assert [c.name for c in ds.categories] == ["nose", "vole_1"]

    train = tmp_path / "train.json"
    val = tmp_path / "val.json"
    assert run(["split", "--in", coco, "--ratio", 0.8, "--seed", 42,
                "--train-out", train, "--val-out", val]) == 0
    assert len(read_coco(train.read_bytes()).images) == 5
    assert len(read_coco(val.read_bytes()).images) == 1


def test_split_refused_target_writes_nothing(tmp_path):
    coco = tmp_path / "coco.json"
    assert run(["convert", "--labelme-dir", write_labelme_dir(tmp_path), "--out", coco]) == 0
    train, val = tmp_path / "train.json", tmp_path / "val.json"
    val.write_text("old")
    assert run(["split", "--in", coco, "--train-out", train, "--val-out", val]) == 1
    assert not train.exists() and val.read_text() == "old"
    assert run(["split", "--in", coco, "--train-out", train, "--val-out", train, "--force"]) == 1
    assert not train.exists()


def test_convert_refuses_overwrite(tmp_path):
    labels = write_labelme_dir(tmp_path)
    coco = tmp_path / "coco.json"
    assert run(["convert", "--labelme-dir", labels, "--out", coco]) == 0
    assert run(["convert", "--labelme-dir", labels, "--out", coco]) == 1
    assert run(["convert", "--labelme-dir", labels, "--out", coco, "--force"]) == 0


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_convert_of_overflowing_coordinates_writes_nothing(tmp_path, capsys):
    labels = write_labelme_dir(tmp_path, n=2)
    doc = json.loads((labels / "frame_001.json").read_text())
    doc["shapes"][1] = {"label": "nose", "points": [[0, 0], [1e200, 0], [1e200, 1e200], [0, 1e200]]}
    (labels / "frame_001.json").write_text(json.dumps(doc))
    assert run(["convert", "--labelme-dir", labels, "--out", tmp_path / "coco.json"]) == 1
    assert capsys.readouterr().err.startswith(
        "error: document 'frame_001.png', shape 1: coordinates too large: area Infinity, "
    )
    assert not (tmp_path / "coco.json").exists()


def test_convert_of_overflowing_coordinates_prints_only_the_error(tmp_path):
    # a fresh interpreter, so a numpy warning would reach stderr as it does for a user
    labels = tmp_path / "labels"
    labels.mkdir()
    shape = {"label": "x", "points": [[0, 0], [1e200, 0], [1e200, 1e200], [0, 1e200]], "shape_type": "polygon"}
    doc = {"imagePath": "a.png", "imageHeight": 8, "imageWidth": 8, "shapes": [shape]}
    (labels / "a.json").write_text(json.dumps(doc))
    src = str(Path(segtrack.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["convert", "--labelme-dir", str(labels), "--out", str(tmp_path / "coco.json")]
    proc = subprocess.run([sys.executable, "-m", "segtrack.cli", *argv], capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert proc.stderr == (
        "error: document 'a.png', shape 0: coordinates too large: area Infinity, bbox [0.0, 0.0, 1e+200, 1e+200]\n"
    )


def test_failed_write_keeps_old_target_and_leaves_no_temp(tmp_path, monkeypatch, capsys):
    real_open = open

    class HalfWrite:
        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, data):
            self.f.write(data[: len(data) // 2])
            self.f.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cli, "open", lambda *a, **k: HalfWrite(real_open(*a, **k)), raising=False)
    labels = write_labelme_dir(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    (out / "coco.json").write_bytes(b"old")
    assert run(["convert", "--labelme-dir", labels, "--out", out / "coco.json", "--force"]) == 1
    assert run(["convert", "--labelme-dir", labels, "--out", out / "new.json"]) == 1
    assert "No space left on device" in capsys.readouterr().err
    assert (out / "coco.json").read_bytes() == b"old"
    assert [p.name for p in out.iterdir()] == ["coco.json"]


def test_sample_stdout(capsys):
    assert run(["sample", "--total", 100, "--count", 5, "--strategy", "uniform"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["0", "20", "40", "60", "80"]


def test_unknown_flag_usage_error(capsys):
    assert run(["sample", "--banana"]) == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_usage_error():
    assert run(["frobnicate"]) == 2


def test_missing_input_is_domain_error(tmp_path, capsys):
    assert run(["track", "--pred", tmp_path / "nope.jsonl", "--out", tmp_path / "t.csv"]) == 1
    assert "error:" in capsys.readouterr().err


def _make_scenario(tmp_path, **flags):
    out = tmp_path / "scen"
    argv = ["synth", "--out-dir", out, "--animals", 2, "--frames", 30,
            "--width", 128, "--height", 128, "--radius", 6, "--speed", 3,
            "--min-separation", 17, "--seed", 3]
    for k, v in flags.items():
        argv += [k, v]
    assert run(argv) == 0
    return out


def test_synth_writes_artifacts(tmp_path):
    out = _make_scenario(tmp_path)
    for name in ("gt.json", "gt_tracks.csv", "preds.jsonl", "injection.json"):
        assert (out / name).exists()
    log = json.loads((out / "injection.json").read_text())
    assert log == {"fn_events": [], "fp_events": [], "ids_events": []}


def test_synth_deterministic(tmp_path):
    a = _make_scenario(tmp_path / "a")
    b = _make_scenario(tmp_path / "b")
    for name in ("gt.json", "gt_tracks.csv", "preds.jsonl", "injection.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_synth_refused_target_writes_nothing(tmp_path):
    out = tmp_path / "scen"
    out.mkdir()
    (out / "preds.jsonl").write_text("old")
    assert run(["synth", "--out-dir", out, "--animals", 2, "--frames", 5]) == 1
    assert sorted(p.name for p in out.iterdir()) == ["preds.jsonl"]
    assert (out / "preds.jsonl").read_text() == "old"


@pytest.mark.parametrize("flags, field", [
    (["--radius", "nan"], "body_radius"),
    (["--radius", "inf"], "body_radius"),
    (["--speed", "nan"], "speed_max"),
    (["--speed", "inf"], "speed_max"),
    (["--min-separation", "nan"], "min_separation"),
    (["--noise", "nan"], "centroid_noise"),
    (["--noise", "inf"], "centroid_noise"),
    (["--p-fp", "nan"], "p_fp"),
    (["--p-fp", "inf"], "p_fp"),
    (["--width", 2**32, "--height", 2**32], "arena"),
    (["--width", 2**32, "--height", 2**31], "arena"),  # exactly 2^63 pixels
])
def test_synth_refuses_a_non_finite_or_oversized_config_naming_the_field(tmp_path, capsys, flags, field):
    out = tmp_path / "scen"
    assert run(["synth", "--out-dir", out, "--animals", 2, "--frames", 5] + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} ") and err.count("\n") == 1 and "error:" not in err[1:], err
    assert not out.exists()


def test_analyze_refused_target_writes_nothing(tmp_path):
    tracks_csv = tmp_path / "tracks.csv"
    assert run(["track", "--pred", _make_scenario(tmp_path) / "preds.jsonl", "--out", tracks_csv]) == 0
    stats, inter = tmp_path / "stats.csv", tmp_path / "inter.csv"
    inter.write_text("old")
    assert run(["analyze", "--tracks", tracks_csv, "--out", stats, "--interactions-out", inter]) == 1
    assert not stats.exists() and inter.read_text() == "old"
    assert run(["analyze", "--tracks", tracks_csv, "--out", stats, "--interactions-out", stats, "--force"]) == 1
    assert not stats.exists()


def test_track_eval_plot_pipeline(tmp_path):
    out = _make_scenario(tmp_path)
    tracks_csv = tmp_path / "tracks.csv"
    assert run(["track", "--pred", out / "preds.jsonl", "--out", tracks_csv]) == 0
    header = tracks_csv.read_text().splitlines()[0]
    assert header == "frame,label,present,cx,cy,score,interpolated"

    mot_csv = tmp_path / "mot.csv"
    assert run(["eval-mot", "--gt", out / "gt.json", "--pred", out / "preds.jsonl",
                "--out", mot_csv]) == 0
    lines = mot_csv.read_text().splitlines()
    assert lines[0] == "video,n_frames,n_gt,fn,fp,ids,mota,motp"
    assert lines[1] == "preds,30,60,0,0,0,1.000000,1.000000"

    ap_csv = tmp_path / "ap.csv"
    assert run(["eval-coco", "--gt", out / "gt.json", "--pred", out / "preds.jsonl",
                "--out", ap_csv]) == 0
    lines = ap_csv.read_text().splitlines()
    assert lines[0] == "category,AP,AP50,AP75,APS,APM,APL"
    assert lines[1].startswith("animal_1,100.000,100.000,100.000")

    stats_csv = tmp_path / "stats.csv"
    zones = tmp_path / "zones.json"
    zones.write_text(json.dumps([{"name": "west", "points": [[0, 0], [64, 0], [64, 128], [0, 128]]}]))
    assert run(["analyze", "--tracks", tracks_csv, "--out", stats_csv,
                "--zones", zones, "--interactions-out", tmp_path / "inter.csv",
                "--interaction-distance", 200]) == 0
    lines = stats_csv.read_text().splitlines()
    assert lines[0] == "label,frames_present,distance_traveled,mean_speed,zone_west,zone_outside"
    assert len(lines) == 3
    inter = (tmp_path / "inter.csv").read_text().splitlines()
    assert inter[0] == "label_a,label_b,start_frame,end_frame"
    assert inter[1] == "animal_1,animal_2,0,29"  # 200 px threshold spans the arena

    svg = tmp_path / "plot.svg"
    assert run(["plot", "--tracks", tracks_csv, "--out", svg, "--width", 128, "--height", 128]) == 0
    text = svg.read_text()
    assert text.count("<polyline") == 2
    assert 'viewBox="0 0 128 128"' in text


def test_eval_mot_with_injected_errors(tmp_path):
    out = tmp_path / "scen"
    assert run(["synth", "--out-dir", out, "--animals", 2, "--frames", 50,
                "--width", 128, "--height", 128, "--radius", 6, "--speed", 3,
                "--min-separation", 17, "--seed", 5,
                "--p-fn", 0.1, "--n-ids", 1, "--noise", 0.5, "--perturb-seed", 7]) == 0
    log = json.loads((out / "injection.json").read_text())
    mot_csv = tmp_path / "mot.csv"
    assert run(["eval-mot", "--gt", out / "gt.json", "--pred", out / "preds.jsonl",
                "--out", mot_csv, "--denominator", "frames"]) == 0
    line = mot_csv.read_text().splitlines()[1]
    video, n_frames, n_gt, fn, fp, ids, mota_s, motp = line.split(",")
    assert int(n_gt) == 50  # frames denominator
    assert int(fn) == len(log["fn_events"])
    assert int(fp) == len(log["fp_events"])
    assert int(ids) == 2 * len(log["ids_events"])
    want = mota(int(fn), int(ids), int(fp), 50)
    assert mota_s == f"{want:.6f}"


def test_eval_mot_json_format(tmp_path):
    out = _make_scenario(tmp_path)
    assert run(["eval-mot", "--gt", out / "gt.json", "--pred", out / "preds.jsonl",
                "--out", tmp_path / "mot.json", "--format", "json"]) == 0
    payload = json.loads((tmp_path / "mot.json").read_text())
    assert payload["mota"] == 1.0
    assert payload["video"] == "preds"


def test_eval_mot_frame_log(tmp_path):
    out = tmp_path / "scen"
    assert run(["synth", "--out-dir", out, "--animals", 2, "--frames", 50,
                "--width", 128, "--height", 128, "--radius", 6, "--speed", 3,
                "--min-separation", 17, "--seed", 5,
                "--p-fn", 0.1, "--p-fp", 0.1, "--n-ids", 1, "--noise", 0.5, "--perturb-seed", 7]) == 0
    argv = ["eval-mot", "--gt", out / "gt.json", "--pred", out / "preds.jsonl"]
    assert run(argv + ["--out", tmp_path / "plain.csv"]) == 0
    assert run(argv + ["--out", tmp_path / "mot.csv", "--frame-log", tmp_path / "log.jsonl"]) == 0
    assert (tmp_path / "mot.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()

    entries = [json.loads(line) for line in (tmp_path / "log.jsonl").read_text().splitlines()]
    assert [e["frame"] for e in entries] == list(range(50))
    assert all(list(e) == ["frame", "matches", "misses", "false_positives", "switches"] for e in entries)
    _, n_frames, _, fn, fp, ids, _, _ = (tmp_path / "mot.csv").read_text().splitlines()[1].split(",")
    assert sum(len(e["misses"]) for e in entries) == int(fn) > 0
    assert sum(len(e["false_positives"]) for e in entries) == int(fp) > 0
    assert sum(len(e["switches"]) for e in entries) == int(ids) > 0
    gt_id, label, iou = entries[0]["matches"][0]
    assert gt_id.startswith("animal_") and label.startswith("animal_") and 0.5 <= iou <= 1.0
    # refused runs write nothing
    assert run(argv + ["--out", tmp_path / "refused.csv", "--frame-log", tmp_path / "log.jsonl"]) == 1
    assert run(argv + ["--out", tmp_path / "same.csv", "--frame-log", tmp_path / "same.csv"]) == 1
    assert not (tmp_path / "refused.csv").exists() and not (tmp_path / "same.csv").exists()


def test_eval_mot_matches_polygon_prediction_to_polygon_label(tmp_path):
    # two triangles whose pixels overlap by a third: a one-decimal ring pair compares exactly
    gt = {"images": [{"id": 1, "file_name": "a.png", "height": 6, "width": 6, "frame_index": 0}],
          "categories": [{"id": 1, "name": "a"}],
          "annotations": [{"id": 1, "image_id": 1, "category_id": 1, "segmentation": [[3.8, 0.3, 0.6, 1.3, 1.5, 2.5]]}]}
    pred = {"frame": 0, "label": "a", "score": 0.9, "bbox": [0.2, 0.1, 2.7, 1.8],
            "segmentation": [[2.9, 0.1, 1.4, 1.6, 0.2, 1.9]]}
    (tmp_path / "gt.json").write_text(json.dumps(gt))
    (tmp_path / "tri.jsonl").write_text(json.dumps(pred) + "\n")
    assert run(["eval-mot", "--gt", tmp_path / "gt.json", "--pred", tmp_path / "tri.jsonl", "--iou", 0.3,
                "--out", tmp_path / "mot.csv", "--frame-log", tmp_path / "log.jsonl"]) == 0
    assert (tmp_path / "mot.csv").read_text().splitlines()[1] == "tri,1,1,0,0,0,1.000000,0.333333"
    (entry,) = [json.loads(line) for line in (tmp_path / "log.jsonl").read_text().splitlines()]
    assert entry["matches"] == [["a", "a", 1 / 3]]


_HUGE_RING, _SMALL_RING = [0, 0, 1e200, 0, 1e200, 1e200], [0, 0, 4, 0, 4, 4]


@pytest.mark.parametrize("huge_in", ["gt", "pred"])
@pytest.mark.parametrize("command", ["eval-mot", "eval-coco"])
def test_eval_refuses_a_polygon_too_large_for_an_iou_naming_its_file(tmp_path, capsys, command, huge_in):
    gt_ring, pred_ring = (_HUGE_RING, _SMALL_RING) if huge_in == "gt" else (_SMALL_RING, _HUGE_RING)
    gt = {"images": [{"id": 1, "file_name": "a.png", "height": 8, "width": 8, "frame_index": 0}],
          "categories": [{"id": 1, "name": "a"}],
          "annotations": [{"id": 1, "image_id": 1, "category_id": 1, "segmentation": [gt_ring]}]}
    pred = {"frame": 0, "label": "a", "score": 0.9, "bbox": [0, 0, 1, 1], "segmentation": [pred_ring]}
    paths = {"gt": tmp_path / "gt.json", "pred": tmp_path / "pred.jsonl"}
    paths["gt"].write_text(json.dumps(gt))
    paths["pred"].write_text(json.dumps(pred) + "\n")
    assert run([command, "--gt", paths["gt"], "--pred", paths["pred"]]) == 1
    assert capsys.readouterr().err == (
        f"error: {paths[huge_in]}: polygon with bbox [0.0, 0.0, 1e+200, 1e+200] is too large for an IoU,"
        " which fills at most 1,073,741,824 pixels of a polygon, each within 4,611,686,018,427,387,904 of the origin\n"
    )


@pytest.mark.parametrize("command", ["eval-mot", "eval-coco"])
def test_eval_refuses_masks_of_two_sizes_naming_file_frame_and_label(tmp_path, capsys, command):
    gt = {"images": [{"id": 1, "file_name": "a.png", "height": 8, "width": 8, "frame_index": 3}],
          "categories": [{"id": 1, "name": "a"}],
          "annotations": [{"id": 1, "image_id": 1, "category_id": 1, "segmentation": {"size": [8, 8], "counts": [0, 4, 60]}}]}
    pred = {"frame": 3, "label": "a", "score": 0.9, "bbox": [0, 0, 1, 3], "segmentation": {"size": [6, 6], "counts": [0, 3, 33]}}
    (tmp_path / "gt.json").write_text(json.dumps(gt))
    (tmp_path / "small.jsonl").write_text(json.dumps(pred) + "\n")
    assert run([command, "--gt", tmp_path / "gt.json", "--pred", tmp_path / "small.jsonl"]) == 1
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'small.jsonl'}: frame 3, label 'a': mask size 6x6 differs from the ground truth's 8x8\n"
    )


def _labelled_tracks(tmp_path, labels=("a,b", "x<&y")):
    """A track CSV of two animals 4 px apart in frames 0 and 1, each moving 2 px, under ``labels``."""
    pred = tmp_path / "labels.jsonl"
    pred.write_text("".join(_pred_line(f, label, 0.9, x=10 + 4 * i + 2 * f) for f in (0, 1) for i, label in enumerate(labels)))
    tracks = tmp_path / "tracks.csv"
    assert run(["track", "--pred", pred, "--out", tracks]) == 0
    return tracks


def test_analyze_quotes_labels_as_the_track_csv_does(tmp_path):
    tracks = _labelled_tracks(tmp_path)
    assert tracks.read_text().splitlines()[1] == '0,"a,b",true,20.0000,20.0000,0.900000,false'
    stats, inter = tmp_path / "stats.csv", tmp_path / "inter.csv"
    assert run(["analyze", "--tracks", tracks, "--out", stats, "--interactions-out", inter]) == 0
    assert stats.read_text() == (
        'label,frames_present,distance_traveled,mean_speed\n"a,b",2,2.000,2.000\nx<&y,2,2.000,2.000\n'
    )
    assert inter.read_text() == 'label_a,label_b,start_frame,end_frame\n"a,b",x<&y,0,1\n'


def test_plot_escapes_labels_in_its_text(tmp_path):
    svg = tmp_path / "tracks.svg"
    assert run(["plot", "--tracks", _labelled_tracks(tmp_path), "--out", svg, "--width", 64, "--height", 64]) == 0
    texts = minidom.parseString(svg.read_bytes()).getElementsByTagName("text")
    assert [t.firstChild.data for t in texts] == ["tracks", "a,b", "x<&y"]
    assert svg.read_text().splitlines()[-2] == '<text x="6" y="42" font-size="11" fill="#d62728">x&lt;&amp;y</text>'


def test_track_interpolation_flag(tmp_path):
    out = tmp_path / "scen"
    assert run(["synth", "--out-dir", out, "--animals", 2, "--frames", 40,
                "--width", 128, "--height", 128, "--radius", 6, "--speed", 3,
                "--min-separation", 17, "--seed", 11,
                "--p-fn", 0.2, "--perturb-seed", 13]) == 0
    with_gaps = tmp_path / "a.csv"
    filled = tmp_path / "b.csv"
    assert run(["track", "--pred", out / "preds.jsonl", "--out", with_gaps]) == 0
    assert run(["track", "--pred", out / "preds.jsonl", "--out", filled, "--max-gap", 3]) == 0
    n_interp = filled.read_text().count(",true\n")
    assert n_interp > 0
    assert with_gaps.read_text().count(",true\n") == 0


def _pred_line(frame, label, score, x=10):
    return json.dumps({"frame": frame, "label": label, "score": score, "bbox": [x, 10, 20, 20],
                       "segmentation": [[x, 10, x + 20, 10, x + 20, 30, x, 30]]}) + "\n"


def test_track_negative_max_gap_is_domain_error(tmp_path, capsys):
    pred = tmp_path / "preds.jsonl"
    pred.write_text(_pred_line(0, "a", 0.9))
    assert run(["track", "--pred", pred, "--out", tmp_path / "t.csv", "--max-gap", -3]) == 1
    assert capsys.readouterr().err == "error: --max-gap must be >= 0, got -3\n"
    assert not (tmp_path / "t.csv").exists()


def test_track_negative_max_gap_refused_before_the_stream_is_read(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")  # no record reaches interpolation
    assert run(["track", "--pred", empty, "--out", tmp_path / "t.csv", "--max-gap", -3]) == 1
    assert capsys.readouterr().err == "error: --max-gap must be >= 0, got -3\n"
    missing = tmp_path / "missing.jsonl"
    assert run(["track", "--pred", missing, "--max-gap", -1]) == 1
    assert capsys.readouterr().err == "error: --max-gap must be >= 0, got -1\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.jsonl"]


def test_track_keeps_best_duplicate_as_library_does(tmp_path):
    pred = tmp_path / "preds.jsonl"
    pred.write_text(_pred_line(0, "a", 0.6, x=10) + _pred_line(0, "a", 0.9, x=40) + _pred_line(1, "a", 0.8)
                    + _pred_line(1, "b", 0.7) + _pred_line(1, "b", 0.7, x=50))
    out = tmp_path / "t.csv"
    assert run(["track", "--pred", pred, "--out", out]) == 0
    records = segtrack.filter_by_score(segtrack.parse_predictions(pred.read_bytes()), 0.5)
    assert out.read_bytes() == segtrack.tracking.write_tracks_csv(segtrack.assemble_tracks(records))
    assert out.read_text().splitlines()[1:] == [
        "0,a,true,50.0000,20.0000,0.900000,false",
        "0,b,false,,,,false",
        "1,a,true,20.0000,20.0000,0.800000,false",
        "1,b,true,20.0000,20.0000,0.700000,false",
    ]


def test_track_of_a_huge_frame_span_is_refused_at_once(tmp_path, capsys):
    pred = tmp_path / "preds.jsonl"
    pred.write_text(_pred_line(0, "a", 0.9) + _pred_line(10**12, "a", 0.9))
    out = tmp_path / "t.csv"
    assert run(["track", "--pred", pred, "--out", out]) == 1
    assert capsys.readouterr().err == (
        f"error: {pred}: track CSV would have 1000000000001 rows (frames 0 to 1000000000000, labels: 1),"
        " more than the limit of 20000000\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["preds.jsonl"]


def test_track_row_limit_checked_before_interpolating(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(segtrack.tracking, "_MAX_ROWS", 10)
    interpolated = []
    interpolate_gaps = segtrack.tracking.interpolate_gaps

    def counting(track, max_gap):
        filled = interpolate_gaps(track, max_gap)
        interpolated.extend(s for s in filled.states if s.interpolated)
        return filled

    monkeypatch.setattr(segtrack.tracking, "interpolate_gaps", counting)
    pred = tmp_path / "preds.jsonl"
    pred.write_text(_pred_line(0, "a", 0.9) + _pred_line(100, "a", 0.9))
    out = tmp_path / "t.csv"
    assert run(["track", "--pred", pred, "--out", out, "--max-gap", 100]) == 1
    assert capsys.readouterr().err == (
        f"error: {pred}: track CSV would have 101 rows (frames 0 to 100, labels: 1), more than the limit of 10\n"
    )
    assert interpolated == []
    assert not out.exists()
    # within the limit, the same stream is interpolated
    monkeypatch.setattr(segtrack.tracking, "_MAX_ROWS", 101)
    assert run(["track", "--pred", pred, "--out", out, "--max-gap", 100]) == 0
    assert len(interpolated) == 99


def test_synth_refused_track_csv_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(segtrack.tracking, "_MAX_ROWS", 10)
    out = tmp_path / "scen"
    assert run(["synth", "--out-dir", out, "--animals", 2, "--frames", 6]) == 1
    assert capsys.readouterr().err == (
        "error: track CSV would have 12 rows (frames 0 to 5, labels: 2), more than the limit of 10\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("max_dets", [0, -1])
def test_eval_coco_max_dets_below_one_is_domain_error(tmp_path, capsys, max_dets):
    out = _make_scenario(tmp_path)
    capsys.readouterr()
    assert run(["eval-coco", "--gt", out / "gt.json", "--pred", out / "preds.jsonl", "--max-dets", max_dets]) == 1
    assert capsys.readouterr().err == f"error: max_dets must be >= 1, got {max_dets}\n"


@pytest.mark.parametrize(
    "line,message",
    [
        (_pred_line(0, "zz", 0.9), "unknown categories in predictions: ['zz']"),
        (_pred_line(999, "animal_1", 0.9), "prediction frames without a matching image: [999]"),
    ],
    ids=["unknown-category", "frame-without-image"],
)
def test_eval_coco_refused_predictions_name_the_pred_file(tmp_path, capsys, line, message):
    out = _make_scenario(tmp_path)
    pred = tmp_path / "bad.jsonl"
    pred.write_text(line)
    capsys.readouterr()
    assert run(["eval-coco", "--gt", out / "gt.json", "--pred", pred]) == 1
    assert capsys.readouterr().err == f"error: {pred}: {message}\n"


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda ann: ann.pop("id"), "annotation 0: missing field 'id'"),
        (lambda ann: ann.update(image_id="first"), "annotation 0: invalid image_id: "),
        (lambda ann: ann.update(id=True), "annotation 0: invalid id: expected an integer, got true"),
        (lambda ann: ann.update(area=float("nan")), "annotation 0: invalid area: expected a finite number >= 0, got NaN"),
    ],
)
def test_eval_coco_malformed_gt_is_domain_error(tmp_path, capsys, edit, message):
    gt = tmp_path / "coco.json"
    assert run(["convert", "--labelme-dir", write_labelme_dir(tmp_path), "--out", gt]) == 0
    doc = json.loads(gt.read_text())
    edit(doc["annotations"][0])
    gt.write_text(json.dumps(doc))
    pred = tmp_path / "preds.jsonl"
    pred.write_text(json.dumps({"frame": 0, "label": "vole_1", "score": 0.9, "bbox": [10, 10, 20, 20],
                                "segmentation": [[10, 10, 30, 10, 30, 30, 10, 30]]}) + "\n")
    capsys.readouterr()
    assert run(["eval-coco", "--gt", gt, "--pred", pred]) == 1
    assert capsys.readouterr().err.startswith(f"error: {gt}: {message}")


@pytest.mark.parametrize(
    "text,message",
    [
        ('[{"name": "west"}]', "zone 0: missing field 'points'\n"),
        ('[{"name": "west", "points": [[0, 0], [9, 0], [9, 9]]', "malformed JSON: "),
        ('[{"name": "a", "points": [[0, 0], [9, 0], [9, 9]]}, {"name": "b", "points": [[0, 0], [9, 9]]}]',
         "zone 1: polygon needs >=3 vertices, got 2"),
        ('[{"name": 5, "points": [[0, 0], [9, 0], [9, 9]]}]', "zone 0: invalid name: expected a string, got 5\n"),
    ],
    ids=["no-points", "malformed-json", "two-point-ring", "numeric-name"],
)
def test_analyze_bad_zones_file_names_file_and_zone(tmp_path, capsys, text, message):
    tracks_csv = tmp_path / "tracks.csv"
    assert run(["track", "--pred", _make_scenario(tmp_path) / "preds.jsonl", "--out", tracks_csv]) == 0
    zones = tmp_path / "zones.json"
    zones.write_text(text)
    capsys.readouterr()
    assert run(["analyze", "--tracks", tracks_csv, "--zones", zones]) == 1
    assert capsys.readouterr().err.startswith(f"error: {zones}: {message}")


def test_eval_repeated_frame_index_names_gt(tmp_path, capsys):
    out = _make_scenario(tmp_path)
    gt = out / "gt.json"
    doc = json.loads(gt.read_text())
    doc["images"][1]["frame_index"] = 0
    gt.write_text(json.dumps(doc))
    for command in ("eval-mot", "eval-coco"):
        capsys.readouterr()
        assert run([command, "--gt", gt, "--pred", out / "preds.jsonl"]) == 1
        assert capsys.readouterr().err == f"error: {gt}: duplicate frame_index 0\n"


def test_eval_mot_two_states_of_one_track_names_gt(tmp_path, capsys):
    out = _make_scenario(tmp_path)
    gt = out / "gt.json"
    doc = json.loads(gt.read_text())
    first = doc["annotations"][0]
    doc["annotations"].append(dict(first, id=1 + max(a["id"] for a in doc["annotations"])))
    gt.write_text(json.dumps(doc))
    label = next(c["name"] for c in doc["categories"] if c["id"] == first["category_id"])
    frame = next(img["frame_index"] for img in doc["images"] if img["id"] == first["image_id"])
    capsys.readouterr()
    assert run(["eval-mot", "--gt", gt, "--pred", out / "preds.jsonl"]) == 1
    assert capsys.readouterr().err == f"error: {gt}: track {label!r} has two states at frame {frame}\n"


# ---------------------------------------------------------------------------
# the input boundary: every reader, fed a broken file, names the file


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """One small valid file of each input format, and the command that reads it."""
    root = tmp_path_factory.mktemp("valid")
    scen = root / "scen"
    assert run(["synth", "--out-dir", scen, "--animals", 2, "--frames", 4, "--width", 64, "--height", 64,
                "--radius", 5, "--speed", 2, "--min-separation", 14, "--seed", 3, "--p-fp", 0.3]) == 0
    tracks = root / "tracks.csv"
    assert run(["track", "--pred", scen / "preds.jsonl", "--out", tracks]) == 0
    zones = root / "zones.json"
    zones.write_text(json.dumps([{"name": "west", "points": [[0, 0], [32, 0], [32, 64], [0, 64]]},
                                 {"name": "east", "points": [[32, 0], [64, 0], [64, 64], [32, 64]]}]))
    labels = write_labelme_dir(root, n=2)
    return {
        "labelme": (labels / "frame_000.json", lambda f, w: ["convert", "--labelme-dir", f.parent,
                                                             "--out", w / "coco.json", "--force"]),
        "coco": (scen / "gt.json", lambda f, w: ["split", "--in", f, "--train-out", w / "train.json",
                                                 "--val-out", w / "val.json", "--force"]),
        "jsonl": (scen / "preds.jsonl", lambda f, w: ["eval-mot", "--gt", scen / "gt.json", "--pred", f]),
        "zones": (zones, lambda f, w: ["analyze", "--tracks", tracks, "--zones", f]),
        "csv": (tracks, lambda f, w: ["analyze", "--tracks", f]),
    }


def _broken_copy(valid_inputs, tmp_path, fmt, data):
    """Write ``data`` as a copy of the ``fmt`` input; the copy's path and the argv that reads it."""
    source, argv = valid_inputs[fmt]
    work = tmp_path / fmt
    if fmt == "labelme" and not work.exists():  # the other labelme files of the directory stay valid
        shutil.copytree(source.parent, work)
    work.mkdir(exist_ok=True)
    target = work / source.name
    target.write_bytes(data)
    return target, argv(target, tmp_path)


FORMATS = ["labelme", "coco", "jsonl", "zones", "csv"]


@pytest.mark.parametrize("fmt", FORMATS)
def test_bad_utf8_names_file_and_offset(valid_inputs, tmp_path, capsys, fmt):
    data = valid_inputs[fmt][0].read_bytes()
    target, argv = _broken_copy(valid_inputs, tmp_path, fmt, data[:20] + b"\xff" + data[20:])
    capsys.readouterr()
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: {target}: invalid UTF-8 at byte 20: invalid start byte\n"


_SWAPS = [None, True, 0, -1, 2.5, 10**30, math.nan, math.inf, "", "x", [], {}, [1, "x"]]
_CSV_SWAPS = ["", "x", "-1", "0", "nan", "1e400", "9" * 30, "true"]


def _value_paths(value, path=()):
    yield path
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from _value_paths(child, path + (key,))


def _mutate_value(doc, data):
    """Swap the value at one path for another type, or delete it; every depth is drawn as often."""
    paths = list(_value_paths(doc))[1:]
    depth = data.draw(st.sampled_from(sorted({len(p) for p in paths})))
    path = data.draw(st.sampled_from([p for p in paths if len(p) == depth]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(st.sampled_from(_SWAPS))


@given(fmt=st.sampled_from(FORMATS), data=st.data())
@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_input_exits_0_or_names_the_file(valid_inputs, tmp_path, capsys, fmt, data):
    raw = valid_inputs[fmt][0].read_bytes()
    kind = data.draw(st.sampled_from(["structure", "structure", "truncate", "bad-utf8"]))
    if kind == "truncate":
        raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
    elif kind == "bad-utf8":
        at = data.draw(st.integers(0, len(raw)))
        raw = raw[:at] + b"\xff" + raw[at:]
    elif fmt == "csv":
        rows = [line.split(",") for line in raw.decode().splitlines()]
        row = data.draw(st.sampled_from(rows))
        col = data.draw(st.integers(0, len(row) - 1))
        if data.draw(st.booleans()):
            del row[col]
        else:
            row[col] = data.draw(st.sampled_from(_CSV_SWAPS))
        raw = "".join(",".join(r) + "\n" for r in rows).encode()
    elif fmt == "jsonl":
        lines = [json.loads(line) for line in raw.decode().splitlines()]
        _mutate_value(lines, data)
        raw = "".join(json.dumps(x) + "\n" for x in lines).encode()
    else:
        doc = json.loads(raw)
        _mutate_value(doc, data)
        raw = json.dumps(doc).encode()
    target, argv = _broken_copy(valid_inputs, tmp_path, fmt, raw)
    capsys.readouterr()
    code = run(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert code == 0 or (code == 1 and err.startswith(f"error: {target}: ")), (code, err)
