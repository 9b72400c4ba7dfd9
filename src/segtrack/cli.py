"""Command-line front end wiring the pipeline end to end.

Every subcommand is a thin composition of library operations with all
randomness seeded through flags, so identical inputs and flags produce
byte-identical outputs.  Exit codes: 0 success, 1 domain error (bad
data, impossible metric), 2 usage error.  Diagnostics go to stderr;
machine-readable output goes to files or stdout only.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import analytics, formats, metrics, synth, tracking
from .errors import OutOfRangeError, OversizedPolygonError, ParseError, SchemaError, SegtrackError, SizeMismatchError
from .metrics import MotConfig


def _color_enabled() -> bool:
    if os.environ.get("SEGTRACK_COLORS", "").lower() == "off":
        return False
    return sys.stderr.isatty()


def _fail(message: str) -> None:
    prefix = "\x1b[31merror:\x1b[0m" if _color_enabled() else "error:"
    print(f"{prefix} {message}", file=sys.stderr)


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _check_writable(force: bool, *paths: str | None) -> None:
    """Refuse, before any write, an existing target without ``--force`` or two targets naming one file."""
    targets = [Path(p) for p in paths if p]
    if len(targets) > 1 and len({t.resolve() for t in targets}) < len(targets):
        raise SegtrackError(f"two outputs name the same file: {', '.join(map(str, targets))}")
    for target in targets:
        if target.exists() and not force:
            raise SegtrackError(f"refusing to overwrite {target} (use --force)")


def _write_output(path: str, data: bytes, force: bool) -> None:
    """Write through a temp file beside the target, so a failed write leaves the target as it was."""
    _check_writable(force, path)
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(f".{target.name}.{os.urandom(4).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # the umask applies, as to a plain open
    try:
        with open(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink()
        raise


def _load(path: str, parser):
    """Read and parse a file, prefixing any diagnostic with the file name."""
    try:
        data = Path(path).read_bytes()
    except OSError as e:
        raise SegtrackError(f"{path}: {e.strerror or e}") from e
    try:
        return parser(data)
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: invalid UTF-8 at byte {e.start}: {e.reason}") from e
    except SegtrackError as e:
        raise type(e)(f"{path}: {e}") from e


def _emit(path: str | None, data: bytes, force: bool) -> None:
    if path:
        _write_output(path, data, force)
    else:
        sys.stdout.write(data.decode("utf-8"))


def _load_pred_tracks(path: str, score_threshold: float) -> list[tracking.Track]:
    records = _load(path, formats.parse_predictions)
    return tracking.assemble_tracks(tracking.filter_by_score(records, score_threshold))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_convert(args) -> None:
    paths = sorted(Path(args.labelme_dir).glob("*.json"))
    if not paths:
        raise SegtrackError(f"no labelme .json files in {args.labelme_dir}")
    docs = [_load(str(p), formats.parse_labelme) for p in paths]
    ds = formats.labelme_to_coco(docs, keypoint_radius=args.keypoint_radius)
    _write_output(args.out, formats.write_coco(ds), args.force)
    _note(f"wrote {args.out} ({len(ds.images)} images, {len(ds.annotations)} annotations)")


def _cmd_split(args) -> None:
    _check_writable(args.force, args.train_out, args.val_out)
    ds = _load(args.input, formats.read_coco)
    result = formats.split_dataset(ds, ratio=args.ratio, seed=args.seed)
    _write_output(args.train_out, formats.write_coco(result.train), args.force)
    _write_output(args.val_out, formats.write_coco(result.val), args.force)
    _note(
        f"split {len(ds.images)} images -> {len(result.train.images)} train"
        f" / {len(result.val.images)} val (seed {args.seed})"
    )


def _cmd_sample(args) -> None:
    indices = formats.sample_frames(args.total, args.count, strategy=args.strategy, seed=args.seed)
    data = ("\n".join(str(i) for i in indices) + "\n").encode("utf-8")
    _emit(args.out, data, args.force)


def _cmd_track(args) -> None:
    if args.max_gap < 0:
        raise OutOfRangeError(f"--max-gap must be >= 0, got {args.max_gap}")
    tracks = _load_pred_tracks(args.pred, args.score_threshold)
    try:  # before interpolating, which could build every refused row's state first
        tracking.check_tracks_csv_rows(tracks)
    except OutOfRangeError as e:
        raise OutOfRangeError(f"{args.pred}: {e}") from e
    tracks = [tracking.interpolate_gaps(t, args.max_gap) for t in tracks]
    _emit(args.out, tracking.write_tracks_csv(tracks), args.force)
    if args.out:
        _note(f"wrote {args.out} ({len(tracks)} tracks)")


def _cmd_eval_mot(args) -> None:
    _check_writable(args.force, args.out, args.frame_log)
    gt_tracks = _load(args.gt, lambda data: formats.coco_to_tracks(formats.read_coco(data)))
    pred_tracks = _load_pred_tracks(args.pred, args.score_threshold)
    cfg = MotConfig(iou_threshold=args.iou, denominator=args.denominator)
    try:
        report = metrics.evaluate_mot(gt_tracks, pred_tracks, cfg)
    except OversizedPolygonError as e:  # evaluate_mot takes each IoU as (ground truth, prediction)
        raise OutOfRangeError(f"{(args.gt, args.pred)[e.operand]}: {e}") from e
    except SizeMismatchError as e:  # named by the prediction's frame and label
        raise SizeMismatchError(f"{args.pred}: {e}") from e
    name = Path(args.pred).stem
    _emit(args.out, analytics.emit_report(report, format=args.format, name=name), args.force)
    if args.frame_log:
        lines = "".join(json.dumps(dataclasses.asdict(log)) + "\n" for log in report.per_frame_log)
        _write_output(args.frame_log, lines.encode("utf-8"), args.force)


def _percent(x: float | None) -> float | None:
    return None if x is None else 100.0 * x


def _cmd_eval_coco(args) -> None:
    gt = _load(args.gt, formats.read_coco)
    preds = _load(args.pred, formats.parse_predictions)
    try:
        report = metrics.evaluate_coco_ap(gt, preds, max_dets=args.max_dets)
    except SchemaError as e:  # a prediction with an unknown category or frame
        raise SchemaError(f"{args.pred}: {e}") from e
    except OversizedPolygonError as e:  # evaluate_coco_ap takes each IoU as (prediction, ground truth)
        raise OutOfRangeError(f"{(args.pred, args.gt)[e.operand]}: {e}") from e
    except SizeMismatchError as e:
        raise SizeMismatchError(f"{args.pred}: {e}") from e
    scaled = metrics.ApReport(
        rows=tuple(metrics.ApRow(r.name, *map(_percent, r.values())) for r in report.rows)
    )
    _emit(args.out, analytics.emit_report(scaled, format=args.format), args.force)


def _cmd_analyze(args) -> None:
    _check_writable(args.force, args.out, args.interactions_out)
    tracks = _load(args.tracks, tracking.read_tracks_csv)
    zones = [analytics.ZoneDefinition(*zone) for zone in _load(args.zones, formats.parse_zones)] if args.zones else []
    header = ["label", "frames_present", "distance_traveled", "mean_speed"]
    header += [f"zone_{z.name}" for z in zones] + (["zone_outside"] if zones else [])
    lines = [header]
    for track in tracks:
        stats = analytics.track_stats(track, px_per_unit=args.px_per_unit)
        row = [
            track.label,
            str(stats.frames_present),
            f"{stats.distance_traveled:.3f}",
            f"{stats.mean_speed:.3f}",
        ]
        if zones:
            occ = analytics.zone_occupancy(track, zones)
            row += [f"{occ[z.name].fraction:.3f}" for z in zones]
            row.append(f"{occ[analytics.OUTSIDE_ZONE].fraction:.3f}")
        lines.append(row)
    _emit(args.out, analytics.csv_bytes(lines), args.force)

    if args.interactions_out:
        events = analytics.interaction_events(
            tracks, threshold=args.interaction_distance, min_duration=args.min_duration
        )
        rows = [["label_a", "label_b", "start_frame", "end_frame"]]
        rows += [[*e.labels, str(e.start_frame), str(e.end_frame)] for e in events]
        _write_output(args.interactions_out, analytics.csv_bytes(rows), args.force)


def _cmd_synth(args) -> None:
    out = Path(args.out_dir)
    gt_path, tracks_path, preds_path, log_path = (
        str(out / name) for name in ("gt.json", "gt_tracks.csv", "preds.jsonl", "injection.json")
    )
    _check_writable(args.force, gt_path, tracks_path, preds_path, log_path)
    scenario = synth.ScenarioConfig(
        n_animals=args.animals,
        n_frames=args.frames,
        arena=(args.width, args.height),
        body_radius=args.radius,
        speed_max=args.speed,
        min_separation=args.min_separation,
        seed=args.seed,
    )
    tracks, dataset = synth.generate_scenario(scenario)
    pcfg = synth.PerturbationConfig(
        p_fn=args.p_fn,
        p_fp=args.p_fp,
        n_ids=args.n_ids,
        centroid_noise=args.noise,
        seed=args.perturb_seed,
    )
    preds, log = synth.perturb(tracks, pcfg, body_radius=args.radius)
    log_payload = {
        "fn_events": [[f, lbl] for f, lbl in log.fn_events],
        "fp_events": [[f, lbl] for f, lbl in log.fp_events],
        "ids_events": [[f, a, b] for f, a, b in log.ids_events],
    }
    payloads = {  # all built before the first write, so a refusal leaves no partial scenario
        gt_path: formats.write_coco(dataset),
        tracks_path: tracking.write_tracks_csv(tracks),
        preds_path: formats.write_predictions(preds),
        log_path: (json.dumps(log_payload, indent=2) + "\n").encode("utf-8"),
    }
    for path, data in payloads.items():
        _write_output(path, data, args.force)
    _note(
        f"wrote scenario to {out} ({args.animals} animals, {args.frames} frames,"
        f" fn={log.fn_count} fp={log.fp_count} ids={log.ids_count})"
    )


def _cmd_plot(args) -> None:
    tracks = _load(args.tracks, tracking.read_tracks_csv)
    svg = analytics.plot_trajectories(tracks, args.width, args.height)
    _emit(args.out, svg, args.force)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segtrack",
        description="Multi-animal tracking toolkit: dataset conversion, track assembly, evaluation, analytics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_force(p):
        p.add_argument("--force", action="store_true", help="overwrite existing output files")

    p = sub.add_parser("convert", help="convert a directory of labelme files to one COCO dataset")
    p.add_argument("--labelme-dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--keypoint-radius", type=float, default=5.0)
    add_force(p)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("split", help="split a COCO dataset into train/val parts")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--ratio", type=float, default=0.8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-out", required=True)
    p.add_argument("--val-out", required=True)
    add_force(p)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("sample", help="pick frame indices for labeling")
    p.add_argument("--total", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--strategy", choices=["random", "uniform"], default="random")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    add_force(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("track", help="assemble identity tracks from a prediction stream")
    p.add_argument("--pred", required=True, help="JSON-Lines detection file")
    p.add_argument("--out")
    p.add_argument("--score-threshold", type=float, default=0.5)
    p.add_argument("--max-gap", type=int, default=0, help="interpolate absences up to this many frames")
    add_force(p)
    p.set_defaults(func=_cmd_track)

    p = sub.add_parser("eval-mot", help="CLEAR-MOT evaluation of predictions against COCO ground truth")
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--out")
    p.add_argument("--iou", type=float, default=0.5)
    p.add_argument("--denominator", choices=["gt_objects", "frames"], default="gt_objects")
    p.add_argument("--score-threshold", type=float, default=0.5)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument(
        "--frame-log",
        help="also write the per-frame matching log here as JSON Lines:"
        " frame, matches [gt_id, label, iou], misses, false_positives, switches",
    )
    add_force(p)
    p.set_defaults(func=_cmd_eval_mot)

    p = sub.add_parser("eval-coco", help="COCO mask AP of predictions against COCO ground truth")
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--out")
    p.add_argument("--max-dets", type=int, default=100)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    add_force(p)
    p.set_defaults(func=_cmd_eval_coco)

    p = sub.add_parser("analyze", help="behavior statistics over a track CSV")
    p.add_argument("--tracks", required=True)
    p.add_argument("--out")
    p.add_argument("--zones", help="JSON file: [{name, points: [[x, y], ...]}, ...]")
    p.add_argument("--px-per-unit", type=float, default=1.0)
    p.add_argument("--interactions-out", help="also write pairwise interaction events here")
    p.add_argument("--interaction-distance", type=float, default=20.0)
    p.add_argument("--min-duration", type=int, default=1)
    add_force(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("synth", help="generate a synthetic scenario with injected errors")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--animals", type=int, default=3)
    p.add_argument("--frames", type=int, default=200)
    p.add_argument("--width", type=int, default=256)
    p.add_argument("--height", type=int, default=256)
    p.add_argument("--radius", type=float, default=8.0)
    p.add_argument("--speed", type=float, default=4.0)
    p.add_argument("--min-separation", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p-fn", type=float, default=0.0)
    p.add_argument("--p-fp", type=float, default=0.0)
    p.add_argument("--n-ids", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--perturb-seed", type=int, default=0)
    add_force(p)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("plot", help="render track trajectories to SVG")
    p.add_argument("--tracks", required=True)
    p.add_argument("--out")
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    add_force(p)
    p.set_defaults(func=_cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        args.func(args)
    except (SegtrackError, ValueError, OSError) as e:
        _fail(str(e))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
