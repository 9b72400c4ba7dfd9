"""Behavior statistics over tracks, plus report and plot emission.

All computations are per-track and pure; report emitters produce
deterministic bytes so identical inputs always yield identical files.
"""

from __future__ import annotations

import csv
import io
import json
import math
import zlib
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from . import geometry
from .errors import MissingDataError, brief_list
from .geometry import Polygon, polygon_contains
from .metrics import ApReport, MotReport
from .tracking import Track

# label-stable colors for plots, one of twelve regardless of run
PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
    "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#aec7e8", "#ffbb78",
)

OUTSIDE_ZONE = "outside"


@dataclass(frozen=True)
class ZoneDefinition:
    name: str
    region: Polygon


class ZoneStats(NamedTuple):
    frames: int
    fraction: float


@dataclass(frozen=True)
class InteractionEvent:
    labels: tuple[str, str]
    start_frame: int
    end_frame: int
    criterion: str


@dataclass(frozen=True)
class TrajectoryStats:
    label: str
    distance_traveled: float
    frames_present: int
    mean_speed: float


# ---------------------------------------------------------------------------
# per-track measures


def distance_traveled(track: Track, px_per_unit: float = 1.0) -> float:
    """Total path length through the states' centroids.

    Absence gaps contribute the straight-line step across the gap, a
    conservative lower bound on the real path.
    """
    if px_per_unit <= 0:
        raise ValueError(f"px_per_unit must be > 0, got {px_per_unit}")
    pts = [c for c in (s.centroid for s in track.states) if c is not None]
    total = 0.0
    for a, b in zip(pts, pts[1:]):
        total += math.dist(a, b)
    return total / px_per_unit


def track_stats(track: Track, px_per_unit: float = 1.0) -> TrajectoryStats:
    """Distance, presence count, and mean speed over the active frame span."""
    frames = track.present_frames()
    dist = distance_traveled(track, px_per_unit)
    span = frames[-1] - frames[0] if len(frames) > 1 else 0
    return TrajectoryStats(
        label=track.label,
        distance_traveled=dist,
        frames_present=len(frames),
        mean_speed=dist / span if span else 0.0,
    )


def zone_occupancy(track: Track, zones: Sequence[ZoneDefinition]) -> dict[str, ZoneStats]:
    """Frames and fraction of presence spent in each zone.

    A state counts toward the first listed zone containing its centroid
    (even-odd test); centroids in no zone land in the ``outside``
    bucket.  Fractions are over the states with a centroid and sum to 1.
    """
    counts = {z.name: 0 for z in zones}
    counts[OUTSIDE_ZONE] = counts.get(OUTSIDE_ZONE, 0)
    points = [c for c in (s.centroid for s in track.states) if c is not None]
    for point in points:
        for zone in zones:
            if polygon_contains(zone.region, point):
                counts[zone.name] += 1
                break
        else:
            counts[OUTSIDE_ZONE] += 1
    n = len(points)
    return {name: ZoneStats(c, c / n if n else 0.0) for name, c in counts.items()}


def interaction_events(
    tracks: Sequence[Track],
    criterion: str = "centroid_distance",
    threshold: float = 0.1,
    min_duration: int = 1,
) -> list[InteractionEvent]:
    """Maximal runs of frames where two animals satisfy a closeness criterion, for every pair of tracks.

    Events are sorted by start frame, then labels.  ``mask_iou`` fails
    naming the frames where two or more tracks are present and one has no
    stored segmentation; ``centroid_distance`` compares centroid
    separation against the threshold in pixels.
    """
    if criterion not in ("mask_iou", "centroid_distance"):
        raise ValueError(f"unknown criterion {criterion!r}")
    if criterion == "mask_iou" and not 0.0 < threshold <= 1.0:
        raise ValueError(f"mask_iou threshold must be in (0, 1], got {threshold}")
    if criterion == "centroid_distance" and threshold <= 0:
        raise ValueError(f"distance threshold must be > 0, got {threshold}")
    if min_duration < 1:
        raise ValueError(f"min_duration must be >= 1, got {min_duration}")
    tracks = sorted(tracks, key=lambda t: t.label)
    if len({t.label for t in tracks}) < len(tracks):
        raise ValueError("tracks must carry distinct labels")

    # one sweep over the frames, each holding (label, segmentation or centroid) of its tracks in label order
    by_frame: dict[int, list[tuple[str, object]]] = {}
    for track in tracks:
        for s in track.states:
            value = s.segmentation if criterion == "mask_iou" else s.centroid
            by_frame.setdefault(s.frame, []).append((track.label, value))
    if criterion == "mask_iou":
        missing = sorted(
            f for f, present in by_frame.items()
            if len(present) > 1 and any(seg is None for _, seg in present)
        )
        if missing:
            raise MissingDataError(f"frames missing segmentation for mask IoU: {brief_list(missing)}")

    frames = sorted(by_frame)
    if criterion == "mask_iou":  # every pair of every frame in one call, in sweep order
        segs, pairs = [], []
        for f in frames:
            k0, n = len(segs), len(by_frame[f])
            segs += [seg for _, seg in by_frame[f]]
            pairs += [(k0 + i, k0 + j) for i in range(n) for j in range(i + 1, n)]
        ious = iter(geometry.segmentation_ious(segs, pairs).tolist())

    # [labels, start, end]; runs open in frame, then label-pair order, so they need no sort
    runs: list[list] = []
    last_run: dict[tuple[str, str], list] = {}
    for frame in frames:
        present = by_frame[frame]
        for i, (la, va) in enumerate(present):
            for lb, vb in present[i + 1:]:
                if criterion == "mask_iou":
                    holds = next(ious) >= threshold
                else:
                    holds = va is not None and vb is not None and math.dist(va, vb) <= threshold
                if not holds:
                    continue
                run = last_run.get((la, lb))
                if run is not None and run[2] == frame - 1:
                    run[2] = frame
                else:
                    run = last_run[(la, lb)] = [(la, lb), frame, frame]
                    runs.append(run)
    return [
        InteractionEvent(labels, start, end, criterion)
        for labels, start, end in runs
        if end - start + 1 >= min_duration
    ]


# ---------------------------------------------------------------------------
# report emission


def _fmt(value, decimals=3) -> str:
    if value is None:
        return "-"
    return f"{value:.{decimals}f}"


def csv_bytes(rows: Iterable[Sequence[str]]) -> bytes:
    """CSV lines ending in ``\\n``, each field quoted as the csv module quotes it, as the track CSV is.

    A label may hold a comma or a quote; a field that needs no quoting is written as it is.
    """
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().encode("utf-8")


def emit_report(rows, format: str = "csv", name: str = "-") -> bytes:
    """Serialize an evaluation report or stats table to CSV or JSON bytes.

    Numbers print with fixed precision (3 decimals for AP columns) and
    empty area ranges render as ``-``; output is byte-deterministic.
    """
    if format not in ("csv", "json"):
        raise ValueError(f"unknown format {format!r}")

    if isinstance(rows, ApReport):
        if format == "csv":
            header = ["category", "AP", "AP50", "AP75", "APS", "APM", "APL"]
            return csv_bytes([header, *([row.name, *map(_fmt, row.values())] for row in rows.rows)])
        payload = [
            {
                "category": r.name,
                "AP": r.ap, "AP50": r.ap50, "AP75": r.ap75,
                "APS": r.ap_small, "APM": r.ap_medium, "APL": r.ap_large,
            }
            for r in rows.rows
        ]
        return (json.dumps(payload, indent=2) + "\n").encode("utf-8")

    if isinstance(rows, MotReport):
        if format == "csv":
            header = ["video", "n_frames", "n_gt", "fn", "fp", "ids", "mota", "motp"]
            line = [
                name,
                str(rows.n_frames),
                str(rows.n_gt),
                str(rows.false_negatives),
                str(rows.false_positives),
                str(rows.id_switches),
                f"{rows.mota:.6f}",
                f"{rows.motp:.6f}",
            ]
            return csv_bytes([header, line])
        payload = {
            "video": name,
            "n_frames": rows.n_frames,
            "n_gt": rows.n_gt,
            "fn": rows.false_negatives,
            "fp": rows.false_positives,
            "ids": rows.id_switches,
            "mota": rows.mota,
            "motp": rows.motp,
        }
        return (json.dumps(payload, indent=2) + "\n").encode("utf-8")

    stats = list(rows)
    if not all(isinstance(s, TrajectoryStats) for s in stats):
        raise TypeError("rows must be an ApReport, a MotReport, or TrajectoryStats")
    if format == "csv":
        header = ["label", "distance_traveled", "frames_present", "mean_speed"]
        return csv_bytes(
            [header, *([s.label, f"{s.distance_traveled:.3f}", str(s.frames_present), f"{s.mean_speed:.3f}"] for s in stats)]
        )
    payload = [
        {
            "label": s.label,
            "distance_traveled": s.distance_traveled,
            "frames_present": s.frames_present,
            "mean_speed": s.mean_speed,
        }
        for s in stats
    ]
    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# trajectory plotting


def _svg_text(label: str) -> str:
    """``label`` as SVG character data: ``&``, ``<`` and ``>`` escaped, as a label may hold them."""
    return label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def label_color(label: str) -> str:
    return PALETTE[zlib.crc32(label.encode("utf-8")) % len(PALETTE)]


def plot_trajectories(tracks: Sequence[Track], width: int, height: int) -> bytes:
    """SVG 1.1 rendering of track centroids: one polyline (or dot) per track.

    Colors are a stable hash of the label, so the same animal keeps its
    color across runs and videos.
    """
    if width <= 0 or height <= 0:
        raise ValueError(f"plot dimensions must be positive, got {width}x{height}")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    ordered = sorted(tracks, key=lambda t: t.label)
    for track in ordered:
        pts = [c for c in (s.centroid for s in track.states) if c is not None]
        color = label_color(track.label)
        if len(pts) >= 2:
            coords = " ".join(f"{p.x:.2f},{p.y:.2f}" for p in pts)
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>'
            )
        elif len(pts) == 1:
            parts.append(
                f'<circle cx="{pts[0].x:.2f}" cy="{pts[0].y:.2f}" r="2.5" fill="{color}"/>'
            )
    parts.append('<text x="6" y="14" font-size="12" fill="black">tracks</text>')
    for i, track in enumerate(ordered):
        parts.append(
            f'<text x="6" y="{28 + 14 * i}" font-size="11" '
            f'fill="{label_color(track.label)}">{_svg_text(track.label)}</text>'
        )
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")
