"""Per-frame classified detections to identity tracks, with no association step.

Because every animal is its own detection class, a track is simply the
time series of detections carrying one label; assembling tracks needs
no cross-frame matching, motion model, or re-identification.  A track
state is one detection, positioned at its mask's centroid, and a frame
with no detection has no state.  This module also extracts discrete
events from tracks: newly appearing stationary spots and behavior
bouts.
"""

from __future__ import annotations

import csv
import io
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import OutOfRangeError, SchemaError
from .geometry import BoundingBox, Point, Segmentation


@dataclass(frozen=True)
class DetectionRecord:
    """One model output for one frame: identity (or behavior) label plus geometry."""

    frame: int
    label: str
    score: float
    segmentation: Segmentation
    bbox: BoundingBox

    def __post_init__(self) -> None:
        if self.frame < 0:
            raise ValueError(f"frame must be >= 0, got {self.frame}")
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must be in [0, 1], got {self.score}")
        if not self.label:
            raise ValueError("label must be non-empty")


@dataclass(frozen=True)
class TrackState:
    """One detection of a track; a frame with no detection has no state.

    The position is the segmentation's centroid.  Only a state without
    a mask (interpolated, or read back from a track CSV) carries it as
    ``point``.
    """

    frame: int
    score: float | None = None
    segmentation: Segmentation | None = None
    interpolated: bool = False
    point: Point | None = None

    def __post_init__(self) -> None:
        if self.point is not None and self.segmentation is not None:
            raise ValueError("a state with a segmentation takes its centroid from it, not from point")

    @property
    def centroid(self) -> Point | None:
        if self.segmentation is not None:
            return self.segmentation.centroid
        return self.point


class Track:
    """Frame-indexed state sequence for one identity label."""

    def __init__(self, label: str, states: Iterable[TrackState]):
        states = sorted(states, key=lambda s: s.frame)
        for a, b in zip(states, states[1:]):
            if a.frame == b.frame:
                raise ValueError(f"track {label!r} has two states at frame {a.frame}")
        self.label = label
        self.states = states

    def present_frames(self) -> list[int]:
        return [s.frame for s in self.states]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Track)
            and self.label == other.label
            and self.states == other.states
        )

    def __repr__(self) -> str:
        return f"Track({self.label!r}, {len(self.states)} states)"


@dataclass(frozen=True)
class SpotEvent:
    """A stationary mark (e.g. a deposited drop) confirmed over several frames."""

    first_frame: int
    location: Point
    confirmed_frame: int


@dataclass(frozen=True)
class Bout:
    """Maximal run of frames sharing one behavior label, inclusive on both ends."""

    behavior: str
    start_frame: int
    end_frame: int


# ---------------------------------------------------------------------------
# detection-stream operations


def filter_by_score(dets: Sequence[DetectionRecord], threshold: float) -> list[DetectionRecord]:
    """Keep records with score >= threshold, preserving order."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    return [d for d in dets if d.score >= threshold]


def assemble_tracks(dets: Sequence[DetectionRecord]) -> list[Track]:
    """One track per distinct label, with a state exactly where that label was detected.

    A label detected twice in one frame keeps one record: the highest
    score, then the larger mask area, then the first in the input.
    """
    by_label: dict[str, dict[int, DetectionRecord]] = defaultdict(dict)
    for det in dets:
        kept = by_label[det.label]
        prev = kept.get(det.frame)
        if prev is None or det.score > prev.score or (
            det.score == prev.score and det.segmentation.area > prev.segmentation.area
        ):
            kept[det.frame] = det
    return [
        Track(label, [TrackState(frame=d.frame, score=d.score, segmentation=d.segmentation) for d in kept.values()])
        for label, kept in sorted(by_label.items())
    ]


def tracks_to_detections(tracks: Sequence[Track]) -> list[DetectionRecord]:
    """Flatten tracks back into frame-major detection records (states with a mask only)."""
    keyed = sorted(  # (frame, track index) is unique, so the sort never compares states
        (s.frame, i, track.label, s)
        for i, track in enumerate(tracks)
        for s in track.states
        if s.segmentation is not None
    )
    return [
        DetectionRecord(
            frame=frame,
            label=label,
            score=s.score if s.score is not None else 1.0,
            segmentation=s.segmentation,
            bbox=s.segmentation.bbox,
        )
        for frame, _, label, s in keyed
    ]


def interpolate_gaps(track: Track, max_gap: int) -> Track:
    """Fill interior absence runs of length <= max_gap with interpolated states.

    Inserted states carry a linearly interpolated centroid as ``point``,
    no score and no segmentation; original states are never modified.
    """
    if max_gap < 0:
        raise ValueError(f"max_gap must be >= 0, got {max_gap}")
    if max_gap == 0 or len(track.states) < 2:
        return Track(track.label, track.states)
    states = list(track.states)
    for a, b in zip(track.states, track.states[1:]):
        gap = b.frame - a.frame - 1
        if gap < 1 or gap > max_gap:
            continue
        ca, cb = a.centroid, b.centroid
        if ca is None or cb is None:
            continue
        span = b.frame - a.frame
        for frame in range(a.frame + 1, b.frame):
            t = (frame - a.frame) / span
            point = Point(ca.x + t * (cb.x - ca.x), ca.y + t * (cb.y - ca.y))
            states.append(TrackState(frame=frame, interpolated=True, point=point))
    return Track(track.label, states)


# ---------------------------------------------------------------------------
# event extraction


def detect_novel_spots(
    dets: Sequence[DetectionRecord],
    min_dist: float,
    persistence: int = 3,
) -> list[SpotEvent]:
    """Confirm newly appearing stationary spots from one class of detections.

    A detection founds a candidate spot when its centroid is at least
    ``min_dist`` from every confirmed spot; the candidate is confirmed
    once supporting detections have appeared in ``persistence`` distinct
    frames (not necessarily consecutive -- the spots do not move).
    Confirmed spots suppress re-detections for the rest of the sequence.
    """
    if min_dist <= 0:
        raise ValueError(f"min_dist must be > 0, got {min_dist}")
    if persistence < 1:
        raise ValueError(f"persistence must be >= 1, got {persistence}")

    confirmed: list[Point] = []
    events: list[SpotEvent] = []
    # candidate: [location, first_frame, frames_counted, last_counted_frame]
    candidates: list[list] = []

    for det in sorted(dets, key=lambda d: d.frame):
        c = det.segmentation.centroid
        if any(math.dist(c, s) < min_dist for s in confirmed):
            continue
        nearest = None
        nearest_d = min_dist
        for cand in candidates:
            d = math.dist(c, cand[0])
            if d < nearest_d:
                nearest, nearest_d = cand, d
        if nearest is None:
            candidates.append([c, det.frame, 1, det.frame])
            nearest = candidates[-1]
        elif det.frame != nearest[3]:
            nearest[2] += 1
            nearest[3] = det.frame
        if nearest[2] >= persistence:
            events.append(SpotEvent(first_frame=nearest[1], location=nearest[0], confirmed_frame=det.frame))
            confirmed.append(nearest[0])
            candidates.remove(nearest)
    return sorted(events, key=lambda e: (e.first_frame, e.confirmed_frame))


def segment_bouts(frame_labels: Sequence[str], min_duration: int = 1) -> list[Bout]:
    """Split a per-frame label sequence into bouts.

    Runs shorter than ``min_duration`` are absorbed into the preceding
    surviving bout when adjacent to it, otherwise dropped, so brief
    label flickers do not fragment long bouts.
    """
    if min_duration < 1:
        raise ValueError(f"min_duration must be >= 1, got {min_duration}")
    runs: list[list] = []
    for i, label in enumerate(frame_labels):
        if runs and runs[-1][0] == label:
            runs[-1][2] = i
        else:
            runs.append([label, i, i])

    bouts: list[Bout] = []
    for label, start, end in runs:
        if end - start + 1 >= min_duration:
            if bouts and bouts[-1].behavior == label and bouts[-1].end_frame == start - 1:
                bouts[-1] = Bout(label, bouts[-1].start_frame, end)
            else:
                bouts.append(Bout(label, start, end))
        elif bouts and bouts[-1].end_frame == start - 1:
            bouts[-1] = Bout(bouts[-1].behavior, bouts[-1].start_frame, end)
    return bouts


# ---------------------------------------------------------------------------
# CSV interchange

_CSV_HEADER = ["frame", "label", "present", "cx", "cy", "score", "interpolated"]
_MAX_ROWS = 20_000_000  # about 0.7 GB of CSV at roughly 34 bytes a row


def check_tracks_csv_rows(tracks: Sequence[Track]) -> tuple[int, int]:
    """The frame span ``(first, last)`` of the track CSV of ``tracks``, checked against the row limit.

    The CSV has one row per label per frame of the span, and more than
    ``_MAX_ROWS`` rows raises :class:`OutOfRangeError`.  Interpolation
    fills only interior frames, so tracks give the same answer before
    :func:`interpolate_gaps` as after it.
    """
    spanned = [t.states for t in tracks if t.states]
    first = min((s[0].frame for s in spanned), default=0)
    last = max((s[-1].frame for s in spanned), default=-1)  # no states, no frames
    n_rows = len(tracks) * (last - first + 1)
    if n_rows > _MAX_ROWS:
        raise OutOfRangeError(
            f"track CSV would have {n_rows} rows (frames {first} to {last}, labels: {len(tracks)}),"
            f" more than the limit of {_MAX_ROWS}"
        )
    return first, last


def write_tracks_csv(tracks: Sequence[Track]) -> bytes:
    """Track export: one row per (frame, label) over the full frame span.

    More than ``_MAX_ROWS`` rows raises :class:`OutOfRangeError` before
    any row is formatted (:func:`check_tracks_csv_rows`).
    """
    first, last = check_tracks_csv_rows(tracks)
    ordered = sorted(tracks, key=lambda t: t.label)
    tails = []  # each label's absent row after its frame
    rows_at: dict[int, list[tuple[int, str]]] = defaultdict(list)  # frame -> (track index, row)
    for i, track in enumerate(ordered):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow([track.label, ""])
        lead = buf.getvalue()[:-1]  # the label as the csv module quotes it, and a comma
        tails.append(lead + "false,,,,false\n")
        for s in track.states:
            c = s.centroid
            xy = f"{c.x:.4f},{c.y:.4f}" if c is not None else ","
            score = f"{s.score:.6f}" if s.score is not None else ""
            interpolated = "true" if s.interpolated else "false"
            rows_at[s.frame].append((i, f"{s.frame},{lead}true,{xy},{score},{interpolated}\n"))
    out = io.BytesIO()
    out.write((",".join(_CSV_HEADER) + "\n").encode("utf-8"))
    for frame in range(first, last + 1):
        prefix = f"{frame},"
        rows = [prefix + tail for tail in tails]
        for i, row in rows_at.get(frame, ()):
            rows[i] = row
        out.write("".join(rows).encode("utf-8"))
    return out.getvalue()


def read_tracks_csv(data: bytes | str) -> list[Track]:
    """Rebuild tracks from the CSV export (geometry is not round-tripped); a bad row raises SchemaError.

    An absent row carries no values: its cx, cy and score are empty and
    interpolated is false.  Every row's frame is an integer.
    """
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    reader = csv.reader(io.StringIO(text))
    by_label: dict[str, list[TrackState]] = {}
    try:
        header = next(reader, None)
        if header != _CSV_HEADER:
            raise ValueError(f"unexpected header {header!r}")
        for row in reader:
            if not row:
                continue
            frame, label, present, cx, cy, score, interpolated = row
            if interpolated != "false" and interpolated != "true":
                raise ValueError(f"interpolated must be true or false, got {interpolated!r}")
            if label not in by_label:  # not setdefault, which would make a list for every row
                by_label[label] = []
            if present == "true":
                x, y = (float(cx), float(cy)) if cx else (0.0, 0.0)
                s = float(score) if score else 0.0
                if (x - x) + (y - y) + (s - s) != 0.0:  # v - v is 0.0 for a finite v, NaN for nan or inf
                    raise ValueError(f"cx, cy and score must be finite, got {cx!r}, {cy!r}, {score!r}")
                by_label[label].append(
                    TrackState(
                        frame=int(frame),
                        score=s if score else None,
                        interpolated=interpolated == "true",
                        point=Point(x, y) if cx else None,
                    )
                )
            elif present != "false":
                raise ValueError(f"present must be true or false, got {present!r}")
            elif cx or cy or score or interpolated != "false":
                raise ValueError(
                    "an absent row must have empty cx, cy and score and interpolated false,"
                    f" got {cx!r}, {cy!r}, {score!r}, {interpolated!r}"
                )
            elif not frame.isdecimal():  # an absent row's frame is an integer too; most need no int() call
                int(frame)
    except (ValueError, csv.Error) as e:
        raise SchemaError(f"line {reader.line_num}: {e}") from None
    try:
        return [Track(label, states) for label, states in sorted(by_label.items())]
    except ValueError as e:  # two rows of one label at one frame
        raise SchemaError(str(e)) from None
