"""Deterministic synthetic multi-animal scenarios with controlled error injection.

Animals are discs on a bounded random walk; masks are exact rasterized
discs, so every IoU the evaluators compute has unambiguous geometry.
The perturbation stage drops detections, adds spurious ones, swaps
identity labels, and jitters centroids while logging every injected
event, which makes the generator a ground-truth oracle for the tracking
and evaluation modules: on well-separated scenarios the evaluator must
recover the logged counts exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import geometry
from .errors import ConfigError
from .formats import CocoAnnotation, CocoCategory, CocoDataset, CocoImage
from .geometry import BoundingBox, RleMask
from .tracking import DetectionRecord, Track, TrackState


@dataclass(frozen=True)
class ScenarioConfig:
    n_animals: int = 3
    n_frames: int = 200
    arena: tuple[int, int] = (256, 256)  # (width, height)
    body_radius: float = 8.0
    speed_max: float = 4.0
    min_separation: float = 0.0  # 0 allows crossings
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_animals < 1 or self.n_frames < 1:
            raise ConfigError("n_animals and n_frames must be positive")
        if self.body_radius < 1.0 or self.speed_max <= 0:
            raise ConfigError("body_radius must be >= 1 and speed_max > 0")
        if self.min_separation < 0:
            raise ConfigError("min_separation must be >= 0")
        w, h = self.arena
        if w <= 2 * self.body_radius + 1 or h <= 2 * self.body_radius + 1:
            raise ConfigError(f"arena {self.arena} cannot hold a disc of radius {self.body_radius}")


@dataclass(frozen=True)
class PerturbationConfig:
    p_fn: float = 0.0            # drop probability per (frame, object)
    p_fp: float = 0.0            # expected spurious detections per frame
    n_ids: int = 0               # number of label pair-swap events
    centroid_noise: float = 0.0  # Gaussian jitter std in px
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_fn < 1.0:
            raise ConfigError(f"p_fn must be in [0, 1), got {self.p_fn}")
        if self.p_fp < 0:
            raise ConfigError(f"p_fp must be >= 0, got {self.p_fp}")
        if self.n_ids < 0 or self.centroid_noise < 0:
            raise ConfigError("n_ids and centroid_noise must be >= 0")


@dataclass
class InjectionLog:
    """Frame-stamped record of every perturbation actually applied."""

    fn_events: list[tuple[int, str]] = field(default_factory=list)
    fp_events: list[tuple[int, str]] = field(default_factory=list)
    ids_events: list[tuple[int, str, str]] = field(default_factory=list)

    @property
    def fn_count(self) -> int:
        return len(self.fn_events)

    @property
    def fp_count(self) -> int:
        return len(self.fp_events)

    @property
    def ids_count(self) -> int:
        return len(self.ids_events)


# ---------------------------------------------------------------------------
# disc rasterization (pixel-center rule, column-major counts built directly)


def disc_mask(cx: float, cy: float, radius: float, height: int, width: int) -> tuple[RleMask, BoundingBox]:
    """Rasterized disc as an RLE mask plus its tight pixel bounding box."""
    cx, cy = float(cx), float(cy)  # numpy scalars would make every step below slow
    rr = radius * radius
    counts: list[int] = []
    end = 0  # flat index one past the last one-run
    for c in range(max(0, math.ceil(cx - radius - 0.5)), min(width - 1, math.floor(cx + radius - 0.5)) + 1):
        dx = c + 0.5 - cx
        d2 = rr - dx * dx
        dy = math.sqrt(d2) if d2 > 0.0 else 0.0
        r0 = math.ceil(cy - dy - 0.5)
        r1 = math.floor(cy + dy - 0.5)
        if r0 < 0:
            r0 = 0
        if r1 >= height:
            r1 = height - 1
        if r1 < r0:
            continue
        # a run touching the previous one across a column boundary (only
        # possible when a column spans the full height) extends it, so
        # zero and one runs keep alternating
        s = c * height + r0
        if counts and s == end:
            counts[-1] += r1 - r0 + 1
        else:
            counts += (s - end, r1 - r0 + 1)
        end = c * height + r1 + 1
    if end < height * width:
        counts.append(height * width - end)
    rle = RleMask(height, width, tuple(counts))
    return rle, rle.bbox


# ---------------------------------------------------------------------------
# scenario generation


def _reflect(v: float, lo: float, hi: float) -> float:
    span = hi - lo
    if span <= 0:
        return lo
    t = (v - lo) % (2.0 * span)
    return lo + (span - abs(t - span))


def generate_scenario(cfg: ScenarioConfig) -> tuple[list[Track], CocoDataset]:
    """Seeded disc-animal scenario: tracks with masks plus the matching COCO dataset.

    Each animal follows a bounded random walk with reflective walls and
    per-step displacement at most ``speed_max``; when ``min_separation``
    is positive, steps violating pairwise separation are redrawn (up to
    100 attempts, after which the animal holds position).  Identical
    seeds reproduce identical output, including the dataset bytes.
    """
    rng = np.random.default_rng(cfg.seed)
    width, height = cfg.arena
    lo = cfg.body_radius
    hi_x = width - cfg.body_radius
    hi_y = height - cfg.body_radius
    n = cfg.n_animals

    positions = []
    for i in range(n):
        for attempt in range(1000):
            cand = (rng.uniform(lo, hi_x), rng.uniform(lo, hi_y))
            if cfg.min_separation == 0 or all(
                math.dist(cand, p) >= cfg.min_separation for p in positions
            ):
                positions.append(cand)
                break
        else:
            raise ConfigError(
                f"could not place {n} animals at separation {cfg.min_separation} in arena {cfg.arena}"
            )

    trajectory = [list(positions)]
    for _ in range(1, cfg.n_frames):
        draws = rng.random((n, 2))
        current = list(trajectory[-1])
        for i in range(n):
            # after 100 rejected proposals the animal holds position,
            # which trivially satisfies the separation it held before
            for attempt in range(100):
                if attempt == 0:
                    a, m = draws[i]
                else:
                    a, m = rng.random(2)
                angle = 2.0 * math.pi * a
                mag = cfg.speed_max * m
                cand = (
                    _reflect(current[i][0] + mag * math.cos(angle), lo, hi_x),
                    _reflect(current[i][1] + mag * math.sin(angle), lo, hi_y),
                )
                if cfg.min_separation == 0 or all(
                    j == i or math.dist(cand, current[j]) >= cfg.min_separation
                    for j in range(n)
                ):
                    current[i] = cand
                    break
        trajectory.append(current)

    labels = [f"animal_{i + 1}" for i in range(n)]
    states: list[list[TrackState]] = [[] for _ in range(n)]
    dataset = CocoDataset(
        categories=[CocoCategory(ci + 1, name) for ci, name in enumerate(sorted(labels))]
    )
    cat_id = {c.name: c.id for c in dataset.categories}
    ann_id = 1
    for f in range(cfg.n_frames):
        dataset.images.append(
            CocoImage(f + 1, f"frame_{f:06d}.png", height, width, frame_index=f)
        )
        for i in range(n):
            cx, cy = trajectory[f][i]
            rle, bbox = disc_mask(cx, cy, cfg.body_radius, height, width)
            states[i].append(TrackState(frame=f, score=1.0, segmentation=rle))
            dataset.annotations.append(
                CocoAnnotation(
                    id=ann_id,
                    image_id=f + 1,
                    category_id=cat_id[labels[i]],
                    segmentation=rle,
                    bbox=bbox,
                    area=float(rle.area),
                    iscrowd=0,
                )
            )
            ann_id += 1
    tracks = [Track(labels[i], states[i]) for i in range(n)]
    return tracks, dataset


# ---------------------------------------------------------------------------
# perturbation


def perturb(
    gt_tracks: Sequence[Track],
    cfg: PerturbationConfig,
    body_radius: float | None = None,
) -> tuple[list[DetectionRecord], InjectionLog]:
    """Corrupt ground-truth tracks into a detection stream with a full event log.

    Dropped detections, spurious detections (placed at least three body
    radii from every true animal, so they can never match), and label
    pair-swaps are all logged.  Swap events land on distinct frames and
    the two affected animals are exempt from dropping at the swap frame
    itself, which pins each swap to exactly two identity switches for a
    downstream evaluator.  Centroid jitter is clamped so every jittered
    disc keeps IoU > 0.5 with its true mask.
    """
    states: dict[tuple[int, str], TrackState] = {}
    for track in gt_tracks:
        for s in track.states:
            if s.segmentation is not None:
                states[(s.frame, track.label)] = s
    if not states:
        raise ConfigError("no detections to perturb")
    labels = sorted({label for _, label in states})
    frames = sorted({frame for frame, _ in states})
    first_seg = states[min(states)].segmentation
    height, width = first_seg.height, first_seg.width
    if body_radius is None:
        mean_area = float(np.mean([s.segmentation.area for s in states.values()]))
        body_radius = math.sqrt(mean_area / math.pi)

    if cfg.n_ids > 0 and len(labels) < 2:
        raise ConfigError("label swaps need at least 2 animals")
    if cfg.n_ids > max(0, len(frames) - 1):
        raise ConfigError(
            f"n_ids={cfg.n_ids} exceeds the {max(0, len(frames) - 1)} distinct frames available for swaps"
        )

    rng = np.random.default_rng(cfg.seed)
    swaps: dict[int, tuple[str, str]] = {}
    if cfg.n_ids:
        swap_frames = sorted(rng.choice(frames[1:], size=cfg.n_ids, replace=False).tolist())
        for f in swap_frames:
            i, j = rng.choice(len(labels), size=2, replace=False)
            swaps[f] = (labels[i], labels[j])

    perm = {label: label for label in labels}
    log = InjectionLog()
    preds: list[DetectionRecord] = []
    fp_counter = 0
    jitter_limit = 0.35 * body_radius

    for frame in frames:
        exempt: set[str] = set()
        if frame in swaps:
            la, lb = swaps[frame]
            carrier_a = next(t for t, p in perm.items() if p == la)
            carrier_b = next(t for t, p in perm.items() if p == lb)
            perm[carrier_a], perm[carrier_b] = lb, la
            log.ids_events.append((frame, la, lb))
            exempt = {carrier_a, carrier_b}

        true_centroids = []
        for label in labels:
            state = states.get((frame, label))
            if state is None:
                continue
            true_centroids.append(state.centroid)
            if label not in exempt and cfg.p_fn > 0 and rng.random() < cfg.p_fn:
                log.fn_events.append((frame, label))
                continue
            seg = state.segmentation
            if cfg.centroid_noise > 0:
                dx, dy = rng.normal(0.0, cfg.centroid_noise, 2)
                norm = math.hypot(dx, dy)
                if norm > jitter_limit:
                    dx, dy = dx * jitter_limit / norm, dy * jitter_limit / norm
                while abs(dx) >= 1e-6 or abs(dy) >= 1e-6:
                    cand, _ = disc_mask(
                        state.centroid.x + dx, state.centroid.y + dy, body_radius, height, width
                    )
                    if geometry.rle_iou(cand, state.segmentation) > 0.5:
                        seg = cand
                        break
                    dx, dy = dx * 0.5, dy * 0.5
            preds.append(
                DetectionRecord(
                    frame=frame,
                    label=perm[label],
                    score=1.0,
                    segmentation=seg,
                    bbox=seg.bbox,
                )
            )

        if cfg.p_fp > 0:
            for _ in range(int(rng.poisson(cfg.p_fp))):
                for attempt in range(100):
                    fx = rng.uniform(body_radius, width - body_radius)
                    fy = rng.uniform(body_radius, height - body_radius)
                    if all(math.dist((fx, fy), c) >= 3.0 * body_radius for c in true_centroids):
                        fp_counter += 1
                        label = f"spurious_{fp_counter:04d}"
                        seg, bbox = disc_mask(fx, fy, body_radius, height, width)
                        preds.append(
                            DetectionRecord(
                                frame=frame, label=label, score=1.0, segmentation=seg, bbox=bbox
                            )
                        )
                        log.fp_events.append((frame, label))
                        break
    return preds, log
