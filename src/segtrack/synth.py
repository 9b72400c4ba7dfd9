"""Deterministic synthetic multi-animal scenarios with controlled error injection.

Animals are discs on a bounded random walk; masks are exact rasterized
discs, so every IoU the evaluators compute has unambiguous geometry.
Discs are rasterized in numpy batches (:func:`disc_masks`), whose masks
take their area, centroid and bbox from one run-table pass: a scenario
builds all its discs in one call once the trajectories are drawn, and
the perturbation stage makes every random draw before it builds any
disc, then checks every jittered disc against its truth in one batch.

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


def _require_finite(config, *fields: str) -> None:
    """Refuse a config whose named fields are not all finite, naming the first that is not."""
    for name in fields:
        if not math.isfinite(getattr(config, name)):
            raise ConfigError(f"{name} must be finite, got {getattr(config, name)}")


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
        _require_finite(self, "body_radius", "speed_max", "min_separation")
        if self.n_animals < 1 or self.n_frames < 1:
            raise ConfigError("n_animals and n_frames must be positive")
        if self.body_radius < 1.0 or self.speed_max <= 0:
            raise ConfigError("body_radius must be >= 1 and speed_max > 0")
        if self.min_separation < 0:
            raise ConfigError("min_separation must be >= 0")
        w, h = self.arena
        if w <= 2 * self.body_radius + 1 or h <= 2 * self.body_radius + 1:
            raise ConfigError(f"arena {self.arena} cannot hold a disc of radius {self.body_radius}")
        if w * h >= 2**63:
            raise ConfigError(f"arena {self.arena} has {w * h} pixels; at most 2^63 - 1 are supported")


@dataclass(frozen=True)
class PerturbationConfig:
    p_fn: float = 0.0            # drop probability per (frame, object)
    p_fp: float = 0.0            # expected spurious detections per frame
    n_ids: int = 0               # number of label pair-swap events
    centroid_noise: float = 0.0  # Gaussian jitter std in px
    seed: int = 0

    def __post_init__(self) -> None:
        _require_finite(self, "p_fp", "centroid_noise")
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

_DISC_CHUNK = 1024  # discs per numpy pass: bounds the discs x columns arrays, however long the scenario


def disc_masks(cxs: Sequence[float], cys: Sequence[float], radius: float, height: int, width: int) -> list[RleMask]:
    """Rasterized discs of one radius centred at ``(cxs[k], cys[k])``, as RLE masks in order.

    A pixel is set when its center lies within ``radius`` of the disc's
    center.  The discs are rasterized in numpy passes over chunks of
    ``_DISC_CHUNK``, over discs x columns: each column's row span comes
    from the same float steps a per-column loop takes, and runs that
    touch across a full-height column merge, so the counts are
    canonical.  The batch builds counts only; each mask's area, centroid
    and bbox come from one :func:`geometry._derive_many` pass over them,
    so no mask derives them again.
    """
    cxs = np.asarray(cxs, dtype=float)
    cys = np.asarray(cys, dtype=float)
    if cxs.ndim != 1 or cxs.shape != cys.shape:
        raise ValueError(f"disc centers need two equal-length 1-d sequences, got shapes {cxs.shape} and {cys.shape}")
    if not (np.isfinite(cxs).all() and np.isfinite(cys).all()):
        raise ValueError("disc centers must be finite")
    masks: list[RleMask] = []
    for lo in range(0, len(cxs), _DISC_CHUNK):
        masks += _disc_chunk(cxs[lo : lo + _DISC_CHUNK], cys[lo : lo + _DISC_CHUNK], float(radius), height, width)
    return masks


def _disc_chunk(cxs: np.ndarray, cys: np.ndarray, radius: float, height: int, width: int) -> list[RleMask]:
    k = len(cxs)
    hw = height * width
    rr = radius * radius
    # each disc's column range, clipped to the frame (an off-frame disc gets none)
    c_lo = np.clip(np.ceil(cxs - radius - 0.5), 0, width).astype(np.int64)
    c_hi = np.clip(np.floor(cxs + radius - 0.5), -1, width - 1).astype(np.int64)
    n_cols = np.maximum(c_hi - c_lo + 1, 0)
    disc = np.repeat(np.arange(k), n_cols)  # one entry per (disc, column)
    col = np.arange(len(disc)) - np.repeat(np.cumsum(n_cols) - n_cols - c_lo, n_cols)
    dx = (col + 0.5) - cxs[disc]
    d2 = rr - dx * dx
    dy = np.sqrt(np.where(d2 > 0.0, d2, 0.0))
    cy = cys[disc]
    r0 = np.clip(np.ceil(cy - dy - 0.5), 0, height)
    r1 = np.clip(np.floor(cy + dy - 0.5), -1, height - 1)
    keep = r1 >= r0
    disc, col = disc[keep], col[keep]
    r0 = r0[keep].astype(np.int64)
    n = r1[keep].astype(np.int64) - r0 + 1
    s = col * height + r0  # flat start and end of each column's run
    e = s + n

    # a run touching the previous one across a column boundary (only
    # possible when a column spans the full height) extends it, so zero
    # and one runs keep alternating
    new = np.ones(len(s), dtype=bool)
    new[1:] = (disc[1:] != disc[:-1]) | (s[1:] != e[:-1])
    closes = np.ones(len(s), dtype=bool)  # the last column of a run
    closes[:-1] = new[1:]
    run_start, run_end, run_disc = s[new], e[closes], disc[new]
    prev_end = np.zeros_like(run_end)
    prev_end[1:] = run_end[:-1]
    prev_end[np.flatnonzero(run_disc[1:] != run_disc[:-1]) + 1] = 0  # each disc's first run follows zeros
    run_bounds = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(np.bincount(run_disc, minlength=k), out=run_bounds[1:])
    last_end = np.where(run_bounds[1:] > run_bounds[:-1], np.append(0, run_end)[run_bounds[1:]], 0)  # 0 with no run

    # every disc's counts in one array: a (zero, one) pair per run, then a
    # slot for the trailing zeros, kept only when there are any
    pair_at = 2 * np.arange(len(run_start)) + run_disc
    tail_at = 2 * run_bounds[1:] + np.arange(k)
    counts = np.empty(2 * len(run_start) + k, dtype=np.int64)
    counts[pair_at] = run_start - prev_end
    counts[pair_at + 1] = run_end - run_start
    counts[tail_at] = hw - last_end
    count_lo, count_hi = 2 * run_bounds[:-1] + np.arange(k), tail_at + (last_end < hw)
    flat = counts.tolist()
    masks = [RleMask(height, width, tuple(flat[lo:hi])) for lo, hi in zip(count_lo.tolist(), count_hi.tolist())]
    geometry._derive_many(masks)
    return masks


def disc_mask(cx: float, cy: float, radius: float, height: int, width: int) -> tuple[RleMask, BoundingBox]:
    """One rasterized disc as an RLE mask plus its tight pixel bounding box: :func:`disc_masks` of one."""
    (rle,) = disc_masks([cx], [cy], radius, height, width)
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
    centers = [p for frame in trajectory for p in frame]
    masks = iter(disc_masks([x for x, _ in centers], [y for _, y in centers], cfg.body_radius, height, width))
    ann_id = 1
    for f in range(cfg.n_frames):
        dataset.images.append(
            CocoImage(f + 1, f"frame_{f:06d}.png", height, width, frame_index=f)
        )
        for i in range(n):
            rle = next(masks)
            states[i].append(TrackState(frame=f, score=1.0, segmentation=rle))
            dataset.annotations.append(
                CocoAnnotation(
                    id=ann_id,
                    image_id=f + 1,
                    category_id=cat_id[labels[i]],
                    segmentation=rle,
                    bbox=rle.bbox,
                    area=float(rle.area),
                    iscrowd=0,
                )
            )
            ann_id += 1
    tracks = [Track(labels[i], states[i]) for i in range(n)]
    return tracks, dataset


# ---------------------------------------------------------------------------
# perturbation


def _moved(dx: float, dy: float) -> bool:
    """Whether a centroid offset is large enough to build a jittered disc for."""
    return abs(dx) >= 1e-6 or abs(dy) >= 1e-6


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

    # pass 1: every rng draw, in stream order; no mask is built here, so
    # none can move the rng sequence.  Each planned record is (frame,
    # label, true state, centroid offset), or for a spurious disc (frame,
    # label, None, its center); ``centers`` holds every disc to build.
    perm = {label: label for label in labels}
    log = InjectionLog()
    plan: list[tuple[int, str, TrackState | None, float, float]] = []
    centers: list[tuple[float, float]] = []
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
            dx = dy = 0.0
            if cfg.centroid_noise > 0:
                dx, dy = rng.normal(0.0, cfg.centroid_noise, 2)
                norm = math.hypot(dx, dy)
                if norm > jitter_limit:
                    dx, dy = dx * jitter_limit / norm, dy * jitter_limit / norm
                if _moved(dx, dy):
                    centers.append((state.centroid.x + dx, state.centroid.y + dy))
            plan.append((frame, perm[label], state, dx, dy))

        if cfg.p_fp > 0:
            for _ in range(int(rng.poisson(cfg.p_fp))):
                for attempt in range(100):
                    fx = rng.uniform(body_radius, width - body_radius)
                    fy = rng.uniform(body_radius, height - body_radius)
                    if all(math.dist((fx, fy), c) >= 3.0 * body_radius for c in true_centroids):
                        fp_counter += 1
                        label = f"spurious_{fp_counter:04d}"
                        plan.append((frame, label, None, fx, fy))
                        centers.append((fx, fy))
                        log.fp_events.append((frame, label))
                        break

    # pass 2: every planned disc in one batch, and every jittered disc
    # checked against its true mask in one batch.  It must keep IoU > 0.5;
    # a rejected one halves its offset, one disc at a time, until it does
    # or the offset vanishes.
    discs = iter(disc_masks([x for x, _ in centers], [y for _, y in centers], body_radius, height, width))
    segs = [next(discs) if truth is None or _moved(dx, dy) else truth.segmentation for _, _, truth, dx, dy in plan]
    jittered = [k for k, (_, _, truth, dx, dy) in enumerate(plan) if truth is not None and _moved(dx, dy)]
    checked = [segs[k] for k in jittered] + [plan[k][2].segmentation for k in jittered]
    ious = geometry.segmentation_ious(checked, [(j, len(jittered) + j) for j in range(len(jittered))])
    for k, iou in zip(jittered, ious.tolist()):
        _, _, truth, dx, dy = plan[k]
        while iou <= 0.5:
            dx, dy = dx * 0.5, dy * 0.5
            if not _moved(dx, dy):
                segs[k] = truth.segmentation
                break
            segs[k], _ = disc_mask(truth.centroid.x + dx, truth.centroid.y + dy, body_radius, height, width)
            iou = geometry.segmentation_iou(segs[k], truth.segmentation)
    preds = [DetectionRecord(frame=frame, label=label, score=1.0, segmentation=seg, bbox=seg.bbox) for (frame, label, *_), seg in zip(plan, segs)]
    return preds, log
