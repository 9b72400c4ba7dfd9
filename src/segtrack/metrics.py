"""Tracking and segmentation evaluation.

CLEAR-MOT accounting with sticky-then-optimal frame matching, and
COCO-style average precision over mask IoU.  Both evaluators are pure
and re-entrant; MOT evaluation is sequential over frames (the sticky
correspondence is stateful) but independent across videos, and AP
evaluation is independent per category.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import geometry
from .errors import SchemaError, SegtrackError, SizeMismatchError, UndefinedMetricError, brief_list
from .formats import CocoDataset, image_frame_map
from .geometry import Segmentation
from .tracking import DetectionRecord, Track

IOU_THRESHOLDS = tuple(0.5 + 0.05 * i for i in range(10))
AREA_RANGES = {
    "all": (0.0, math.inf),
    "small": (0.0, 32.0 ** 2),
    "medium": (32.0 ** 2, 96.0 ** 2),
    "large": (96.0 ** 2, math.inf),
}
RECALL_POINTS = tuple(i / 100.0 for i in range(101))


@dataclass(frozen=True)
class MotConfig:
    """Matching threshold and the accounting denominator.

    ``denominator`` selects what normalizes the error total: the number
    of ground-truth objects summed over frames (the standard choice) or
    the number of frames, which some reported figures use for
    fixed-population videos.
    """

    iou_threshold: float = 0.5
    denominator: str = "gt_objects"

    def __post_init__(self) -> None:
        if not 0.0 < self.iou_threshold <= 1.0:
            raise ValueError(f"iou_threshold must be in (0, 1], got {self.iou_threshold}")
        if self.denominator not in ("gt_objects", "frames"):
            raise ValueError(f"denominator must be 'gt_objects' or 'frames', got {self.denominator!r}")


@dataclass(frozen=True)
class MotFrameLog:
    frame: int
    matches: tuple[tuple[str, str, float], ...]  # (gt_id, pred_label, iou)
    misses: tuple[str, ...]
    false_positives: tuple[str, ...]
    switches: tuple[str, ...]


@dataclass(frozen=True)
class MotReport:
    false_negatives: int
    id_switches: int
    false_positives: int
    n_gt: int
    mota: float
    motp: float
    per_frame_log: tuple[MotFrameLog, ...]

    @property
    def n_frames(self) -> int:
        return len(self.per_frame_log)


@dataclass(frozen=True)
class ApRow:
    """Per-category average precision columns; None marks an empty area range."""

    name: str
    ap: float | None
    ap50: float | None
    ap75: float | None
    ap_small: float | None
    ap_medium: float | None
    ap_large: float | None

    def values(self) -> tuple[float | None, ...]:
        return (self.ap, self.ap50, self.ap75, self.ap_small, self.ap_medium, self.ap_large)


@dataclass(frozen=True)
class ApReport:
    rows: tuple[ApRow, ...]


# ---------------------------------------------------------------------------
# assignment


_TOO_LARGE = "cost matrix entries are too large to compare in floating point"


def _solve(mat: list[list[float]]) -> tuple[list[int], list[float], list[float]]:
    """Minimum-cost perfect matching of a square matrix, with its dual potentials.

    Shortest-augmenting-path formulation, O(n^3).  Returns the column of
    each row and potentials ``u``, ``v`` with ``mat[i][j] - u[i] - v[j]``
    nonnegative everywhere and zero on the matched pairs, up to rounding.
    """
    n = len(mat)
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    p = [0] * (n + 1)  # p[j]: 1-based row index assigned to column j
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [math.inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = math.inf
            j1 = -1
            crow = mat[i0 - 1]
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = crow[j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            if j1 < 0:  # every reduced cost overflowed to inf or nan
                raise ValueError(_TOO_LARGE)
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    col_of = [0] * n
    for j in range(1, n + 1):
        col_of[p[j] - 1] = j - 1
    return col_of, u[1:], v[1:]


def hungarian(cost: Sequence[Sequence[float]]) -> dict[int, int]:
    """Minimum-cost assignment covering min(rows, cols) pairs, in O(n^3).

    Among equal-cost optima the result is canonical: row 0 takes the
    lowest column it can hold in any optimal assignment, then row 1
    among the assignments left, and so on.  "Optimal" allows a tie
    tolerance of ``1e-9 * scale`` (``scale = 1 + max|cost| * n``) on the
    total: row ``r`` may take column ``c`` when the best assignment of
    the rows not yet fixed, with ``r`` on ``c``, costs at most that much
    more than their unconstrained best.  Rectangular inputs are padded
    internally to a square with zero-cost dummy rows or columns, which
    drop out of the returned map.  Costs too large for the potentials
    to stay finite raise ``ValueError``.
    """
    mat = [[float(v) for v in row] for row in cost]
    n_rows = len(mat)
    if n_rows == 0:
        return {}
    n_real = len(mat[0])
    if any(len(row) != n_real for row in mat):
        raise ValueError("cost matrix must be rectangular")
    if n_real == 0:
        return {}
    for row in mat:
        for v in row:
            if not math.isfinite(v):
                raise ValueError(f"cost matrix entries must be finite, got {v}")
    n = max(n_rows, n_real)
    for row in mat:
        row.extend([0.0] * (n - n_real))
    mat.extend([0.0] * n for _ in range(n - n_rows))

    scale = 1.0 + max(abs(v) for row in mat for v in row) * n
    if not math.isfinite(scale):
        raise ValueError(_TOO_LARGE)
    col_of, u, v = _solve(mat)
    if not all(map(math.isfinite, u + v)):
        raise ValueError(_TOO_LARGE)
    tol = 1e-9 * scale

    # Putting row r on column c changes the optimal matching of the
    # unfixed rows along an alternating cycle: c's holder moves to another
    # column, that column's holder moves on, and so on until some row
    # takes r's own column.  The cheapest cycle costs the reduced cost of
    # (r, c) plus the shortest such path from c back to r's column; one
    # Dijkstra over the unfixed rows finds it for every c within tol of
    # r's column.  After the swap, shifting the potentials by the path
    # lengths keeps every reduced cost nonnegative and the new matching
    # tight.
    row_of = [0] * n
    for i, j in enumerate(col_of):
        row_of[j] = i
    free = list(range(n))  # columns not held by a fixed row
    for r in range(n_rows):
        home = col_of[r]
        crow, ur = mat[r], u[r]
        if all(crow[j] - ur - v[j] > tol for j in free if j < home):
            free.remove(home)  # no lower column is even tight: keep home
            continue
        dist = {home: 0.0}  # column -> shortest alternating path to home
        nxt = {}  # column -> the column its holder moves to on that path
        todo = {j: math.inf for j in free if j != home}
        last, reach = home, 0.0
        while todo:
            d, vl = dist[last], v[last]
            for j in todo:
                x = row_of[j]
                w = mat[x][last] - u[x] - vl + d
                if w < todo[j]:
                    todo[j] = w
                    nxt[j] = last
            last = min(todo, key=todo.__getitem__)
            reach = todo.pop(last)
            if reach > tol:
                break  # no column left can close a cycle within tol
            dist[last] = reach
        if not math.isfinite(reach):
            raise ValueError(_TOO_LARGE)
        c = min(j for j in dist if crow[j] - ur - v[j] + dist[j] <= tol)
        for j in free:
            # columns left unreached are at least `reach` from home;
            # capping every distance there keeps reduced costs nonnegative
            d = dist.get(j, reach)
            u[row_of[j]] += d
            v[j] -= d
        x, j = r, c
        while True:
            holder = row_of[j]
            col_of[x] = j
            row_of[j] = x
            if j == home:
                break
            x, j = holder, nxt[j]
        free.remove(c)
    return {r: c for r, c in enumerate(col_of[:n_rows]) if c < n_real}


# ---------------------------------------------------------------------------
# CLEAR-MOT


def mota(fn: int, ids: int, fp: int, n_gt: int) -> float:
    """1 - (FN + IDS + FP) / N_GT."""
    if n_gt <= 0:
        raise UndefinedMetricError(f"n_gt must be positive, got {n_gt}")
    return 1.0 - (fn + ids + fp) / n_gt


def event_rates(count: int, n_frames: int) -> float:
    """Event count as a percentage of frames."""
    if n_frames <= 0:
        raise UndefinedMetricError(f"n_frames must be positive, got {n_frames}")
    return 100.0 * count / n_frames


def match_frame(
    gt: Sequence[tuple[str, Segmentation]],
    preds: Sequence[tuple[str, Segmentation]],
    prev: Mapping[str, str],
    cfg: MotConfig | None = None,
    frame: int = 0,
) -> MotFrameLog:
    """Match one frame's predictions to its ground-truth objects.

    Previous correspondences are kept while their IoU stays at or above
    the threshold (sticky rule); the remainder is assigned by minimum
    total (1 - IoU) cost, discarding below-threshold pairs.  A matched
    ground-truth object whose prediction label differs from its most
    recent matched label counts as an identity switch.  The frame's G×P
    IoU matrix comes from one :func:`geometry.segmentation_ious` call.
    """
    refused: dict[int, SegtrackError] = {}
    segs = [g for _, g in gt] + [p for _, p in preds]
    pairs = [(gi, len(gt) + pj) for gi in range(len(gt)) for pj in range(len(preds))]
    ious = geometry.segmentation_ious(segs, pairs, refused).tolist()
    return _match_frame(gt, preds, _iou_reader(gt, preds, ious, refused, 0, frame), prev, cfg or MotConfig(), frame)


def _size_mismatch(frame: int, label: str, pred: Segmentation, gt: Segmentation) -> SizeMismatchError:
    return SizeMismatchError(
        f"frame {frame}, label {label!r}: mask size {pred.height}x{pred.width}"
        f" differs from the ground truth's {gt.height}x{gt.width}"
    )


def _iou_reader(gt, preds, ious: list[float], refused: Mapping[int, SegtrackError], offset: int, frame: int):
    """``iou(gi, pj)``: value ``offset + gi * len(preds) + pj`` of ``ious``.

    A refused pair raises its refusal where it is read, as its own IoU
    call would have; masks of two sizes are named by frame and label.
    """
    n = len(preds)

    def iou(gi: int, pj: int) -> float:
        k = offset + gi * n + pj
        if k in refused:
            error = refused[k]
            if isinstance(error, SizeMismatchError):
                error = _size_mismatch(frame, preds[pj][0], preds[pj][1], gt[gi][1])
            raise error
        return ious[k]

    return iou


def _match_frame(gt, preds, iou: Callable[[int, int], float], prev: Mapping[str, str], cfg: MotConfig, frame: int) -> MotFrameLog:
    """:func:`match_frame` reading each pair's IoU from ``iou(gi, pj)``."""
    gt_ids = [g[0] for g in gt]
    if len(set(gt_ids)) != len(gt_ids):
        raise ValueError(f"duplicate ground-truth ids in frame {frame}")
    pred_index = {label: j for j, (label, _) in enumerate(preds)}
    if len(pred_index) != len(preds):
        raise ValueError(f"duplicate prediction labels in frame {frame}")

    thr = cfg.iou_threshold
    matches: dict[int, int] = {}
    used_preds: set[int] = set()

    # sticky step; if two objects share a previous label, higher IoU wins
    claims: dict[int, list[tuple[float, int]]] = {}
    for gi, gid in enumerate(gt_ids):
        label = prev.get(gid)
        if label is None or label not in pred_index:
            continue
        pj = pred_index[label]
        v = iou(gi, pj)
        if v >= thr:
            claims.setdefault(pj, []).append((-v, gi))
    for pj, cands in claims.items():
        cands.sort()
        matches[cands[0][1]] = pj
        used_preds.add(pj)

    rem_gt = [gi for gi in range(len(gt)) if gi not in matches]
    rem_pred = [pj for pj in range(len(preds)) if pj not in used_preds]
    if rem_gt and rem_pred:
        cost = [[1.0 - iou(gi, pj) for pj in rem_pred] for gi in rem_gt]
        for ri, ci in hungarian(cost).items():
            gi, pj = rem_gt[ri], rem_pred[ci]
            if iou(gi, pj) >= thr:
                matches[gi] = pj
                used_preds.add(pj)

    rows = []
    switches = []
    for gi in sorted(matches):
        gid = gt_ids[gi]
        label = preds[matches[gi]][0]
        rows.append((gid, label, iou(gi, matches[gi])))
        if gid in prev and prev[gid] != label:
            switches.append(gid)
    misses = tuple(gt_ids[gi] for gi in range(len(gt)) if gi not in matches)
    fps = tuple(preds[pj][0] for pj in range(len(preds)) if pj not in used_preds)
    return MotFrameLog(
        frame=frame,
        matches=tuple(rows),
        misses=misses,
        false_positives=fps,
        switches=tuple(switches),
    )


def _states_by_frame(tracks: Sequence[Track]) -> dict[int, list[tuple[str, Segmentation]]]:
    by_frame: dict[int, list[tuple[str, Segmentation]]] = {}
    for track in sorted(tracks, key=lambda t: t.label):
        for s in track.states:
            if s.segmentation is not None:
                by_frame.setdefault(s.frame, []).append((track.label, s.segmentation))
    return by_frame


def evaluate_mot(
    gt_tracks: Sequence[Track],
    pred_tracks: Sequence[Track],
    cfg: MotConfig | None = None,
) -> MotReport:
    """Fold frame matching over the whole sequence and accumulate the error counts.

    States without a stored mask (e.g. interpolated ones) do not take
    part in matching.  ``n_gt`` follows the configured denominator.
    Every frame's G×P IoUs come from one :func:`geometry.segmentation_ious`
    call; a refused pair (masks of two sizes, a polygon too large for an
    IoU) raises when the matching first reads it, frame by frame, as a
    per-pair IoU did.
    """
    cfg = cfg or MotConfig()
    gt_frames = _states_by_frame(gt_tracks)
    pred_frames = _states_by_frame(pred_tracks)
    total_gt = sum(len(v) for v in gt_frames.values())
    if total_gt == 0:
        raise UndefinedMetricError("no ground-truth objects to evaluate")
    frames = sorted(set(gt_frames) | set(pred_frames))

    # every frame's G x P pairs in one call: frame f's ground truth from segs[g0[f]], its predictions from segs[p0[f]]
    segs: list[Segmentation] = []
    heads = []
    for f in frames:
        gt, preds = gt_frames.get(f, []), pred_frames.get(f, [])
        heads.append((len(segs), len(segs) + len(gt), len(gt), len(preds)))
        segs += [g for _, g in gt] + [p for _, p in preds]
    g0, p0, n_gt, n_pred = np.array(heads, dtype=np.intp).T
    n = n_gt * n_pred
    offsets = np.cumsum(n) - n
    of = np.repeat(np.arange(len(frames)), n)
    k = np.arange(len(of)) - offsets[of]
    pairs = np.stack((g0[of] + k // n_pred[of], p0[of] + k % n_pred[of]), axis=1)
    refused: dict[int, SegtrackError] = {}
    ious = geometry.segmentation_ious(segs, pairs, refused).tolist()

    prev: dict[str, str] = {}
    logs = []
    fn = fp = ids = 0
    iou_sum = 0.0
    n_matches = 0
    for f, offset in zip(frames, offsets.tolist()):
        gt, preds = gt_frames.get(f, []), pred_frames.get(f, [])
        log = _match_frame(gt, preds, _iou_reader(gt, preds, ious, refused, offset, f), prev, cfg, f)
        logs.append(log)
        fn += len(log.misses)
        fp += len(log.false_positives)
        ids += len(log.switches)
        for gid, label, v in log.matches:
            prev[gid] = label
            iou_sum += v
            n_matches += 1
    n_gt = total_gt if cfg.denominator == "gt_objects" else len(frames)
    return MotReport(
        false_negatives=fn,
        id_switches=ids,
        false_positives=fp,
        n_gt=n_gt,
        mota=mota(fn, ids, fp, n_gt),
        motp=iou_sum / n_matches if n_matches else 0.0,
        per_frame_log=tuple(logs),
    )


# ---------------------------------------------------------------------------
# COCO average precision


# outcome of one detection at one IoU threshold
_TP, _FP, _IGNORED = 0, 1, 2


def _match_band(units: list, lo: float, hi: float) -> np.ndarray:
    """Greedy COCO matching of every unit at all thresholds for one area band.

    Returns outcome codes, one row per detection (units in order, each
    unit's detections in score order) and one column per threshold.
    Each threshold keeps its own matched-ground-truth state: a detection
    takes the unmatched ground truth with the highest IoU at or above
    the threshold (ties go to the later candidate), in-band candidates
    before out-of-band ones, which are ignored.  A detection matched to
    ignored ground truth, or unmatched and outside the band, is ignored.
    """
    rows = []
    for g, ious, d_areas in units:
        ignored_gt = [not lo <= ann.area < hi for ann in g]
        order = sorted(range(len(g)), key=ignored_gt.__getitem__)
        taken = [[False] * len(g) for _ in IOU_THRESHOLDS]
        for iou_row, d_area in zip(ious, d_areas):
            unmatched = _FP if lo <= d_area < hi else _IGNORED
            row = []
            for threshold, taken_t in zip(IOU_THRESHOLDS, taken):
                best = -1
                best_iou = threshold
                for k in order:
                    if taken_t[k]:
                        continue
                    if best > -1 and not ignored_gt[best] and ignored_gt[k]:
                        break  # only ignored candidates remain
                    if iou_row[k] < best_iou:
                        continue
                    best = k
                    best_iou = iou_row[k]
                if best > -1:
                    taken_t[best] = True
                    row.append(_IGNORED if ignored_gt[best] else _TP)
                else:
                    row.append(unmatched)
            rows.append(row)
    return np.array(rows, dtype=np.int8).reshape(-1, len(IOU_THRESHOLDS))


def _average_precision(outcomes: np.ndarray, n_gt: int) -> float:
    """101-point interpolated AP from one threshold's outcomes in score order."""
    is_tp = outcomes[outcomes != _IGNORED] == _TP
    if not len(is_tp):
        return 0.0
    tp_cum = np.cumsum(is_tp)
    recall = tp_cum / n_gt
    precision = tp_cum / np.arange(1, len(is_tp) + 1)
    precision = np.maximum.accumulate(precision[::-1])[::-1]  # monotone envelope
    k = np.searchsorted(recall, RECALL_POINTS, side="left")
    total = 0.0
    for p in precision[k[k < len(recall)]].tolist():  # a running sum: np.sum sums pairwise and rounds differently
        total += p
    return total / len(RECALL_POINTS)


def evaluate_coco_ap(
    gt: CocoDataset,
    preds: Sequence[DetectionRecord],
    max_dets: int = 100,
) -> ApReport:
    """COCO-protocol mask AP per category.

    Detections map onto ground-truth images via the frame number; per
    image and category only the ``max_dets`` highest-scoring detections
    are evaluated.  Matching is greedy in score order against the
    unmatched ground truth with the highest IoU at or above each
    threshold in 0.50..0.95.  Area-restricted columns ignore
    out-of-range ground truth (and the detections consumed by it, plus
    unmatched detections outside the range) following the reference
    protocol; ranges with no ground truth render as None.  Every
    (detection, ground truth) IoU of all categories comes from one
    :func:`geometry.segmentation_ious` call; the first refused pair, in
    category, image, score and ground-truth order, raises.
    """
    if max_dets < 1:
        raise ValueError(f"max_dets must be >= 1, got {max_dets}")
    frames = image_frame_map(gt)
    cat_id_of = {c.name: c.id for c in gt.categories}
    unknown = sorted({d.label for d in preds if d.label not in cat_id_of})
    if unknown:
        raise SchemaError(f"unknown categories in predictions: {brief_list(unknown)}")
    bad_frames = sorted({d.frame for d in preds if d.frame not in frames})
    if bad_frames:
        raise SchemaError(f"prediction frames without a matching image: {brief_list(bad_frames)}")

    gts_by_key: dict[tuple[int, int], list] = {}
    for ann in gt.annotations:
        gts_by_key.setdefault((ann.image_id, ann.category_id), []).append(ann)
    dets_by_key: dict[tuple[int, int], list[tuple[int, DetectionRecord]]] = {}
    for idx, det in enumerate(preds):
        key = (frames[det.frame].id, cat_id_of[det.label])
        dets_by_key.setdefault(key, []).append((idx, det))
    for lst in dets_by_key.values():
        lst.sort(key=lambda t: (-t[1].score, t[0]))
        del lst[max_dets:]

    keys_by_cat: dict[int, set[tuple[int, int]]] = {}
    for key in [*gts_by_key, *dets_by_key]:
        keys_by_cat.setdefault(key[1], set()).add(key)
    cats = sorted(gt.categories, key=lambda c: c.id)
    cat_units = [
        [(gts_by_key.get(key, []), dets_by_key.get(key, [])) for key in sorted(keys_by_cat.get(cat.id, ()))]
        for cat in cats
    ]
    # every (detection, ground truth) pair of every unit, in one call
    segs: list[Segmentation] = []  # each unit's detections, then its ground truth
    det_of: list[DetectionRecord | None] = []  # the detection of each of segs, or None
    pairs: list[tuple[int, int]] = []
    for keyed in cat_units:
        for g, d in keyed:
            d0, g0 = len(segs), len(segs) + len(d)
            segs += [det.segmentation for _, det in d] + [ann.segmentation for ann in g]
            det_of += [det for _, det in d] + [None] * len(g)
            pairs += [(d0 + i, g0 + j) for i in range(len(d)) for j in range(len(g))]
    refused: dict[int, SegtrackError] = {}
    ious = geometry.segmentation_ious(segs, pairs, refused).tolist()
    if refused:  # the first in pair order, as one IoU call at a time met it
        first = min(refused)
        if isinstance(refused[first], SizeMismatchError):
            det = det_of[pairs[first][0]]
            raise _size_mismatch(det.frame, det.label, det.segmentation, segs[pairs[first][1]])
        raise refused[first]

    rows = []
    at = 0  # of the next unit's first pair
    for cat, keyed in zip(cats, cat_units):
        units = []
        dets = []
        for g, d in keyed:
            unit_ious = []
            for _ in d:
                unit_ious.append(ious[at:at + len(g)])
                at += len(g)
            d_areas = [det.segmentation.area for _, det in d]
            units.append((g, unit_ious, d_areas))
            dets += d
        by_score = sorted(range(len(dets)), key=lambda j: (-dets[j][1].score, dets[j][0]))

        aps: dict[str, list[float] | None] = {}
        for band, (lo, hi) in AREA_RANGES.items():
            n_gt = sum(1 for g, _, _ in units for ann in g if lo <= ann.area < hi)
            if n_gt == 0:
                aps[band] = None
                continue
            outcomes = _match_band(units, lo, hi)[by_score]
            aps[band] = [_average_precision(outcomes[:, t], n_gt) for t in range(len(IOU_THRESHOLDS))]
        mean = {band: None if v is None else sum(v) / len(v) for band, v in aps.items()}
        every = aps["all"]
        rows.append(
            ApRow(
                name=cat.name,
                ap=mean["all"],
                ap50=None if every is None else every[0],  # IOU_THRESHOLDS[0] is 0.50
                ap75=None if every is None else every[5],  # and IOU_THRESHOLDS[5] is 0.75
                ap_small=mean["small"],
                ap_medium=mean["medium"],
                ap_large=mean["large"],
            )
        )
    return ApReport(rows=tuple(rows))
