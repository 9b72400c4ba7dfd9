"""Independent brute-force reference implementations used only by tests.

Everything here is written as plainly as possible (per-pixel loops,
exhaustive enumeration) so it can serve as an oracle for the optimized
library code without sharing its implementation strategy.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math

import numpy as np

from segtrack import geometry
from segtrack.analytics import InteractionEvent
from segtrack.errors import MissingDataError, brief_list
from segtrack.formats import encode_segmentation
from segtrack.tracking import Track, TrackState, filter_by_score


def raster_oracle(points, height, width, top=0, left=0):
    """Even-odd fill computed one pixel center at a time by ray casting.

    Centers exactly on a crossing count as covered by the crossing at
    or left of them, matching the library's half-open convention.  The
    grid covers frame rows ``top ..`` and columns ``left ..``, so its
    pixel ``[r, c]`` has its center at ``(left + c + 0.5, top + r + 0.5)``.
    """
    n = len(points)
    mask = np.zeros((height, width), dtype=bool)
    for r in range(height):
        py = top + r + 0.5
        for c in range(width):
            px = left + c + 0.5
            crossings = 0
            for i in range(n):
                x1, y1 = points[i]
                x2, y2 = points[(i + 1) % n]
                if (y1 <= py < y2) or (y2 <= py < y1):
                    xc = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
                    if xc <= px:
                        crossings += 1
            mask[r, c] = crossings % 2 == 1
    return mask


def dense_iou(mask_a: np.ndarray, mask_b: np.ndarray) -> float:
    inter = int(np.count_nonzero(mask_a & mask_b))
    union = int(np.count_nonzero(mask_a | mask_b))
    return inter / union if union else 0.0


def brute_force_assignment(cost: np.ndarray) -> float:
    """Minimum assignment cost over every permutation (square matrices)."""
    n = cost.shape[0]
    best = math.inf
    for perm in itertools.permutations(range(n)):
        total = sum(cost[i][perm[i]] for i in range(n))
        if total < best:
            best = total
    return best


def brute_force_assignment_vec(cost: np.ndarray) -> float:
    """Same exhaustive minimum, evaluated with one vectorized pass."""
    n = cost.shape[0]
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    rows = np.arange(n)[None, :]
    return float(cost[rows, perms].sum(axis=1).min())


def canonical_assignment_oracle(cost):
    """The lexicographically smallest optimal assignment, by enumeration.

    Pads to a square with zero-cost dummies, keeps every permutation
    whose total is within ``1e-9 * scale`` of the minimum and returns
    the smallest one (``itertools.permutations`` yields them in
    lexicographic order), without the dummies.
    """
    if not len(cost) or not len(cost[0]):
        return {}
    n = max(len(cost), len(cost[0]))
    mat = np.zeros((n, n))
    mat[: len(cost), : len(cost[0])] = cost
    tol = 1e-9 * (1.0 + float(np.abs(mat).max()) * n)
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    totals = mat[np.arange(n)[None, :], perms].sum(axis=1)
    best = perms[int(np.flatnonzero(totals <= totals.min() + tol)[0])]
    return {r: int(best[r]) for r in range(len(cost)) if best[r] < len(cost[0])}


def _reference_min_cost(mat, rows, cols):
    """Minimal assignment cost covering every row (len(rows) <= len(cols))."""
    n, m = len(rows), len(cols)
    u = [0.0] * (n + 1)
    v = [0.0] * (m + 1)
    p = [0] * (m + 1)
    way = [0] * (m + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [math.inf] * (m + 1)
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = math.inf
            j1 = -1
            crow = mat[rows[i0 - 1]]
            for j in range(1, m + 1):
                if used[j]:
                    continue
                cur = crow[cols[j - 1]] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(m + 1):
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
    return sum(mat[rows[p[j] - 1]][cols[j - 1]] for j in range(1, m + 1) if p[j])


def reference_hungarian(cost):
    """The canonical assignment by re-solving once per (row, candidate column), O(n^5).

    Row ``r`` takes the lowest remaining column whose cost plus the
    optimal completion of the later rows is within ``1e-9 * scale`` of
    the best such total.  Tall inputs get zero-cost dummy columns.
    """
    mat = [[float(v) for v in row] for row in cost]
    n_rows = len(mat)
    if n_rows == 0 or not mat[0]:
        return {}
    n_real = len(mat[0])
    n_cols = max(n_real, n_rows)
    for row in mat:
        row.extend(0.0 for _ in range(n_cols - n_real))
    scale = 1.0 + max(abs(v) for row in mat for v in row) * n_cols
    tol = 1e-9 * scale
    remaining = list(range(n_cols))
    assignment = {}
    for r in range(n_rows):
        sub_rows = list(range(r + 1, n_rows))
        totals = []
        for c in remaining:
            rest = [x for x in remaining if x != c]
            completion = _reference_min_cost(mat, sub_rows, rest) if sub_rows else 0.0
            totals.append(mat[r][c] + completion)
        best = min(totals)
        pick = next(i for i, t in enumerate(totals) if t <= best + tol)
        assignment[r] = remaining.pop(pick)
    return {r: c for r, c in assignment.items() if c < n_real}


# ---------------------------------------------------------------------------
# COCO-AP brute force


def coco_ap_oracle(gt, preds, max_dets=100):
    """Reference AP computed with dense masks and direct 101-point scans.

    Mirrors the documented protocol rule for rule but shares no code
    path with the library evaluator: IoU comes from dense pixel
    counting, matching is a plain double loop, and each recall point is
    answered by scanning every PR prefix instead of building an
    envelope.  Only RLE segmentations on one canvas are supported.

    Returns {category: {"ap", "ap50", "ap75", "small", "medium", "large"}}.
    """
    from segtrack.geometry import rle_to_mask

    thresholds = [0.5 + 0.05 * i for i in range(10)]
    ranges = {
        "all": (0.0, math.inf),
        "small": (0.0, 32.0 ** 2),
        "medium": (32.0 ** 2, 96.0 ** 2),
        "large": (96.0 ** 2, math.inf),
    }
    frame_to_image = {img.frame_index: img.id for img in gt.images}
    cat_names = {c.id: c.name for c in gt.categories}
    cat_of_name = {v: k for k, v in cat_names.items()}

    dense_gt = {}
    gts = {}
    for ann in gt.annotations:
        key = (ann.image_id, ann.category_id)
        gts.setdefault(key, []).append(ann)
        dense_gt[ann.id] = rle_to_mask(ann.segmentation)

    dense_dt = {idx: rle_to_mask(det.segmentation) for idx, det in enumerate(preds)}
    dts = {}
    for idx, det in enumerate(preds):
        key = (frame_to_image[det.frame], cat_of_name[det.label])
        dts.setdefault(key, []).append((idx, det))
    for key in dts:
        ordered = sorted(dts[key], key=lambda t: (-t[1].score, t[0]))
        dts[key] = ordered[:max_dets]

    out = {}
    for cat_id, cat_name in sorted(cat_names.items()):
        keys = sorted(
            {k for k in gts if k[1] == cat_id} | {k for k in dts if k[1] == cat_id}
        )

        def ap_one(threshold, lo, hi):
            n_gt = 0
            for key in keys:
                for ann in gts.get(key, []):
                    if lo <= ann.area < hi:
                        n_gt += 1
            if n_gt == 0:
                return None
            rows = []
            for key in keys:
                g = gts.get(key, [])
                ignore = [not (lo <= ann.area < hi) for ann in g]
                order = sorted(range(len(g)), key=lambda k: ignore[k])
                matched = [False] * len(g)
                for idx, det in dts.get(key, []):
                    dmask = dense_dt[idx]
                    best, best_iou = -1, threshold
                    for k in order:
                        if matched[k]:
                            continue
                        if best > -1 and not ignore[best] and ignore[k]:
                            break
                        v = dense_iou(dmask, dense_gt[g[k].id])
                        if v < best_iou:
                            continue
                        best, best_iou = k, v
                    if best > -1:
                        matched[best] = True
                        rows.append((det.score, idx, not ignore[best], ignore[best]))
                    else:
                        area = int(dmask.sum())
                        rows.append((det.score, idx, False, not (lo <= area < hi)))
            rows.sort(key=lambda t: (-t[0], t[1]))
            kept = [(tp,) for _, _, tp, ig in rows if not ig]
            if not kept:
                return 0.0
            rec, prec = [], []
            tp = fp = 0
            for (is_tp,) in kept:
                tp += 1 if is_tp else 0
                fp += 0 if is_tp else 1
                rec.append(tp / n_gt)
                prec.append(tp / (tp + fp))
            total = 0.0
            for i in range(101):
                r = i / 100.0
                best_p = 0.0
                for k in range(len(rec)):
                    if rec[k] >= r and prec[k] > best_p:
                        best_p = prec[k]
                total += best_p
            return total / 101.0

        def mean_range(lo, hi):
            vals = [ap_one(t, lo, hi) for t in thresholds]
            if vals[0] is None:
                return None
            return sum(vals) / len(vals)

        out[cat_name] = {
            "ap": mean_range(*ranges["all"]),
            "ap50": ap_one(thresholds[0], *ranges["all"]),
            "ap75": ap_one(thresholds[5], *ranges["all"]),
            "small": mean_range(*ranges["small"]),
            "medium": mean_range(*ranges["medium"]),
            "large": mean_range(*ranges["large"]),
        }
    return out


def random_ap_dataset(seed, max_images=20, max_dets_per_image=10, canvas=160, stacked=False):
    """Seeded random dataset + detections for AP oracle comparisons.

    Rectangular RLE instances spanning the small/medium/large area
    bands, with jittered true positives, spurious detections, and
    occasional wrong-category labels.

    ``stacked=True`` rounds scores to one decimal, so ties are common,
    and shuffles the detections, so the order of their indices is not
    the order of their images.  It also places about half of the ground
    truth as a copy of the previous object shifted by at most 2 px, with
    the same category, so one detection clears different thresholds
    against different objects.  None of this takes a random draw when
    ``stacked`` is False, so the default datasets, which gate 04 checks,
    do not depend on it.
    """
    from segtrack.formats import CocoAnnotation, CocoCategory, CocoDataset, CocoImage
    from segtrack.geometry import mask_to_rle
    from segtrack.tracking import DetectionRecord

    rng = np.random.default_rng(seed)
    names = ["a", "b", "c"][: int(rng.integers(1, 4))]
    ds = CocoDataset(categories=[CocoCategory(i + 1, n) for i, n in enumerate(names)])
    n_images = int(rng.integers(1, max_images + 1))
    preds = []
    ann_id = 1

    def rect_rle(x, y, w, h):
        m = np.zeros((canvas, canvas), dtype=bool)
        m[y:y + h, x:x + w] = True
        return mask_to_rle(m)

    def random_rect():
        band = rng.integers(0, 3)
        if band == 0:
            w, h = rng.integers(3, 21, size=2)
        elif band == 1:
            w, h = rng.integers(33, 80, size=2)
        else:
            w, h = rng.integers(97, 130, size=2)
        x = int(rng.integers(0, canvas - w))
        y = int(rng.integers(0, canvas - h))
        return x, y, int(w), int(h)

    def score():
        s = float(rng.uniform(0.05, 1.0))
        return round(s, 1) if stacked else s

    for i in range(n_images):
        ds.images.append(CocoImage(i + 1, f"img_{i:03d}.png", canvas, canvas, frame_index=i))
        n_dets = 0
        below = None  # the object to stack the next one on
        for _ in range(int(rng.integers(0, 5))):
            if below is not None and rng.random() < 0.5:
                x, y, w, h, cat = below
                dx, dy = rng.integers(-2, 3, size=2)
                x = int(np.clip(x + dx, 0, canvas - w))
                y = int(np.clip(y + dy, 0, canvas - h))
            else:
                x, y, w, h = random_rect()
                cat = int(rng.integers(1, len(names) + 1))
            if stacked:
                below = (x, y, w, h, cat)
            seg = rect_rle(x, y, w, h)
            ds.annotations.append(
                CocoAnnotation(
                    id=ann_id, image_id=i + 1, category_id=cat, segmentation=seg,
                    bbox=seg.bbox, area=float(w * h), iscrowd=0,
                )
            )
            ann_id += 1
            if n_dets < max_dets_per_image and rng.random() < 0.8:
                dx, dy = rng.integers(-max(2, w // 3), max(2, w // 3) + 1, size=2)
                x2 = int(np.clip(x + dx, 0, canvas - w))
                y2 = int(np.clip(y + dy, 0, canvas - h))
                label = names[cat - 1] if rng.random() < 0.85 else names[int(rng.integers(0, len(names)))]
                dseg = rect_rle(x2, y2, w, h)
                preds.append(
                    DetectionRecord(
                        frame=i, label=label, score=score(),
                        segmentation=dseg, bbox=dseg.bbox,
                    )
                )
                n_dets += 1
        for _ in range(int(rng.integers(0, 3))):
            if n_dets >= max_dets_per_image:
                break
            x, y, w, h = random_rect()
            seg = rect_rle(x, y, w, h)
            preds.append(
                DetectionRecord(
                    frame=i, label=names[int(rng.integers(0, len(names)))],
                    score=score(),
                    segmentation=seg, bbox=seg.bbox,
                )
            )
            n_dets += 1
    if stacked:
        preds = [preds[i] for i in rng.permutation(len(preds))]
    return ds, preds


# ---------------------------------------------------------------------------
# interaction events, one pair at a time


def reference_interaction_events(a, b, criterion="centroid_distance", threshold=0.1, min_duration=1):
    """Interaction runs of one pair of tracks, walking their common frames.

    The library's former per-pair form: the frame sweep over all tracks
    must give the sorted union of this over every pair.
    """
    if criterion not in ("mask_iou", "centroid_distance"):
        raise ValueError(f"unknown criterion {criterion!r}")
    if criterion == "mask_iou" and not 0.0 < threshold <= 1.0:
        raise ValueError(f"mask_iou threshold must be in (0, 1], got {threshold}")
    if criterion == "centroid_distance" and threshold <= 0:
        raise ValueError(f"distance threshold must be > 0, got {threshold}")
    if min_duration < 1:
        raise ValueError(f"min_duration must be >= 1, got {min_duration}")
    if a.label == b.label:
        raise ValueError("tracks must carry distinct labels")

    common = sorted(set(a.present_frames()) & set(b.present_frames()))
    a_at = {s.frame: s for s in a.states}
    b_at = {s.frame: s for s in b.states}
    if criterion == "mask_iou":
        missing = [
            f for f in common
            if a_at[f].segmentation is None or b_at[f].segmentation is None
        ]
        if missing:
            raise MissingDataError(f"frames missing segmentation for mask IoU: {brief_list(missing)}")

    def holds(frame):
        sa, sb = a_at[frame], b_at[frame]
        if criterion == "mask_iou":
            return geometry.segmentation_iou(sa.segmentation, sb.segmentation) >= threshold
        ca, cb = sa.centroid, sb.centroid
        if ca is None or cb is None:
            return False
        return math.dist(ca, cb) <= threshold

    labels = tuple(sorted((a.label, b.label)))
    events = []
    run_start = None
    prev_frame = None
    for frame in common:
        ok = holds(frame)
        contiguous = prev_frame is not None and frame == prev_frame + 1
        if ok and run_start is not None and contiguous:
            prev_frame = frame
            continue
        if run_start is not None and prev_frame is not None:
            if prev_frame - run_start + 1 >= min_duration:
                events.append(InteractionEvent(labels, run_start, prev_frame, criterion))
            run_start = None
        if ok:
            run_start = frame
        prev_frame = frame
    if run_start is not None and prev_frame - run_start + 1 >= min_duration:
        events.append(InteractionEvent(labels, run_start, prev_frame, criterion))
    return events


# ---------------------------------------------------------------------------
# track assembly and the track CSV, one frame at a time


def _reference_resolve_duplicates(frame_dets):
    """At most one record per label within one frame: highest score, then larger area, then first."""
    frames = {d.frame for d in frame_dets}
    if len(frames) > 1:
        raise ValueError(f"records span multiple frames: {sorted(frames)}")
    best = {}
    for i, det in enumerate(frame_dets):
        area = det.segmentation.area
        prev = best.get(det.label)
        if prev is None:
            best[det.label] = (i, det, area)
            continue
        _, kept, kept_area = prev
        if det.score > kept.score or (det.score == kept.score and area > kept_area):
            best[det.label] = (i, det, area)
    return [det for _, det, _ in sorted(best.values(), key=lambda t: t[0])]


def reference_assemble_tracks(records, threshold):
    """Tracks from a detection stream: filter, regroup by frame, de-duplicate each frame, then group by label.

    The library's former chain: ``assemble_tracks(filter_by_score(...))``
    must give the same tracks in one pass.
    """
    by_frame = {}
    for r in filter_by_score(records, threshold):
        by_frame.setdefault(r.frame, []).append(r)
    deduped = []
    for frame in sorted(by_frame):
        deduped.extend(_reference_resolve_duplicates(by_frame[frame]))
    by_label = {}
    for det in deduped:
        by_label.setdefault(det.label, []).append(det)
    tracks = []
    for label in sorted(by_label):
        group = sorted(by_label[label], key=lambda d: d.frame)
        for a, b in zip(group, group[1:]):
            if a.frame == b.frame:
                raise ValueError(f"duplicate detection for {label!r} at frame {a.frame}")
        states = [TrackState(frame=d.frame, score=d.score, segmentation=d.segmentation) for d in group]
        tracks.append(Track(label, states))
    return tracks


def reference_write_tracks_csv(tracks):
    """The track CSV written one (frame, label) cell at a time through ``csv.writer``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["frame", "label", "present", "cx", "cy", "score", "interpolated"])
    ordered = sorted(tracks, key=lambda t: t.label)
    at = [{s.frame: s for s in t.states} for t in ordered]
    spanned = [t.states for t in ordered if t.states]
    if spanned:
        for frame in range(min(s[0].frame for s in spanned), max(s[-1].frame for s in spanned) + 1):
            for track, states in zip(ordered, at):
                s = states.get(frame)
                if s is None:
                    writer.writerow([frame, track.label, "false", "", "", "", "false"])
                    continue
                c = s.centroid
                writer.writerow(
                    [
                        frame,
                        track.label,
                        "true",
                        f"{c.x:.4f}" if c else "",
                        f"{c.y:.4f}" if c else "",
                        f"{s.score:.6f}" if s.score is not None else "",
                        "true" if s.interpolated else "false",
                    ]
                )
    return buf.getvalue().encode("utf-8")


# ---------------------------------------------------------------------------
# COCO and JSON-Lines writers through json.dumps


def reference_write_coco(ds):
    """The COCO file as ``json.dumps(payload, indent=2)`` writes it, one mask encoded at a time."""
    payload = {
        "images": [
            {
                "id": img.id,
                "file_name": img.file_name,
                "height": img.height,
                "width": img.width,
                **({"frame_index": img.frame_index} if img.frame_index is not None else {}),
            }
            for img in ds.images
        ],
        "annotations": [
            {
                "id": ann.id,
                "image_id": ann.image_id,
                "category_id": ann.category_id,
                "segmentation": encode_segmentation(ann.segmentation),
                "bbox": list(ann.bbox),
                "area": ann.area,
                "iscrowd": ann.iscrowd,
            }
            for ann in ds.annotations
        ],
        "categories": [{"id": c.id, "name": c.name} for c in ds.categories],
    }
    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


def reference_write_predictions(records):
    """The prediction stream as ``json.dumps`` writes each line, one mask encoded at a time."""
    lines = []
    for r in records:
        lines.append(
            json.dumps(
                {
                    "frame": r.frame,
                    "label": r.label,
                    "score": r.score,
                    "bbox": list(r.bbox),
                    "segmentation": encode_segmentation(r.segmentation),
                }
            )
        )
    return ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8")


# ---------------------------------------------------------------------------
# disc rasterization, one disc and one column at a time


def reference_disc_mask(cx, cy, radius, height, width):
    """Rasterized disc as an RLE mask plus its tight pixel bounding box.

    The library's former per-disc loop: ``synth.disc_masks`` must give
    the same counts for every disc, and hand over the area, centroid and
    bbox this mask derives from them.
    """
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
    rle = geometry.RleMask(height, width, tuple(counts))
    return rle, rle.bbox


# ---------------------------------------------------------------------------
# mask centroid and bbox, one column of a run at a time


def reference_centroid_and_bbox(mask):
    """``(centroid, bbox)`` of an RLE mask, walking each run one column at a time.

    The library's former loop: ``RleMask._centroid_and_bbox`` must give
    the same values exactly (the centroid is None on an empty mask).
    """
    starts, ends = mask.runs
    if not starts:
        return None, geometry.BoundingBox(0.0, 0.0, 0.0, 0.0)
    h = mask.height
    col_sum = 0
    row_sum = 0
    top, bottom = h, 0  # row span [top, bottom)
    for s, e in zip(starts, ends):
        while s < e:  # rows r..r+n-1 of column s // h, one column of the run at a time
            r = s % h
            n = e - s if r + e - s <= h else h - r
            col_sum += s // h * n
            row_sum += (2 * r + n - 1) * n // 2
            if r < top:
                top = r
            if r + n > bottom:
                bottom = r + n
            s += n
    area = mask.area
    c_min, c_max = starts[0] // h, (ends[-1] - 1) // h
    return (
        geometry.Point(col_sum / area + 0.5, row_sum / area + 0.5),
        geometry.BoundingBox(float(c_min), float(top), float(c_max - c_min + 1), float(bottom - top)),
    )


# ---------------------------------------------------------------------------
# segmentation IoU, one pair and one window at a time


# the library's former one-ring span cutter, kept verbatim: geometry._spans_many must give its spans
def reference_ring_spans(p: geometry.Polygon, top: int, left: int, height: int, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fill spans ``(rows, c0, c1)`` of a ring in frame pixel indices, clipped to an integer window.

    Span ``k`` covers columns ``c0[k]..c1[k]`` (inclusive) of row
    ``rows[k]``; every span is non-empty, and the spans of one row never
    overlap.  The pixel rule is that of :func:`rasterize`, whose frame is
    the window ``0, 0, height, width``.  No vertex moves with the window.
    """
    pts = p.as_array()
    nxt = np.concatenate((pts[1:], pts[:1]))
    x1, y1, x2, y2 = pts[:, 0], pts[:, 1], nxt[:, 0], nxt[:, 1]
    lo = np.minimum(y1, y2)
    hi = np.maximum(y1, y2)
    r0 = max(top, math.ceil(float(lo.min()) - 0.5))
    r1 = min(top + height - 1, math.ceil(float(hi.max()) - 0.5) - 1)
    if r0 > r1:
        none = np.empty(0, dtype=np.int64)
        return none, none, none

    ys = (np.arange(r0, r1 + 1, dtype=np.float64) + 0.5)[:, None]
    sel = (lo <= ys) & (ys < hi)  # never true on a horizontal edge
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        xs = np.where(sel, x1 + (ys - y1) * (x2 - x1) / (y2 - y1), np.nan)
    xs.sort(axis=1)  # NaN sorts last, leaving crossing pairs up front
    # each row crosses the closed ring an even number of times, so with
    # an odd edge count the last slot is always NaN and pairs with nothing
    n_pairs = xs.shape[1] // 2
    xa = xs[:, 0:2 * n_pairs:2]
    xb = xs[:, 1:2 * n_pairs:2]
    valid = ~np.isnan(xb)
    rows = np.nonzero(valid)[0] + r0
    # clamp to just outside the window so infinite crossings from
    # near-degenerate edges cast cleanly; pairing is unaffected
    xa = np.minimum(np.maximum(xa[valid], left - 1.0), left + width + 1.0)
    xb = np.minimum(np.maximum(xb[valid], left - 1.0), left + width + 1.0)
    c0 = np.maximum(np.ceil(xa - 0.5).astype(np.int64), left)
    c1 = np.minimum(np.ceil(xb - 0.5).astype(np.int64) - 1, left + width - 1)
    ok = c0 <= c1
    return rows[ok], c0[ok], c1[ok]


def _reference_union_spans(rings, top, left, height, width):
    """The spans of every ring in one window, concatenated; spans of two rings may overlap."""
    return tuple(np.concatenate(part) for part in zip(*(reference_ring_spans(r, top, left, height, width) for r in rings)))


def _reference_fill(rings, top, left, height, width):
    """``(top, left, grid)``: the union of ``rings``' pixels in the window, filled over their own extent."""
    rows, c0, c1 = _reference_union_spans(rings, top, left, height, width)
    if not rows.size:
        return top, left, np.zeros((0, 0), dtype=bool)
    top, left = int(rows.min()), int(c0.min())
    return top, left, geometry._fill_spans(rows - top, c0 - left, c1 - left, int(rows.max()) + 1 - top, int(c1.max()) + 1 - left)


def reference_segmentation_iou(a, b):
    """IoU of one pair, each polygon filled per ring into one integer window.

    The library's former one-pair kernel: two masks compare run against
    run (:func:`geometry.rle_iou`); a pair with a polygon compares inside
    the mask's frame, or a window holding both polygons, each polygon
    filled over its own extent and a mask decoding only the columns
    needed.  ``geometry.segmentation_ious`` must give every value
    exactly, and refuse what this refuses.
    """
    operands = (0, 1)
    if isinstance(a, geometry.RleMask):
        if isinstance(b, geometry.RleMask):
            return geometry.rle_iou(a, b)
        a, b, operands = b, a, (1, 0)  # the IoU is symmetric; ``a`` is a polygon from here on
    if isinstance(b, geometry.RleMask):
        window = (0, 0, b.height, b.width)
        if b.height * b.width > geometry._MAX_FILL:
            geometry._check_fill(a, window, operands[0])
    else:
        geometry._check_fill(a, None, operands[0])
        geometry._check_fill(b, None, operands[1])
        (xa, ya, wa, ha), (xb, yb, wb, hb) = a.bbox, b.bbox
        top, left = math.floor(min(ya, yb)) - 1, math.floor(min(xa, xb)) - 1
        window = (top, left, math.ceil(max(ya + ha, yb + hb)) + 1 - top, math.ceil(max(xa + wa, xb + wb)) + 1 - left)
    top, left, grid = _reference_fill(a.rings, *window)
    h, w = grid.shape
    if isinstance(b, geometry.RleMask):
        other, other_area = geometry._rle_columns(b, left, left + w)[top:top + h], b.area
    else:
        rows, c0, c1 = _reference_union_spans(b.rings, top, left, h, w)
        other = geometry._fill_spans(rows - top, c0 - left, c1 - left, h, w)
        other_area = int(np.count_nonzero(_reference_fill(b.rings, *window)[2]))
    inter = int(np.count_nonzero(grid & other))
    union = int(np.count_nonzero(grid)) + other_area - inter
    return inter / union if union else 0.0
