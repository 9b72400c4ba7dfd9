"""Benchmark-side inputs derived from a synthesized scenario.

None of this calls segtrack: it reads the files `segtrack synth` wrote
and writes the other inputs a unit needs, all seeded.

- Labelme documents: a person labels every k-th frame by clicking about
  20 vertices around each animal, so each true disc becomes a slightly
  irregular polygon.
- A scored, detector-style stream for `eval-coco`.  Synth's stream has
  two properties a real detector's does not: every score is 1.0, which
  makes the AP ranking all ties, and spurious detections carry
  `spurious_*` labels, which `eval-coco` rejects because they are not
  ground-truth categories.  The derived stream keeps every mask, gives
  each spurious detection an animal label, and draws overlapping scores
  (true detections from [0.35, 1.0), spurious ones from [0.05, 0.8)).
  `track` and `eval-mot` keep synth's own stream, so the injection log
  stays an exact oracle for them.
- A zones file for `analyze`.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

N_VERTICES = 20


def read_gt_centres(gt_tracks_csv: Path) -> dict[int, list[tuple[str, float, float]]]:
    """Per frame, the (label, cx, cy) of every present ground-truth animal."""
    centres: dict[int, list[tuple[str, float, float]]] = {}
    with open(gt_tracks_csv, newline="") as f:
        for row in csv.DictReader(f):
            if row["present"] == "true":
                centres.setdefault(int(row["frame"]), []).append(
                    (row["label"], float(row["cx"]), float(row["cy"]))
                )
    return centres


def hand_polygon(rng: np.random.Generator, cx: float, cy: float, radius: float) -> list[list[float]]:
    angles = 2 * math.pi * (np.arange(N_VERTICES) + rng.uniform(-0.3, 0.3, N_VERTICES)) / N_VERTICES
    radii = radius * rng.uniform(0.92, 1.12, N_VERTICES)
    return [
        [round(cx + r * math.cos(a), 2), round(cy + r * math.sin(a), 2)]
        for a, r in zip(angles.tolist(), radii.tolist())
    ]


def write_labelme(
    out_dir: Path,
    centres: dict[int, list[tuple[str, float, float]]],
    every: int,
    radius: float,
    width: int,
    height: int,
    seed: int,
) -> int:
    """One labelme document per labelled frame; returns the number written."""
    out_dir.mkdir(parents=True)
    rng = np.random.default_rng([seed, 1])
    n = 0
    for frame in sorted(centres)[::every]:
        shapes = [
            {
                "label": label,
                "points": hand_polygon(rng, cx, cy, radius),
                "group_id": None,
                "shape_type": "polygon",
                "flags": {},
            }
            for label, cx, cy in centres[frame]
        ]
        doc = {
            "version": "5.2.1",
            "flags": {},
            "shapes": shapes,
            "imagePath": f"frame_{frame:06d}.png",
            "imageData": None,
            "imageHeight": height,
            "imageWidth": width,
        }
        (out_dir / f"frame_{frame:06d}.json").write_text(json.dumps(doc, indent=2))
        n += 1
    return n


def write_scored_stream(preds_jsonl: Path, out: Path, seed: int) -> int:
    """Rewrite synth's stream as a scored detector stream; returns the record count."""
    records = [json.loads(line) for line in preds_jsonl.read_text().splitlines() if line]
    animals = sorted({r["label"] for r in records if not r["label"].startswith("spurious_")})
    rng = np.random.default_rng([seed, 2])
    lines = []
    for r in records:
        if r["label"].startswith("spurious_"):
            r["label"] = animals[int(rng.integers(len(animals)))]
            r["score"] = round(float(rng.uniform(0.05, 0.8)), 4)
        else:
            r["score"] = round(float(rng.uniform(0.35, 1.0)), 4)
        lines.append(json.dumps(r))
    out.write_text("\n".join(lines) + "\n")
    return len(records)


def write_zones(out: Path, width: int, height: int) -> None:
    zones = [
        {"name": "centre", "points": [[width / 4, height / 4], [3 * width / 4, height / 4],
                                      [3 * width / 4, 3 * height / 4], [width / 4, 3 * height / 4]]},
        {"name": "corner", "points": [[0, 0], [width / 3, 0], [0, height / 3]]},
    ]
    out.write_text(json.dumps(zones))
