"""Checks on the files each CLI op writes.

Every check reads the files with the standard library only, so a bug in
segtrack's own readers cannot hide a bug in its writers.  A check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path


def digest(paths: list[Path]) -> str:
    """SHA-256 over the named files, in order; the first 16 hex digits are kept."""
    h = hashlib.sha256()
    for p in paths:
        data = p.read_bytes()
        h.update(p.name.encode() + b"\0" + str(len(data)).encode() + b"\0" + data)
    return h.hexdigest()[:16]


def _csv_rows(path: Path) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(path.read_text())))


def check_synth(d: Path, animals: int, frames: int) -> list[str]:
    gt = json.loads((d / "gt.json").read_text())
    problems = []
    if len(gt["images"]) != frames:
        problems.append(f"gt.json has {len(gt['images'])} images, expected {frames}")
    if len(gt["annotations"]) != animals * frames:
        problems.append(f"gt.json has {len(gt['annotations'])} annotations, expected {animals * frames}")
    log = json.loads((d / "injection.json").read_text())
    n_preds = sum(1 for line in (d / "preds.jsonl").read_text().splitlines() if line)
    expected = animals * frames - len(log["fn_events"]) + len(log["fp_events"])
    if n_preds != expected:
        problems.append(f"preds.jsonl has {n_preds} records, injection log implies {expected}")
    return problems


def check_convert(out: Path, n_docs: int, animals: int) -> list[str]:
    ds = json.loads(out.read_text())
    problems = []
    if len(ds["images"]) != n_docs:
        problems.append(f"{out.name}: {len(ds['images'])} images, expected {n_docs}")
    if len(ds["annotations"]) != n_docs * animals:
        problems.append(f"{out.name}: {len(ds['annotations'])} annotations, expected {n_docs * animals}")
    if any(len(a["segmentation"][0]) != 40 for a in ds["annotations"]):
        problems.append(f"{out.name}: a polygon lost vertices")
    return problems


def check_split(src: Path, train: Path, val: Path) -> list[str]:
    full, tr, va = (json.loads(p.read_text()) for p in (src, train, val))
    problems = []
    if len(tr["images"]) + len(va["images"]) != len(full["images"]):
        problems.append("split parts do not add up to the input's images")
    if len(tr["annotations"]) + len(va["annotations"]) != len(full["annotations"]):
        problems.append("split parts do not add up to the input's annotations")
    names = {i["file_name"] for i in tr["images"]} | {i["file_name"] for i in va["images"]}
    if names != {i["file_name"] for i in full["images"]}:
        problems.append("split parts do not hold the input's images")
    return problems


def check_tracks(tracks_csv: Path, preds_jsonl: Path) -> list[str]:
    rows = _csv_rows(tracks_csv)
    present = sum(1 for r in rows if r["present"] == "true" and r["interpolated"] == "false")
    n_preds = sum(1 for line in preds_jsonl.read_text().splitlines() if line)
    if present != n_preds:
        return [f"tracks.csv holds {present} detected states for {n_preds} detections"]
    return []


def check_mot(mot_csv: Path, n_gt: int, oracle: dict | None) -> list[str]:
    (row,) = _csv_rows(mot_csv)
    fn, fp, ids = int(row["fn"]), int(row["fp"]), int(row["ids"])
    problems = []
    if int(row["n_gt"]) != n_gt:
        problems.append(f"eval-mot n_gt={row['n_gt']}, expected {n_gt}")
    if abs(float(row["mota"]) - (1 - (fn + fp + ids) / n_gt)) > 1e-6:
        problems.append(f"eval-mot mota={row['mota']} disagrees with its own counts")
    if oracle is not None:
        want = (len(oracle["fn_events"]), len(oracle["fp_events"]), 2 * len(oracle["ids_events"]))
        if (fn, fp, ids) != want:
            problems.append(
                f"eval-mot (fn, fp, ids)={(fn, fp, ids)} but injection.json implies {want}"
                + (" (synth swap defect: a swapped animal had no match before its swap frame)"
                   if (fn, fp) == want[:2] and ids < want[2] else "")
            )
    return problems


def check_ap(ap_csv: Path, categories: set[str]) -> list[str]:
    rows = _csv_rows(ap_csv)
    problems = []
    if {r["category"] for r in rows} != categories:
        problems.append(f"eval-coco rows {sorted(r['category'] for r in rows)} != {sorted(categories)}")
    for r in rows:
        for key in ("AP", "AP50", "AP75", "APS", "APM", "APL"):
            if r[key] != "-" and not 0.0 <= float(r[key]) <= 100.0:
                problems.append(f"eval-coco {r['category']} {key}={r[key]} outside [0, 100]")
    if all(r["AP"] == "-" for r in rows):
        problems.append("eval-coco reported no AP at all")
    return problems


def check_analyze(stats_csv: Path, interactions_csv: Path, tracks_csv: Path) -> list[str]:
    labels = {r["label"] for r in _csv_rows(tracks_csv)}
    stats = _csv_rows(stats_csv)
    problems = []
    if {r["label"] for r in stats} != labels:
        problems.append("analyze rows do not match the tracks")
    for r in stats:
        share = sum(float(v) for k, v in r.items() if k.startswith("zone_"))
        if abs(share - 1.0) > 0.003:  # each share is rounded to 3 decimals
            problems.append(f"analyze zone shares of {r['label']} sum to {share}")
            break
    if not interactions_csv.read_text().startswith("label_a,label_b,start_frame,end_frame\n"):
        problems.append("interactions file has the wrong header")
    return problems


def check_plot(svg: Path) -> list[str]:
    text = svg.read_text()
    if not text.startswith("<svg") or not text.rstrip().endswith("</svg>"):
        return ["plot did not write an SVG document"]
    return []
