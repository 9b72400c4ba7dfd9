"""Per-layer tracing from outside the package.

`Tracer.install()` replaces every public function of the layer modules
with a timing wrapper, everywhere a caller looks the name up: in its own
module and in each segtrack module that imported it by name.
`uninstall()` puts the originals back.  Spans are aggregated as they
close (calls, self time) instead of being kept one by one, and a few
functions also feed counters computed from their arguments and results.

Self time is a span's duration minus the time of the spans it encloses,
so the self times of all wrapped calls add up to the time spent inside
the package.  Class methods (for example the dataclass validators) are
not wrapped; their time counts toward the function that called them.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict
from typing import Callable

LAYERS = ("geometry", "formats", "tracking", "metrics", "analytics", "synth", "cli")


def _seg_kind(seg) -> str:
    return "rle" if type(seg).__name__ == "RleMask" else "poly"


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.max_n = 0
        self._stack: list[float] = []  # time of closed child spans, per open span
        self._patched: list[tuple[object, str, Callable]] = []
        self._observers = {
            "geometry.segmentation_iou": self._on_iou,
            "formats.read_coco": lambda a, r: self._add("formats.read_coco.annotations", len(r.annotations)),
            "formats.parse_predictions": lambda a, r: self._add("formats.parse_predictions.records", len(r)),
            "formats.write_coco": lambda a, r: self._add("formats.write_coco.bytes", len(r)),
            "formats.write_predictions": lambda a, r: self._add("formats.write_predictions.bytes", len(r)),
            "tracking.filter_by_score": self._on_filter,
            "tracking.resolve_duplicates": lambda a, r: self._add("tracking.resolve_duplicates.dropped", len(a[0]) - len(r)),
            "tracking.assemble_tracks": lambda a, r: self._add("tracking.assemble_tracks.tracks", len(r)),
            "tracking.write_tracks_csv": lambda a, r: self._add("tracking.write_tracks_csv.rows", r.count(b"\n") - 1),
            "metrics.hungarian": self._on_hungarian,
            "metrics.match_frame": self._on_match_frame,
        }

    # -- counters -----------------------------------------------------------

    def _add(self, name: str, value: float) -> None:
        self.counts[name] += value

    def _on_iou(self, args, result) -> None:
        kinds = sorted((_seg_kind(args[0]), _seg_kind(args[1])))
        pair = {("rle", "rle"): "rle_rle", ("poly", "poly"): "poly_poly"}.get(tuple(kinds), "mixed")
        self._add(f"geometry.iou_pairs.{pair}", 1)
        self._add("geometry.iou_zero", result == 0.0)

    def _on_filter(self, args, result) -> None:
        self._add("tracking.filter_by_score.in", len(args[0]))
        self._add("tracking.filter_by_score.kept", len(result))

    def _on_hungarian(self, args, result) -> None:
        rows = len(args[0])
        cols = len(args[0][0]) if rows else 0
        self.max_n = max(self.max_n, rows, cols)
        self._add("metrics.hungarian.cells", rows * cols)

    def _on_match_frame(self, args, result) -> None:
        prev = args[2]
        self._add("metrics.matches", len(result.matches))
        self._add("metrics.sticky_matches", sum(1 for gid, label, _ in result.matches if prev.get(gid) == label))

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stack = self._stack
        observe = self._observers.get(name)
        perf = time.perf_counter
        calls, self_s = self.calls, self.self_s

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf() - t0
                child = stack.pop()
                calls[name] += 1
                self_s[name] += span - child
                if stack:
                    stack[-1] += span
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "segtrack" or n.startswith("segtrack.")]
        wrappers: dict[int, Callable] = {}
        for layer in LAYERS:
            mod = sys.modules[f"segtrack.{layer}"]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- report -------------------------------------------------------------

    def per_unit(self, n_units: int) -> dict[str, float]:
        """Counters and times divided by the number of traced units."""
        c, s, k = self.calls, self.self_s, self.counts

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v for n, v in s.items() if n.startswith(layer + ".")) / n_units
        timed = {
            "geometry": ["segmentation_iou", "rasterize", "rle_iou", "rle_decode_string", "centroid", "rle_encode_string"],
            "formats": ["read_coco", "parse_predictions", "write_coco", "write_predictions", "parse_labelme",
                        "labelme_to_coco", "split_dataset", "coco_to_tracks"],
            "tracking": ["assemble_tracks", "interpolate_gaps", "write_tracks_csv", "read_tracks_csv"],
            "metrics": ["hungarian", "match_frame", "evaluate_mot", "evaluate_coco_ap"],
            "analytics": ["track_stats", "zone_occupancy", "interaction_events", "plot_trajectories"],
            "synth": ["generate_scenario", "perturb", "disc_mask"],
            "cli": ["main"],
        }
        counted = {"geometry.segmentation_iou", "geometry.rasterize", "geometry.rle_iou", "geometry.rle_decode_string",
                   "geometry.centroid", "geometry.rle_encode_string", "metrics.hungarian", "metrics.match_frame",
                   "analytics.interaction_events", "synth.disc_mask"}
        for layer, names in timed.items():
            for fn in names:
                full = f"{layer}.{fn}"
                out[f"{full}.self_s"] = s.get(full, 0.0) / n_units
                if full in counted:
                    out[f"{full}.calls"] = c.get(full, 0) / n_units
        for pair in ("rle_rle", "mixed", "poly_poly"):
            out[f"geometry.iou_pairs.{pair}"] = k[f"geometry.iou_pairs.{pair}"] / n_units
        out["geometry.iou_zero_share"] = ratio(k["geometry.iou_zero"], c.get("geometry.segmentation_iou", 0))
        for name in ("formats.read_coco.annotations", "formats.parse_predictions.records", "formats.write_coco.bytes",
                     "formats.write_predictions.bytes", "tracking.resolve_duplicates.dropped",
                     "tracking.assemble_tracks.tracks", "tracking.write_tracks_csv.rows", "metrics.hungarian.cells"):
            out[name] = k[name] / n_units
        out["tracking.filter_by_score.kept_share"] = ratio(k["tracking.filter_by_score.kept"],
                                                           k["tracking.filter_by_score.in"])
        out["metrics.hungarian.max_n"] = float(self.max_n)
        out["metrics.sticky_share"] = ratio(k["metrics.sticky_matches"], k["metrics.matches"])
        return out
