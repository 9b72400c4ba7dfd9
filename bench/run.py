#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the segtrack command-line pipeline.

    python3 bench/run.py --workload long_video --seed 0 --seconds 42 --trace 0
    python3 bench/run.py --smoke

Run it from the repository root.  It imports segtrack from ./src, so each
checkout measures its own code, and calls `segtrack.cli.main(argv)` in
this one process.  Files go to ./.bench_work and are removed at the end.

A workload repeats *units* until `--seconds` would be exceeded.  One
unit runs every pipeline stage once:

    synth -> convert -> split -> track -> eval-mot -> eval-coco -> analyze + plot

Unit i synthesizes its own scenario, seeded from (--seed, i).  Between
synth and convert the benchmark derives, from synth's files, the
labelme documents and the scored stream for eval-coco (see inputs.py);
that is the unit's set-up, timed as `setup_s`.

Every op must exit 0 and pass the checks in checks.py.  Where
digests.json holds the workload and seed, every op's output files must
also match the SHA-256 digest recorded there.  After the last unit, the
first unit's synth runs once more and must give the same bytes.  A
failed op counts in `failed` and the run goes on.

With `--trace 0` the last line of output is a JSON object with the
end-to-end metrics: the time per unit of the set-up, of the whole
pipeline and of each stage (analyze and plot together are `report`),
the p50 and p90 of the per-clip `eval-mot` latency over all units, and
the process's peak RSS.  Every time is scaled to a reference host
speed (see hostspeed.py).  The human-readable table above the JSON also
gives each sample count, the unscaled wall-clock value and
`failed_share`.  With `--trace 1`, units
alternate between untraced and traced; the JSON holds the per-layer
metrics of the traced units, per unit (see tracer.py), and the tracing
overhead: traced minus untraced pipeline time.

`--record-digests` stores the run's output digests in digests.json.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import checks
import inputs
from hostspeed import ScaledClock
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DIGESTS = BENCH_DIR / "digests.json"

STAGES = ("synth", "convert", "split", "track", "eval_mot", "eval_coco", "report")


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    animals: int
    frames: int
    radius: float
    min_separation: float
    p_fn: float
    p_fp: float
    n_ids: int
    noise: float
    label_every: int          # labelme documents for every k-th frame
    labeled_gt: bool          # evaluate against the converted labelme polygons, not synth's RLE
    oracle: bool              # eval-mot must reproduce injection.json exactly
    width: int = 256
    height: int = 256
    speed: float = 4.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "long_video",
            "one long well-separated RLE video: per-record codec, centroid, AP accumulation and"
            " read_coco's duplicate-id check grow with its length; the sticky step leaves the solver idle",
            # 600 frames, so that about six units fit in one run: a mean over
            # three units moves with any single slow op
            animals=6, frames=600, radius=8.0, min_separation=20.0,
            p_fn=0.05, p_fp=0.1, n_ids=2, noise=0.5,
            label_every=10, labeled_gt=False, oracle=True,
        ),
        Workload(
            "labeled_frames",
            "labelme polygons as ground truth against RLE predictions: every IoU takes the dense"
            " rasterize path, and convert reads and writes polygons",
            # no clutter: spurious detections add nothing to the dense IoU path, and
            # their Poisson count would make the per-unit cost of track and analyze vary
            animals=8, frames=200, radius=10.0, min_separation=25.0,
            p_fn=0.05, p_fp=0.0, n_ids=2, noise=0.5,
            label_every=1, labeled_gt=True, oracle=False,
        ),
        Workload(
            "crowded_clips",
            "short clips of 20 crossing animals with heavy clutter: each first frame and crossing"
            " sends a full cost matrix through hungarian(); files are small, so read_coco is cheap",
            animals=20, frames=18, radius=8.0, min_separation=0.0,
            p_fn=0.04, p_fp=1.0, n_ids=1, noise=0.5,
            label_every=5, labeled_gt=False, oracle=False,
        ),
    )
}

SMOKE = {
    "long_video": dict(animals=3, frames=40, label_every=8),
    "labeled_frames": dict(animals=3, frames=12),
    "crowded_clips": dict(animals=6, frames=6, label_every=3),
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    if name.endswith(".bytes"):
        return "B"
    return "count"


@dataclasses.dataclass
class Op:
    name: str
    stage: str
    seconds: float  # scaled to the reference host speed, see hostspeed.py
    raw_s: float    # wall time
    problems: list[str]


@dataclasses.dataclass
class Unit:
    setup: Op
    ops: list[Op]
    wall_s: float
    traced: bool

    def pipeline_s(self, attr: str = "seconds") -> float:
        return sum(getattr(op, attr) for op in self.ops)

    def stage_s(self, stage: str, attr: str = "seconds") -> float:
        return sum(getattr(op, attr) for op in self.ops if op.stage == stage)


class Runner:
    """Runs the units of one workload and checks their outputs.

    Unit i synthesizes its own scenario, seeded from (--seed, i), so a
    run's figures average over several scenarios, not one.
    """

    def __init__(self, wl: Workload, seed: int, recorded: dict[str, dict[str, str]]):
        from segtrack import cli

        gc.collect()
        gc.freeze()  # what is alive after import lives for the whole run; collections skip it
        self.cli = cli
        self.clock = ScaledClock()
        self.wl = wl
        self.seed = seed
        self.recorded = recorded
        self.digests: dict[str, dict[str, str]] = {}

    def _run_op(self, index: int, name: str, stage: str, argv: list, outputs: list[Path], check) -> Op:
        gc.collect()  # each op starts with no garbage left by the one before, as a fresh process would
        err = io.StringIO()

        def call():
            try:
                return self.cli.main([str(a) for a in argv])
            except Exception as e:  # a traceback is a failed op, not the end of the run
                return f"exception {e!r}"

        with contextlib.redirect_stderr(err):
            rc, raw, seconds = self.clock.measure(call)
        if rc != 0:
            return Op(name, stage, seconds, raw, [f"exit {rc}: {err.getvalue().strip()[-300:]}"])
        try:
            problems = check()
            got = checks.digest(outputs)
        except Exception as e:  # malformed output must be reported, whatever it trips over
            return Op(name, stage, seconds, raw, [f"unreadable output: {e!r}"])
        self.digests.setdefault(str(index), {})[name] = got
        want = self.recorded.get(str(index), {}).get(name)
        if want is not None and got != want:
            problems.append(f"output digest {got} != recorded {want}")
        return Op(name, stage, seconds, raw, problems)

    def _seeds(self, index: int) -> tuple[int, int, int]:
        synth_seed, perturb_seed, input_seed = np.random.SeedSequence([self.seed, index]).generate_state(3)
        return int(synth_seed), int(perturb_seed), int(input_seed)

    def _synth(self, index: int, name: str, out: Path) -> Op:
        wl = self.wl
        synth_seed, perturb_seed, _ = self._seeds(index)
        return self._run_op(index, name, "synth", [
            "synth", "--out-dir", out, "--animals", wl.animals, "--frames", wl.frames,
            "--width", wl.width, "--height", wl.height, "--radius", wl.radius, "--speed", wl.speed,
            "--min-separation", wl.min_separation, "--p-fn", wl.p_fn, "--p-fp", wl.p_fp,
            "--n-ids", wl.n_ids, "--noise", wl.noise, "--seed", synth_seed, "--perturb-seed", perturb_seed,
        ], [out / n for n in ("gt.json", "gt_tracks.csv", "preds.jsonl", "injection.json")],
            lambda: checks.check_synth(out, wl.animals, wl.frames))

    def repeat_synth(self, workdir: Path) -> Op:
        """Identical seeds must give byte-identical files: synthesize unit 0 once more and compare."""
        op = self._synth(0, "synth-repeat", workdir / "repeat")
        first, again = (self.digests.get("0", {}).get(k) for k in ("synth", "synth-repeat"))
        if not op.problems and first != again:
            op.problems.append(f"synth gave {again} for the seeds that gave {first}")
        return op

    def run_unit(self, index: int, workdir: Path, traced: bool) -> Unit:
        wl = self.wl
        t_start = time.perf_counter()
        input_seed = self._seeds(index)[2]
        d = workdir / f"unit{index:05d}"
        sc = d / "scenario"
        ops = [self._synth(index, "synth", sc)]

        def op(name, stage, argv, outputs, check):
            ops.append(self._run_op(index, name, stage, argv, outputs, check))

        def derive_inputs() -> int:
            centres = inputs.read_gt_centres(sc / "gt_tracks.csv")
            n = inputs.write_labelme(d / "labelme", centres, wl.label_every, wl.radius,
                                     wl.width, wl.height, input_seed)
            inputs.write_scored_stream(sc / "preds.jsonl", d / "scored.jsonl", input_seed)
            inputs.write_zones(d / "zones.json", wl.width, wl.height)
            return n

        try:
            n_docs, raw, seconds = self.clock.measure(derive_inputs)
        except Exception as e:  # no inputs for the rest of the unit; the run goes on
            setup = Op("setup", "setup", 0.0, 0.0, [f"inputs could not be derived: {e!r}"])
            return Unit(setup, ops, time.perf_counter() - t_start, traced)
        setup = Op("setup", "setup", seconds, raw, [])

        labeled = d / "labeled.json"
        op("convert", "convert", ["convert", "--labelme-dir", d / "labelme", "--out", labeled],
           [labeled], lambda: checks.check_convert(labeled, n_docs, wl.animals))
        gt = labeled if wl.labeled_gt else sc / "gt.json"
        train, val = d / "train.json", d / "val.json"
        op("split", "split", ["split", "--in", gt, "--ratio", 0.8, "--seed", input_seed % 1000,
                              "--train-out", train, "--val-out", val],
           [train, val], lambda: checks.check_split(gt, train, val))
        tracks = d / "tracks.csv"
        op("track", "track", ["track", "--pred", sc / "preds.jsonl", "--out", tracks, "--max-gap", 3],
           [tracks], lambda: checks.check_tracks(tracks, sc / "preds.jsonl"))
        mot = d / "mot.csv"
        n_gt = wl.animals * (n_docs if wl.labeled_gt else wl.frames)
        oracle = json.loads((sc / "injection.json").read_text()) if wl.oracle else None
        op("eval-mot", "eval_mot", ["eval-mot", "--gt", gt, "--pred", sc / "preds.jsonl", "--out", mot],
           [mot], lambda: checks.check_mot(mot, n_gt, oracle))
        ap = d / "ap.csv"
        categories = {f"animal_{i + 1}" for i in range(wl.animals)}
        op("eval-coco", "eval_coco", ["eval-coco", "--gt", gt, "--pred", d / "scored.jsonl", "--out", ap],
           [ap], lambda: checks.check_ap(ap, categories))
        stats, inter, svg = d / "stats.csv", d / "interactions.csv", d / "tracks.svg"
        op("analyze", "report", ["analyze", "--tracks", tracks, "--zones", d / "zones.json", "--out", stats,
                                 "--interactions-out", inter, "--interaction-distance", 3 * wl.radius,
                                 "--min-duration", 2],
           [stats, inter], lambda: checks.check_analyze(stats, inter, tracks))
        op("plot", "report", ["plot", "--tracks", tracks, "--width", wl.width, "--height", wl.height,
                              "--out", svg],
           [svg], lambda: checks.check_plot(svg))
        shutil.rmtree(d)
        return Unit(setup, ops, time.perf_counter() - t_start, traced)


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); a single sample is its own percentile."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(units: list[Unit], attr: str = "seconds") -> dict[str, tuple[float, str, int]]:
    """Times per unit are means over the run's units, not medians.

    What scaling leaves of the host's drift comes in phases of tens of
    seconds.  A median of a few units then jumps between a fast and a
    slow phase, while the mean, the run's total time divided by its
    units, averages the phases the run went through.
    """
    n = len(units)
    clips = [getattr(op, attr) * 1000 for u in units for op in u.ops if op.stage == "eval_mot"]
    out = {
        "setup_s": (statistics.fmean(getattr(u.setup, attr) for u in units), "s", n),
        "pipeline_s": (statistics.fmean(u.pipeline_s(attr) for u in units), "s", n),
    }
    for stage in STAGES:
        out[f"{stage}_s"] = (statistics.fmean(u.stage_s(stage, attr) for u in units), "s", n)
    out["clip_p50_ms"] = (quantile(clips, 50), "ms", len(clips))
    out["clip_p90_ms"] = (quantile(clips, 90), "ms", len(clips))
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1)
    return out


def per_layer(units: list[Unit], tracer: Tracer) -> dict[str, tuple[float, str, int]]:
    traced = [u for u in units if u.traced]
    plain = [u for u in units if not u.traced]
    out = {k: (v, per_layer_unit(k), len(traced)) for k, v in tracer.per_unit(len(traced)).items()}
    overhead = statistics.median(u.pipeline_s() for u in traced) - statistics.median(u.pipeline_s() for u in plain)
    out["trace.overhead_s"] = (overhead, "s", len(units))
    return out


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, mode: str,
                 record: bool, max_units: int | None) -> tuple[list[Unit], Op, dict]:
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    recorded = {} if record else table.get(mode, {}).get(wl.name, {}).get(str(seed), {})
    runner = Runner(wl, seed, recorded)
    workdir = ROOT / ".bench_work" / f"{wl.name}-{seed}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    tracer = Tracer()
    units: list[Unit] = []
    need = 2 if trace else 1
    start = time.perf_counter()
    try:
        while max_units is None or len(units) < max_units:
            if len(units) >= need and (
                time.perf_counter() - start + statistics.median(u.wall_s for u in units) > seconds
            ):
                break
            traced = trace and len(units) % 2 == 1
            if traced:
                tracer.install()
            try:
                units.append(runner.run_unit(len(units), workdir, traced))
            finally:
                tracer.uninstall()
        repeat = runner.repeat_synth(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = per_layer(units, tracer) if trace else end_to_end(units)
    if record:
        table.setdefault(mode, {}).setdefault(wl.name, {})[str(seed)] = runner.digests
        DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return units, repeat, metrics


def machine() -> str:
    return (f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()}"
            f" numpy={np.__version__} platform={platform.platform()}")


def report(wl: Workload, seed: int, units: list[Unit], repeat: Op, metrics: dict, raw: dict) -> dict:
    """Print the table; return the result object.  `raw` holds the unscaled wall times, by metric."""
    ops = [op for u in units for op in u.ops] + [u.setup for u in units if u.setup.problems] + [repeat]
    failed = [op for op in ops if op.problems]
    print(f"# workload {wl.name} seed {seed}: {len(units)} units, {len(ops)} ops")
    print(f"# why: {wl.why}")
    print(f"# machine: {machine()}")
    print(f"{'metric':40s} {'value':>14s} {'unit':6s} {'samples':>7s} {'wall-clock':>14s}")
    for name, (value, unit, n) in metrics.items():
        wall = f"{raw[name][0]:14.6g}" if name in raw and unit in ("s", "ms") else ""
        print(f"{name:40s} {value:14.6g} {unit:6s} {n:7d} {wall}")
    print(f"{'failed_share':40s} {len(failed) / len(ops):14.6g} {'ratio':6s} {len(ops):7d}")
    for op in failed:
        for p in op.problems:
            print(f"FAILED {wl.name} seed {seed} {op.name}: {p}", file=sys.stderr)
    return {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }


def smoke(record: bool) -> int:
    """Every workload once at tiny size, traced and untraced; checks the output schema."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        False: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        True: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    problems = []
    attempted = failed = 0
    for name, wl in WORKLOADS.items():
        small = dataclasses.replace(wl, **SMOKE[name])
        for trace in (False, True):
            units, repeat, metrics = run_workload(small, 0, 0, trace, "smoke", record and not trace, 2)
            result = report(small, 0, units, repeat, metrics, {} if trace else end_to_end(units, "raw_s"))
            attempted += result["attempted"]
            failed += result["failed"]
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{name} trace={int(trace)}: metrics {got} differ from BENCHMARK.json")
            if any(n < 1 for _, _, n in metrics.values()):
                problems.append(f"{name} trace={int(trace)}: a metric has no samples")
    for p in problems:
        print(f"SCHEMA {p}", file=sys.stderr)
    ok = not problems and failed == 0
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": {}}))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload plus a schema check")
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's output digests in digests.json")
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "segtrack" / "__init__.py").is_file():
        print(f"error: no segtrack sources under {src}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    if args.smoke:
        return smoke(args.record_digests)
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    wl = WORKLOADS[args.workload]
    units, repeat, metrics = run_workload(wl, args.seed, args.seconds, bool(args.trace), "full",
                                          args.record_digests, None)
    raw = {} if args.trace else end_to_end(units, "raw_s")
    print(json.dumps(report(wl, args.seed, units, repeat, metrics, raw)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
