"""hiercls benchmark: timed CLI round trips on seeded workloads.

    python3 perfbench/run.py --workload desk --seed 0 --seconds 40 --trace 0

Run from the root of a hiercls checkout (the program under test is its
``src/``). One round trip drives the real CLI in fresh processes,
closed-loop from this one process: ``hierarchy build`` -> ``gen-data`` ->
``train`` -> ``evaluate --run`` -> ``sweep``. Round trips repeat on the same
seeded inputs until the one that ends nearest to ``--seconds`` (at least
two); every output is checked, and the artifacts of every repeat must hash
alike.

``--trace 0`` prints the end-to-end metrics, each the interquartile mean
over the round trips (see ``central``). ``--trace 1`` alternates untraced
and traced round trips (the traced ones run ``tracer.py`` in place of
``python -m hiercls``) and prints the per-layer metrics of ``layers.json``,
medians over the traced round trips, plus the tracing overhead.
``--workload all`` runs every workload. The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``. The
exit code is 0 when every check passed, 1 when one failed and 2 when the
benchmark cannot run.

Every process gets one BLAS thread, so the sweep's fork workers (one per
CPU) do not oversubscribe the cores.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
TRACER = HERE / "tracer.py"
REFERENCE = HERE / "reference.json"

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "train_s": "s",
    "evaluate_s": "s",
    "sweep_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MB",
}
INPUT_NAMES = ("edges.tsv", "classes.txt", "sweep.cfg")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_DEADLINE_S = 170.0


class Ops:
    """Attempted and failed operations: commands, sweep points, checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


@dataclass
class RoundTrip:
    traced: bool
    times: dict[str, float] = field(default_factory=dict)  # step -> wall s
    total_s: float = 0.0
    rss_kb: int = 0
    ok: bool = True
    digest: str = ""
    tree: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)

    def metrics(self) -> dict[str, float]:
        """The end-to-end metrics of this round trip."""
        t = self.times
        return {"setup_s": t["build"] + t["gen-data"], "train_s": t["train"],
                "evaluate_s": t["evaluate"], "sweep_s": t["sweep"],
                "total_s": self.total_s, "peak_rss_mb": self.rss_kb / 1024.0}


# ---------------------------------------------------------------------------
# Running commands
# ---------------------------------------------------------------------------


def _env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({name: "1" for name in BLAS_ENV})
    return env


def run_command(argv, cwd: Path, env, err_path: Path, timeout: float):
    """Run to completion; return (wall seconds, exit code, peak RSS in KiB).

    The peak RSS comes from ``wait4``, which on Linux folds in every
    descendant the command reaped, the sweep's fork workers included.
    """
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                                stderr=err, start_new_session=True)
        timer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss


def central(values) -> float:
    """Interquartile mean: the mean of the values left after the lowest and
    the highest quarter are dropped.

    CPU speed on a shared host flips between levels that last seconds. A
    median of the three to eight round trips of a run then lands on one level
    or the other, while this mean moves in proportion to the time spent on
    each, and still ignores a stray stall.
    """
    ordered = sorted(values)
    k = len(ordered) // 4
    return statistics.fmean(ordered[k:len(ordered) - k])


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def read_table(path: Path) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """``#`` metadata, header and rows of a hiercls CSV."""
    meta, body = {}, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition("=")
            meta[key] = val
        elif line:
            body.append(line.split(","))
    if not body:
        raise ValueError(f"{path.name}: no header")
    return meta, body[0], body[1:]


def value_ok(metric: str, value: float, height: int) -> bool:
    """Top-k errors lie in [0, 1]; every severity lies in [0, tree height]."""
    if not math.isfinite(value):
        return False
    if metric.endswith("_error"):
        return 0.0 <= value <= 1.0
    if "hier_dist" in metric:
        return 0.0 <= value <= height
    return value >= 0.0


def report_ok(path: Path, height: int) -> bool:
    _, header, rows = read_table(path)
    if header != ["metric", "k", "mean", "half_width"] or not rows:
        return False
    names = {r[0] for r in rows}
    if not {"top_k_error", "hier_dist_mistake", "avg_hier_dist_topk"} <= names:
        return False
    return all(value_ok(r[0], float(r[2]), height) for r in rows)


def histogram_ok(path: Path, height: int) -> bool:
    _, header, rows = read_table(path)
    return header == ["height", "count"] and all(
        1 <= int(h) <= height and int(c) >= 0 for h, c in rows)


def tradeoff_ok(path: Path, height: int, expected_rows: int) -> bool:
    _, header, rows = read_table(path)
    first = 5  # method, head, parameter, taxonomy, seed | num_seeds
    return len(rows) == expected_rows and all(
        value_ok(name, float(cell), height)
        for row in rows for name, cell in zip(header[first:], row[first:]))


def check_outputs(plan: workloads.Plan, rt_dir: Path, ops: Ops) -> dict:
    """Check every artifact of a finished round trip; return tree stats."""
    size = plan.size
    checks = []
    tree: dict = {}
    try:
        meta, _, _ = read_table(rt_dir / "tree.tsv")
        tree = {"leaves": int(meta["num_leaves"]), "nodes": int(meta["num_nodes"]),
                "height": int(meta["tree_height"])}
    except (OSError, KeyError, ValueError):
        pass
    height = tree.get("height", 0)
    sweep_dir = rt_dir / "sweep"
    checks = [
        ("tree has the requested classes",
         lambda: tree.get("leaves") == plan.num_leaves and height >= 1),
        ("dataset has one row per example",
         lambda: len(read_table(rt_dir / "data.csv")[2])
         == plan.num_leaves * size.per_class),
        ("train wrote every checkpoint",
         lambda: len(list((rt_dir / "train" / "checkpoints").glob("step_*.txt")))
         == size.train_steps // size.train_every),
        ("train selected five checkpoints",
         lambda: len(read_table(rt_dir / "train" / "selected.csv")[2]) == 5),
        ("train report in range",
         lambda: report_ok(rt_dir / "train" / "report.csv", height)),
        ("train histogram in range",
         lambda: histogram_ok(rt_dir / "train" / "histogram.csv", height)),
        ("evaluate report in range",
         lambda: report_ok(rt_dir / "eval" / "report.csv", height)),
        ("evaluate histogram in range",
         lambda: histogram_ok(rt_dir / "eval" / "histogram.csv", height)),
        ("tradeoff.csv has one row per point",
         lambda: tradeoff_ok(sweep_dir / "tradeoff.csv", height, plan.points)),
        ("tradeoff_mean.csv has one row per seed group",
         lambda: tradeoff_ok(sweep_dir / "tradeoff_mean.csv", height,
                             plan.points // len(size.seeds))),
        ("every sweep point wrote its files",
         lambda: sum(all((p / f).is_file()
                         for f in ("trace.csv", "histogram.csv", "selected.csv"))
                     for p in (sweep_dir / "points").iterdir()) == plan.points),
    ]
    for what, fn in checks:
        try:
            ok = bool(fn())
        except (OSError, ValueError, IndexError, KeyError):
            ok = False
        ops.check(ok, what)

    # Each sweep point is an operation; a row in failures.csv is a failed one.
    failures = sweep_dir / "failures.csv"
    failed_points = len(read_table(failures)[2]) if failures.exists() else 0
    for i in range(plan.points):
        ops.check(i >= failed_points, "sweep point listed in failures.csv")
    return tree


def artifact_digest(rt_dir: Path) -> str:
    """sha256 over (path, sha256) of every file the commands wrote."""
    h = hashlib.sha256()
    for path in sorted(p for p in rt_dir.rglob("*") if p.is_file()):
        rel = path.relative_to(rt_dir).as_posix()
        if rel in INPUT_NAMES:
            continue
        h.update(f"{rel}\0{hashlib.sha256(path.read_bytes()).hexdigest()}\n".encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------


def round_trip(plan, run_dir: Path, k: int, traced: bool, ops: Ops,
               deadline: float, workers: int) -> RoundTrip:
    rt = RoundTrip(traced=traced)
    rt_dir = run_dir / f"rt{k}"
    span_dir = run_dir / "spans" / f"rt{k}"
    log_dir = run_dir / "logs"
    for d in (rt_dir, span_dir, log_dir):
        d.mkdir(parents=True, exist_ok=True)
    for name, text in plan.files.items():
        (rt_dir / name).write_text(text, encoding="utf-8")
    env = _env()
    env["PERFBENCH_SPAN_DIR"] = str(span_dir)
    launcher = [sys.executable, str(TRACER)] if traced else [sys.executable, "-m", "hiercls"]

    start = time.perf_counter()
    for step, args in plan.commands:
        if not rt.ok:
            ops.check(False, f"{step}: not run after an earlier failure")
            continue
        env["PERFBENCH_RUN_ID"] = f"rt{k}-{step}"
        env["PERFBENCH_SPAWN_T"] = repr(time.monotonic())
        wall, code, rss = run_command(
            launcher + args, rt_dir, env, log_dir / f"rt{k}-{step}.err",
            timeout=max(1.0, deadline - time.monotonic()))
        rt.times[step] = wall
        rt.rss_kb = max(rt.rss_kb, rss)
        rt.ok = ops.check(code == 0, f"{step}: exit code {code}")
    rt.total_s = time.perf_counter() - start
    if not rt.ok:
        return rt
    rt.tree = check_outputs(plan, rt_dir, ops)
    rt.digest = artifact_digest(rt_dir)
    if traced:
        rt.per_layer = layers.metrics_from_spans(
            layers.load_spans(span_dir), rt.times["sweep"], workers)
    return rt


def environment(workers: int) -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": 1, "sweep_workers": workers}


def reference_status(size: str, workload: str, seed: int, digest: str) -> str:
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    ref = refs.get(size, {}).get(workload, {}).get(str(seed))
    if ref is None:
        return "none"
    return "match" if ref == digest else "mismatch"


def run_workload(workload: str, size: str, seed: int, seconds: float,
                 trace: bool, env: dict) -> tuple[Ops, dict, dict]:
    """Repeat round trips for ``seconds``; write ``result.json`` and return
    ops, metrics and the record written."""
    workers = env["sweep_workers"]
    plan = workloads.plan(workload, size, seed, workers)
    run_dir = WORK / f"{workload}-{size}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    ops = Ops()
    deadline = time.monotonic() + RUN_DEADLINE_S
    # Warm up: ``--help`` imports every hiercls module. The first start in a
    # checkout compiles the sources and fills the page cache, which no timed
    # command should pay for.
    _, code, _ = run_command([sys.executable, "-m", "hiercls", "--help"], run_dir,
                             _env(), run_dir / "warm-up.err", timeout=60.0)
    ops.check(code == 0, f"warm-up: exit code {code}")
    t_start = time.perf_counter()
    trips: list[RoundTrip] = []
    laps: list[float] = []
    while True:
        lap0 = time.perf_counter()
        traced = trace and len(trips) % 2 == 1
        rt = round_trip(plan, run_dir, len(trips), traced, ops, deadline, workers)
        trips.append(rt)
        laps.append(time.perf_counter() - lap0)
        if not rt.ok:
            break
        if rt.digest != trips[0].digest:
            ops.check(False, f"rt{len(trips) - 1}: artifacts differ from rt0")
        elif len(trips) > 1:
            ops.check(True, "artifacts identical across repeats")
        elapsed = time.perf_counter() - t_start
        # Stop after the round trip (a whole pair when traced) that ends
        # nearest to ``seconds``, so that a run measures ``seconds`` on average.
        step = 2 if trace else 1
        if len(trips) >= 2 and len(trips) % step == 0 and (
                elapsed + statistics.median(laps) * step / 2 > seconds):
            break

    ok_trips = [rt for rt in trips if rt.ok]
    plain = [rt for rt in ok_trips if not rt.traced]
    metrics: dict[str, float] = {}
    if ops.failed == 0:
        if trace:
            traced = [rt for rt in ok_trips if rt.traced]
            for name in traced[0].per_layer:
                metrics[name] = statistics.median(rt.per_layer[name] for rt in traced)
            metrics["trace.overhead_s"] = (
                statistics.median(rt.total_s for rt in traced)
                - statistics.median(rt.total_s for rt in plain))
        else:
            per_trip = [rt.metrics() for rt in plain]
            for name in END_TO_END:
                metrics[name] = central(m[name] for m in per_trip)
    digest = trips[0].digest
    record = {
        "env": env,
        "workload": workload, "size": size, "seed": seed, "trace": int(trace),
        "round_trips": len(trips), "tree": trips[0].tree,
        "laps": [dict(rt.metrics(), traced=rt.traced) for rt in trips if rt.ok],
        "artifact_sha256": digest,
        "reference": reference_status(size, workload, seed, digest) if digest else "none",
        "ops_failed_frac": ops.failed / ops.attempted,
        "attempted": ops.attempted, "failed": ops.failed,
        "failures": ops.failures,
        "metrics": metrics,
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    if ops.failed == 0:
        for k in range(len(trips)):  # a failed run keeps them for inspection
            shutil.rmtree(run_dir / f"rt{k}", ignore_errors=True)
        shutil.rmtree(run_dir / "spans", ignore_errors=True)
    return ops, metrics, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hiercls" / "cli.py").is_file():
        print(f"perfbench: no hiercls sources under {ROOT / 'src'}; run from "
              "the root of a hiercls checkout", file=sys.stderr)
        return 2

    env = environment(len(os.sched_getaffinity(0)))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    units = {m["name"]: m["unit"] for m in layers.PER_LAYER}
    units.update(END_TO_END)
    total = Ops()
    out_metrics: dict[str, dict] = {}
    print("env " + json.dumps(env, sort_keys=True))
    for name in names:
        ops, metrics, record = run_workload(name, args.size, args.seed,
                                            args.seconds, bool(args.trace), env)
        print(f"{name} round_trips={record['round_trips']} tree={json.dumps(record['tree'])} "
              f"artifact_sha256={record['artifact_sha256']} reference={record['reference']}")
        for metric, value in metrics.items():
            print(f"{name} {metric} {value:.6g} {units[metric]}")
        print(f"{name} ops_failed_frac {record['ops_failed_frac']:.6g} "
              f"({ops.failed}/{ops.attempted})")
        for what in ops.failures:
            print(f"{name} FAILED {what}", file=sys.stderr)
        total.attempted += ops.attempted
        total.failed += ops.failed
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, value in metrics.items():
            out_metrics[prefix + metric] = {"value": value, "unit": units[metric]}
    print(json.dumps({"correct": total.failed == 0, "attempted": total.attempted,
                      "failed": total.failed, "metrics": out_metrics}))
    return 0 if total.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
