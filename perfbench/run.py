"""skewlin benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; it uses the ``skewlin`` sources under
``src/`` and needs nothing beyond the standard library.

--trace 0  times the workload untraced.  Set-up runs in three fresh
           processes (the last one goes on to the operations) and
           ``setup_s`` is their median; operations run for S seconds in
           a closed loop with one client.  Declared times are calibrated
           to a reference host speed (see calibrated()); the measured
           ones are printed and recorded beside them.
--trace 1  runs the workload's fixed operation list twice, in separate
           processes: untraced, then with every skewlin module wrapped by
           tracer.py, and reports the per-layer metrics.

Every operation's output is checked.  The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics; the lines
before it list every metric with its unit.  Each result is appended,
with its run metadata, to perfbench/out/results.jsonl.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_RUNS = 3
DEADLINE_S = 170.0  # the whole run, every child included
# Host-probe time (worker.host_probe) that calibrated times are scaled to.
PROBE_REF_S = 0.001


# Every end-to-end metric printed; BENCHMARK.json declares those that are
# never 0 and apply to every workload.
E2E_UNITS = {
    "setup_s": "s",
    "setup_raw_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "fail_ratio": "ratio",
    "peak_rss_mb": "MB",
    "attack_success_ratio": "ratio",
    "cal_ops_per_s": "1/s",
    "cal_op_p50_ms": "ms",
    "cal_op_tail_ms": "ms",
}


def nearest_rank(sorted_values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    n = len(sorted_values)
    rank = max(1, math.ceil(pct / 100.0 * n))
    return sorted_values[rank - 1], n - rank


def loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable"


def git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")

    def worker(self, phase: str, seconds: float | None = None) -> tuple[dict, float]:
        """Run one worker process; returns its report and its spawn time."""
        argv = [
            sys.executable,
            str(HERE / "worker.py"),
            "--workload",
            self.workload,
            "--seed",
            str(self.seed),
            "--phase",
            phase,
        ]
        if seconds is not None:
            argv += ["--seconds", str(seconds)]
        spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
        # own process group, so a timeout also ends the worker's CLI children
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True, start_new_session=True
        )
        try:
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except BaseException:  # the deadline, SIGTERM (as SystemExit) or Ctrl-C
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.communicate()
            raise
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"{phase} worker exited with status {proc.returncode}")
        return json.loads(lines[-1]), spawned_at


def timed_run(runner: Runner, seconds: float) -> tuple[dict, dict, dict]:
    setups = [setup_times(*runner.worker("setup")) for _ in range(SETUP_RUNS - 1)]
    rep, spawned_at = runner.worker("timed", seconds)
    setups.append(setup_times(rep, spawned_at))

    tail_pct = rep["tail_pct"]
    raw = op_stats(rep["latencies"], tail_pct)
    cal = op_stats(calibrated(rep), tail_pct)
    n = len(rep["latencies"])
    values = {
        "setup_s": statistics.median(cal for _, cal in setups),
        "setup_raw_s": statistics.median(raw for raw, _ in setups),
        "ops_per_s": raw[0],
        "op_p50_ms": raw[1],
        "op_tail_ms": raw[2],
        "fail_ratio": rep["failed"] / n,
        "peak_rss_mb": rep["peak_rss_kb"] / 1024.0,
        "attack_success_ratio": (
            rep["recovered"] / n if runner.workload == "attack-gf256" else None
        ),
        "cal_ops_per_s": cal[0],
        "cal_op_p50_ms": cal[1],
        "cal_op_tail_ms": cal[2],
    }
    probes = sorted(rep["probes"])
    extra = {
        "setup_runs_raw_s": [raw for raw, _ in setups],
        "op_tail_pct": tail_pct,
        "op_tail_samples_beyond": raw[3],
        "host_probe_ms": [probes[0] * 1e3, statistics.median(probes) * 1e3, probes[-1] * 1e3],
        "input_sha256": rep["input_sha256"],
    }
    return rep, values, extra


def setup_times(rep: dict, spawned_at: float) -> tuple[float, float]:
    """Spawn to end of set-up, measured and calibrated; the worker's
    start-up probe is left out, and its probes before and after set-up
    give the host speed."""
    raw = rep["ready_at"] - spawned_at - rep["probe_wall_s"]
    return raw, raw * PROBE_REF_S / rep["setup_probe_s"]


def calibrated(rep: dict) -> list[float]:
    """Latencies scaled to the reference host speed: each one times
    PROBE_REF_S over the host-probe time measured next to it."""
    return [t * PROBE_REF_S / p for t, p in zip(rep["latencies"], rep["probes"])]


def op_stats(latencies: list[float], tail_pct: float) -> tuple[float, float, float, int]:
    """ops/s over time inside ops, p50 and tail in ms, samples beyond the tail."""
    lat = sorted(latencies)
    tail, beyond = nearest_rank(lat, tail_pct)
    return len(lat) / sum(lat), statistics.median(lat) * 1e3, tail * 1e3, beyond


def traced_run(runner: Runner) -> tuple[dict, dict, dict]:
    plain, _ = runner.worker("fixed")
    traced, _ = runner.worker("traced")
    layers = dict(traced["layers"])
    # calibrated rates: the two processes may meet different host speeds
    plain_rate = len(plain["latencies"]) / sum(calibrated(plain))
    traced_rate = len(traced["latencies"]) / sum(calibrated(traced))
    layers["trace.overhead_ratio"] = traced_rate / plain_rate
    rep = dict(traced)
    rep["failed"] = plain["failed"] + traced["failed"]
    rep["latencies"] = plain["latencies"] + traced["latencies"]
    return rep, layers, {"spans": traced["spans"], "untraced_ops_per_s": plain_rate}


def main() -> int:
    bench_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "skewlin" / "__init__.py").is_file() or not bench_path.is_file():
        print("run.py: no skewlin sources under src/ of this checkout", file=sys.stderr)
        return 2
    with open(bench_path, encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    load_start = loadavg()
    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            rep, values, extra = traced_run(runner)
            declared = bench["per_layer"]
        else:
            rep, values, extra = timed_run(runner, args.seconds)
            declared = bench["end_to_end"]
    except (RuntimeError, subprocess.TimeoutExpired, KeyError, ValueError) as exc:
        print(f"run.py: {args.workload}: {exc}", file=sys.stderr)
        return 1

    attempted = len(rep["latencies"])
    failed = rep["failed"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "values": values,
        "extra": extra,
        "meta": {
            "git_sha": git_sha(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "python": rep["python"],
            "check_division": rep["check_division"],
            "properties": rep["properties"],
            "loadavg_start": load_start,
            "loadavg_end": loadavg(),
        },
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")

    if args.trace:
        for name, m in metrics.items():
            print(f"{args.workload}  {name:<36} {m['value']:.6g} {m['unit']}")
    else:
        for name, unit in E2E_UNITS.items():
            value = values[name]
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"{args.workload}  {name:<22} {shown} {unit}")
        print(
            f"{args.workload}  tails are p{extra['op_tail_pct']:g}, "
            f"{extra['op_tail_samples_beyond']} of {attempted} samples beyond; "
            "host probe min/median/max ms "
            + "/".join(f"{v:.3f}" for v in extra["host_probe_ms"])
        )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
