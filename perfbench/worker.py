"""One benchmark process: set up a workload, run its operations, report.

    python3 perfbench/worker.py --workload NAME --seed N --phase PHASE [--seconds S]

Phases:
    setup   set up, then stop; reports when set-up ended
    timed   set up, then run operations until S seconds were spent inside them
    fixed   set up, then run the workload's fixed traced-run operation count
    traced  as fixed, with every skewlin module wrapped by tracer.py

It prints one JSON object on its last stdout line.  ``run.py`` starts it
with PYTHONPATH pointing at the checkout's ``src``.  Only the traced
phase imports the tracer.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"


class _Digits:
    """GF(2^8) element as a digit tuple, the shape of the library's kernels."""

    __slots__ = ("d",)

    def __init__(self, d: tuple[int, ...]):
        self.d = d

    def __mul__(self, other: "_Digits") -> "_Digits":
        conv = [0] * 15
        for i, ai in enumerate(self.d):
            if ai:
                for j, bj in enumerate(other.d):
                    conv[i + j] += ai * bj
        for k in range(14, 7, -1):  # t^8 = t^4 + t^3 + t + 1
            v = conv[k]
            if v:
                for r in (k - 4, k - 5, k - 7, k - 8):
                    conv[r] += v
        return _Digits(tuple(c % 2 for c in conv[:8]))


def host_probe() -> float:
    """Seconds taken by a fixed piece of pure-Python work, best of three.

    The host changes speed by up to half for tens of seconds at a time
    (other tenants, clock scaling).  The probe measures that speed next to
    the operations, with the same kind of work as the library (digit-tuple
    products on small objects), and never calls the library.
    """
    best = float("inf")
    for _ in range(3):
        x, y = _Digits((1, 1, 0, 1, 0, 0, 1, 0)), _Digits((0, 1, 1, 0, 1, 1, 0, 1))
        t0 = time.perf_counter()
        for _ in range(100):
            x = x * y
        best = min(best, time.perf_counter() - t0)
    return best


PROBE_INTERVAL_S = 0.1


def run_ops(wl, n_ops=None, seconds=None, op=None):
    """Closed loop: op i+1 starts after op i returned and was checked.

    Stops after n_ops operations, or once ``seconds`` were spent inside
    operations.  Checks and host probes run outside the timed interval: a
    probe runs before the next op once PROBE_INTERVAL_S passed since the
    last one, and after the last op, and each op is paired with the mean
    of the probes just before and just after it.  Returns the latencies,
    their probe times, the failures and the recoveries.
    """
    op = op or wl.run_op
    latencies: list[float] = []
    probes: list[tuple[int, float]] = []  # (index of the op it precedes, time)
    last_probe = -PROBE_INTERVAL_S
    failed = recovered = 0
    busy = 0.0
    i = 0
    while (n_ops is not None and i < n_ops) or (seconds is not None and busy < seconds):
        if time.perf_counter() - last_probe >= PROBE_INTERVAL_S:
            probes.append((i, host_probe()))
            last_probe = time.perf_counter()
        t0 = time.perf_counter()
        try:
            result = op(i)
        except Exception:  # an unexpected error is a failed op, never a crash
            traceback.print_exc(file=sys.stderr)
            result, ok = None, False
        else:
            ok = True
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        busy += t1 - t0
        if ok:
            try:
                ok = bool(wl.check(i, result))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                ok = False
            if ok and wl.recovered(result):
                recovered += 1
        if not ok:
            failed += 1
            print(f"{wl.name}: op {i} failed its check", file=sys.stderr)
        i += 1
    probes.append((i, host_probe()))
    paired = []
    k = 0
    for j in range(i):
        while probes[k + 1][0] <= j:
            k += 1
        paired.append((probes[k][1] + probes[k + 1][1]) / 2)
    return latencies, paired, failed, recovered


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--phase", choices=("setup", "timed", "fixed", "traced"), required=True)
    ap.add_argument("--seconds", type=float, default=None)
    args = ap.parse_args()
    t0 = time.perf_counter()
    probe_before = host_probe()  # host speed as set-up starts
    probe_wall = time.perf_counter() - t0

    tracer = None
    if args.phase == "traced":
        import tracer as tracing

        tracer = tracing.Tracer()

    import skewlin
    import skewlin.skew as skew
    import workloads

    src = Path(skewlin.__file__).resolve().parent.parent
    if src != HERE.parent / "src":
        print(f"worker: skewlin imported from {src}, not from this checkout", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    cls = workloads.WORKLOADS[args.workload]
    child_agg: dict = {}
    if tracer is not None and cls is workloads.CliMixed:
        wl = cls(args.seed, str(workdir), launcher=lambda i: _traced_cli_argv(workdir, i))
    else:
        wl = cls(args.seed, str(workdir))

    try:
        if tracer is None:
            wl.setup()
        else:
            tracer.install()
            checks_before = skew.DIVISION_CHECKS
            tracer.wrap(wl.setup, "bench.setup")()
        # system-wide clock, comparable with the spawn time run.py took
        ready_at = time.clock_gettime(time.CLOCK_MONOTONIC)
        report: dict = {
            "ready_at": ready_at,
            "probe_wall_s": probe_wall,
            "setup_probe_s": (probe_before + host_probe()) / 2,
            "check_division": skew.CHECK_DIVISION,
        }
        if args.phase == "setup":
            print(json.dumps(report))
            return 0

        if args.phase == "timed":
            latencies, probes, failed, recovered = run_ops(wl, seconds=args.seconds)
            report["input_sha256"] = hashlib.sha256(wl.input_bytes()).hexdigest()
        elif args.phase == "fixed":
            latencies, probes, failed, recovered = run_ops(wl, n_ops=wl.traced_ops)
        else:
            op = tracer.wrap(wl.run_op, "bench.op")
            if cls is workloads.CliMixed:
                op = _with_child_summary(op, workdir, child_agg)
            # checks run untraced: the spans cover set-up and operations only
            check = wl.check
            wl.check = lambda i, r: _untraced(tracer, check, i, r)
            latencies, probes, failed, recovered = run_ops(wl, n_ops=wl.traced_ops, op=op)
            tracer.uninstall()
            agg = tracer.aggregate()
            agg["division_checks"] = skew.DIVISION_CHECKS - checks_before
            tracing.merge(agg, child_agg)
            report["layers"] = tracing.layer_metrics(agg)
            report["spans"] = len(tracer.name)
            tracer.write(str(OUT / f"spans-{args.workload}.tsv.gz"))

        who = resource.RUSAGE_CHILDREN if cls is workloads.CliMixed else resource.RUSAGE_SELF
        report.update(
            latencies=latencies,
            probes=probes,
            failed=failed,
            recovered=recovered,
            properties=wl.properties(len(latencies)),
            peak_rss_kb=resource.getrusage(who).ru_maxrss,
            tail_pct=wl.tail_pct,
            python=sys.version.split()[0],
        )
        print(json.dumps(report))
        return 0
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)


def _untraced(tracer, fn, *args):
    tracer.enabled = False
    try:
        return fn(*args)
    finally:
        tracer.enabled = True


def _traced_cli_argv(workdir: Path, i: int) -> list[str]:
    return [
        sys.executable,
        str(HERE / "cli_child.py"),
        "--summary",
        str(workdir / f"child-{i}.json"),
        "--spans",
        str(OUT / f"spans-cli-mixed-op{i}.tsv.gz"),
        "--",
    ]


def _with_child_summary(op, workdir: Path, total: dict):
    """Fold each traced CLI child's per-layer aggregate into ``total``; the
    part of the latency outside the child's import, main and tracer work
    is spawn time."""
    import tracer as tracing

    def run(i):
        t0 = time.perf_counter()
        result = op(i)
        latency = time.perf_counter() - t0
        with open(workdir / f"child-{i}.json", encoding="utf-8") as fh:
            part = json.load(fh)
        part["cli_spawn_s"] = (
            latency - part["cli_import_s"] - part["cli_main_s"] - part.pop("trace_s")
        )
        tracing.merge(total, part)
        return result

    return run


if __name__ == "__main__":
    sys.exit(main())
