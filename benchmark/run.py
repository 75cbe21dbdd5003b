#!/usr/bin/env python3
"""The structlab benchmark: one workload per invocation.

Usage, from the repository root::

    python3 benchmark/run.py --workload profile-sweep --seed 1 --seconds 42 --trace 0

Workloads (see README.md for why each was chosen): ``profile-sweep``,
``gap-battery`` and ``cli-suite``.  A run repeats passes -- a fresh set-up,
then one timed pass to an exact answer, then untimed output checks --
until the next pass would overrun ``--seconds``, and always makes at
least one.

With ``--trace 0`` the last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and the end-to-end ``metrics``: the
medians of ``setup_s`` and ``wall_s``, the p50 and p99 latency of the
``structfn.profile`` calls the workload makes, and ``peak_rss_mb``.  Times
are scaled to a nominal host speed by a reference kernel timed every 20 ms
on a timer signal (see ``calibrate.py``).  With ``--trace 1`` half the
time goes to such untraced passes and then exactly one more pass runs
with a span around every call into the traced layers
(``layers.TARGETS``), its spans scaled the same way; its metrics are the
per-layer ones, including the tracing overhead.  A full record
(environment, samples, the seed commit's baseline) and, when tracing, the
span dump go to ``benchmark/.work/results``.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # leave the source tree as it was found

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
REQUIRED = ("src/structlab/__init__.py", "tests/oracles.py", "reports/index.json")

#: Seconds of extra set-ups before every pass, so the setup_s median rests
#: on many more than the few passes a long workload fits in its time, taken
#: all through the run rather than in its first seconds alone.
SETUP_SLICE_S = 0.25


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def cpu_model() -> "str | None":
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_revision() -> "str | None":
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "structlab").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_revision": git_revision(),
        "source_sha256": source.hexdigest(),
    }


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 1))
    return ordered[int(rank) - 1]


def one_pass(workload, tracer, checks) -> tuple[list, list]:
    """Set up, run and check one pass; return the spans of its set-up and run."""
    gc.collect()
    with tracer.span("bench.setup") as setup:
        state = workload.setup()
    with tracer.span("bench.pass") as run:
        output = workload.run(state, tracer)
    workload.check(state, output, checks)
    return setup, run


def measure(workload, seconds: float, probe, checks) -> dict:
    """Untraced passes under a :class:`calibrate.Meter` until the next one
    would overrun ``seconds``.

    Extra set-ups fill ``SETUP_SLICE_S`` seconds before each pass.  Every
    set-up, pass and ``structfn.profile`` call is converted to nominal
    seconds by the meter once it has stopped; ``raw_wall_s`` keeps each
    pass's time as measured, less the meter's ticks.  Every pass makes the
    same profile calls in the same order (a check), so ``profile_s`` holds
    each call's median over the passes: the host's stalls drop out, the
    calls' own spread stays.
    """
    spans: dict[str, list] = {"setup_s": [], "wall_s": [], "profile_s": []}
    start = time.perf_counter()
    spent = []
    with calibrate.Meter() as meter:
        while True:
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < SETUP_SLICE_S:
                t1 = time.perf_counter()
                workload.setup()
                spans["setup_s"].append((t1, time.perf_counter()))
            setup, run = one_pass(workload, probe, checks)
            spans["setup_s"].append(setup[1:3])
            spans["wall_s"].append(run[1:3])
            spans["profile_s"].append(
                [s[1:3] for s in probe.spans if s[0] == "structfn.profile"]
            )
            probe.clear()
            now = time.perf_counter()
            spent.append(now - t0)
            if now - start + statistics.fmean(spent) > seconds:
                break
    calls = spans.pop("profile_s")
    samples = {key: [meter.seconds(a, b) for a, b in pairs] for key, pairs in spans.items()}
    checks.expect(len({len(c) for c in calls}) == 1, "same profile calls in every pass")
    samples["profile_s"] = [
        statistics.median(meter.seconds(a, b) for a, b in repeats) for repeats in zip(*calls)
    ]
    samples["raw_wall_s"] = [meter.seconds(a, b, scaled=False) for a, b in spans["wall_s"]]
    samples["ticks"] = len(meter.ticks)
    return samples


def end_to_end(samples) -> dict:
    lat = samples["profile_s"]
    return {
        "setup_s": (statistics.median(samples["setup_s"]), "s"),
        "wall_s": (statistics.median(samples["wall_s"]), "s"),
        "profile_p50_ms": (percentile(lat, 0.50) * 1e3, "ms"),
        "profile_p99_ms": (percentile(lat, 0.99) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"benchmark: not a structlab checkout, missing {missing}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(HERE)]
    import layers
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    run_dir = WORK / f"run-{os.getpid()}"
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, run_dir)
        checks = workloads.Checks()
        probe = Tracer([layers.PROFILE]).install()
        try:
            budget = args.seconds / 2 if args.trace else args.seconds
            samples = measure(workload, budget, probe, checks)
        finally:
            probe.remove()
        metrics = end_to_end(samples)
        record = {
            "setup_s_samples": samples["setup_s"],
            "wall_s_samples": samples["wall_s"],
            "raw_wall_s_samples": samples["raw_wall_s"],
            "ticks": samples["ticks"],
            "passes": len(samples["wall_s"]),
            "profile_samples": len(samples["profile_s"]),
        }
        if args.trace:
            traced = Tracer(layers.TARGETS).install()
            try:
                with calibrate.Meter() as meter:
                    one_pass(workload, traced, checks)
            finally:
                traced.remove()
            for span in traced.spans:  # onto the nominal clock of the untraced passes
                span[1], span[2] = meter.clock(span[1]), meter.clock(span[2])
            metrics = layers.per_layer(traced, samples, workload, checks)
            stem = f"{args.workload}-seed{args.seed}"
            with open(results / f"{stem}.spans.jsonl", "w", encoding="utf-8") as f:
                for span in traced.spans:
                    f.write(json.dumps(span) + "\n")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    baseline_path = HERE / "baseline.json"
    baseline = json.loads(baseline_path.read_text(encoding="utf-8")) if baseline_path.is_file() else {}
    record.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        environment=environment(),
        error_rate=checks.failed / checks.attempted,
        failures=checks.failures,
        metrics={k: v for k, (v, _) in metrics.items()},
        baseline=baseline,
    )
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({key: record[key] for key in
                      ("environment", "error_rate", "raw_wall_s_samples", "ticks",
                       "passes", "profile_samples")}))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
