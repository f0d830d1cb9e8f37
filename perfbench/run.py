"""weylzeta benchmark: closed-loop CLI jobs, one fresh interpreter per pass.

    python3 perfbench/run.py --workload {ledger,spectra,cache} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout.  One client runs one job at a time
through ``weylzeta.cli.main``.  Each pass over the workload's jobs runs in
its own fresh Python process (``worker.py``), so caches start cold as in a
command-line call.  Passes repeat while the next one still fits in
``--seconds``.  Every job's stdout is hashed and compared with
``reference.json``; a mismatch, a nonzero exit or an escaped exception is a
failed job and the run goes on.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of ``workloads.PER_LAYER`` with ``--trace 1``.  Every time
in it is rescaled to a reference machine speed by the gauge in ``gauge.py``.
The line before it records the seed, the machine, and the raw pass times and
kernel times the rescaling used.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gauge
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference.json"
# Set-up is measured by import-only launches, spread over the run so that
# its median is not one moment's machine load: this many before each pass,
# topped up to SETUP_SAMPLES at the end.  Each pass adds its own sample.
SETUP_PROBES_PER_PASS = 2
SETUP_SAMPLES = 16
# Every pass must finish well inside the 180 s a run may take.
RUN_LIMIT_S = 170.0

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB",
             "job_p50_ms": "ms", "job_p95_ms": "ms"}


def percentile(values, q: float) -> float:
    """Linear-interpolated q-th percentile (0..100) of values."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("WEYLZETA_CACHE", None)  # no cache unless the plan asks for one
    env["PYTHONHASHSEED"] = "0"
    return env


def launch(plan_file: Path | None, timeout: float):
    """Start a worker; return (rescaled set-up seconds, report) or (None, None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), str(SRC)]
    if plan_file is not None:
        cmd.append(str(plan_file))
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_child_env(), cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print(f"worker timed out after {timeout:.0f} s", file=sys.stderr)
        return None, None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or not out.strip():
        print(f"worker exited with {proc.returncode}", file=sys.stderr)
        return None, None
    report = json.loads(out.decode().splitlines()[-1])
    setup = report["imported_at"] - started
    return setup * gauge.KERNEL_REF_S / report["setup_kernel_s"], report


def measure(jobs: list[dict], seconds: float, trace: bool,
            reference: dict | None = None) -> dict:
    """Run passes over ``jobs`` (see ``workloads.plan``); return the result.

    Every time in the result is rescaled to the gauge's reference speed
    (see gauge.py); the raw pass times and kernel times come back beside it.
    """
    if reference is None:
        reference = json.loads(REFERENCE.read_text())
    keys = [workloads.key(j["argv"]) for j in jobs]
    hit_jobs = _planned_hits(jobs)
    work = WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    run_start = time.monotonic()

    setup = []

    def probe(count: int) -> None:
        for _ in range(count):
            s, _ = launch(None, RUN_LIMIT_S - (time.monotonic() - run_start))
            if s is not None:
                setup.append(s)

    attempted = failed = 0
    walls = {False: [], True: []}  # rescaled; None for a pass that died
    raw = {"wall_s": [], "kernel_s": []}
    rss, latencies, hit_latencies, layers = [], [], [], []
    window_start = time.monotonic()
    longest = 0.0
    traced_next = False
    while True:
        elapsed = time.monotonic() - window_start
        done = len(walls[False]) + len(walls[True])
        need_more = done == 0 or (trace and not walls[True])
        if not need_more and elapsed + longest > seconds:
            break
        left = RUN_LIMIT_S - (time.monotonic() - run_start)
        if left < longest or left < 5:
            break
        pass_start = time.monotonic()
        probe(SETUP_PROBES_PER_PASS)
        cache_dir = work / f"cache-{done}"
        plan_file = work / "plan.json"
        plan_file.write_text(json.dumps({"jobs": jobs, "trace": traced_next,
                                         "cache_dir": str(cache_dir)}))
        try:
            s, report = launch(plan_file, left)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
            plan_file.unlink()
        longest = max(longest, time.monotonic() - pass_start)
        attempted += len(jobs)
        if report is None:
            failed += len(jobs)
            walls[traced_next].append(None)
            traced_next = trace and not traced_next
            continue
        setup.append(s)
        scale = gauge.KERNEL_REF_S / report["pass_kernel_s"]
        for i, (k, res) in enumerate(zip(keys, report["jobs"])):
            if res["code"] != 0 or res["sha256"] != reference.get(k):
                failed += 1
                print(f"job failed: {k} (exit {res['code']})", file=sys.stderr)
            if not traced_next:
                ms = res["s"] * gauge.KERNEL_REF_S / res["kernel_s"] * 1000
                latencies.append(ms)
                if i in hit_jobs:
                    hit_latencies.append(ms)
        walls[traced_next].append(report["wall_s"] * scale)
        raw["wall_s"].append(report["wall_s"])
        raw["kernel_s"].append(report["pass_kernel_s"])
        if traced_next:
            layers.append(_rescaled(report["layers"], scale))
        else:
            rss.append(report["peak_rss_mib"])
        traced_next = trace and not traced_next

    probe(SETUP_SAMPLES - len(setup))
    shutil.rmtree(work, ignore_errors=True)
    untraced = [w for w in walls[False] if w is not None]
    if trace:
        metrics = spans.merge(layers) if layers else {}
        traced = [w for w in walls[True] if w is not None]
        if traced and untraced:
            metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        metrics["cli.hit_p50_ms"] = percentile(hit_latencies, 50) if hit_latencies else 0.0
        metrics["cli.hit_p95_ms"] = percentile(hit_latencies, 95) if hit_latencies else 0.0
        units = {k: u for k, (u, _) in workloads.PER_LAYER.items()}
    else:
        metrics = {}
        if untraced:
            metrics["wall_s"] = statistics.median(untraced)
            metrics["peak_rss_mib"] = statistics.median(rss)
            metrics["job_p50_ms"] = percentile(latencies, 50)
            metrics["job_p95_ms"] = percentile(latencies, 95)
        if setup:
            metrics["setup_s"] = statistics.median(setup)
        units = E2E_UNITS
    return {
        "correct": failed == 0 and attempted > 0 and set(metrics) == set(units),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in sorted(metrics.items()) if k in units},
        "pass_wall_s": {"untraced": walls[False], "traced": walls[True]},
        "raw": raw,
        "setup_samples": len(setup),
        "job_samples": len(latencies),
    }


def _rescaled(layers: dict, scale: float) -> dict:
    """Per-layer metrics with every time multiplied by ``scale``."""
    units = {k: u for k, (u, _) in workloads.PER_LAYER.items()}
    return {k: v * scale if units.get(k) in ("s", "ms") else v
            for k, v in layers.items()}


def _planned_hits(jobs) -> set[int]:
    """Indices of cache jobs that follow a request of the same key."""
    seen, hits = set(), set()
    for i, job in enumerate(jobs):
        if job["cache"]:
            k = (job["argv"][0], job["argv"][2])
            if k in seen:
                hits.add(i)
            seen.add(k)
    return hits


def machine_facts() -> dict:
    """Interpreter, cores, load at start, and which code was measured."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "weylzeta").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        commit = ref
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "weylzeta" / "__init__.py").is_file():
        print(f"no weylzeta source under {SRC}: run from a full checkout",
              file=sys.stderr)
        return 2
    facts = machine_facts()
    result = measure(workloads.plan(args.workload, args.seed),
                     args.seconds, bool(args.trace))
    with contextlib.suppress(OSError):
        WORK.rmdir()  # only when no other run is using it
    extra = {k: result.pop(k) for k in ("pass_wall_s", "raw", "setup_samples", "job_samples")}
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, **extra, "machine": facts}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
