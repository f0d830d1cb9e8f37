"""One pass of a workload in a fresh interpreter.

    python3 worker.py SRC_DIR [PLAN_FILE]

The first thing the worker does is import weylzeta from SRC_DIR, so the
root-system caches start cold as in a command-line call, and the moment the
import returns is the end of set-up.  Without a plan it prints that moment
and exits.  With one it runs the plan's jobs through ``weylzeta.cli.main``,
one after another, capturing each job's stdout, and prints one JSON line:
the import moment, the pass wall time, each job's exit code, stdout sha256
and seconds, the peak resident memory and, for a traced plan, the per-layer
metrics.  Times are raw; the report adds the mean kernel time of the
machine-speed gauge right after import, during the pass and around each
job, from which the caller rescales them (see gauge.py).
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
from weylzeta import cli  # noqa: E402  (set-up ends when this returns)

IMPORTED_AT = time.monotonic()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

import gauge  # noqa: E402

SETUP_KERNEL_S = statistics.fmean(gauge.kernel() for _ in range(gauge.SETUP_KERNELS))


def run_job(argv):
    """Run one job; an exit code or None when an exception escaped."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        code = None
    return code, buf.getvalue()


def main() -> int:
    src = os.path.realpath(sys.argv[1])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"weylzeta imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    if len(sys.argv) < 3:
        print(json.dumps({"imported_at": IMPORTED_AT, "setup_kernel_s": SETUP_KERNEL_S}))
        return 0
    with open(sys.argv[2]) as fh:
        plan = json.load(fh)

    runner = run_job
    rec = None
    if plan["trace"]:
        import spans

        rec = spans.Recorder()
        spans.install(rec)
        runner = rec.wrap("job", run_job)

    results = []
    clock = time.perf_counter
    sampler = gauge.Sampler()
    sampler.start()
    t0 = clock()
    for index, job in enumerate(plan["jobs"]):
        argv = job["argv"] + (["--cache", plan["cache_dir"]] if job["cache"] else [])
        if rec is not None:
            rec.current_job = index
        start = clock()
        code, out = runner(argv)
        end = clock()
        results.append({"code": code, "sha256": hashlib.sha256(out.encode()).hexdigest(),
                        "s": end - start, "span": (start, end)})
    wall = clock() - t0
    sampler.stop()

    pass_kernel = statistics.fmean(sampler.samples or [SETUP_KERNEL_S])
    for res in results:
        start, end = res.pop("span")
        near = sampler.mean_between(start - gauge.JOB_MARGIN_S, end + gauge.JOB_MARGIN_S)
        res["kernel_s"] = near or pass_kernel
    report = {
        "imported_at": IMPORTED_AT,
        "setup_kernel_s": SETUP_KERNEL_S,
        "pass_kernel_s": pass_kernel,
        "wall_s": wall,
        "jobs": results,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if rec is not None:
        cache_jobs = {i for i, job in enumerate(plan["jobs"]) if job["cache"]}
        report["layers"] = spans.layer_metrics(rec, cache_jobs)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
