"""One benchmark pass: a fresh interpreter runs a job list through the CLI.

Reads {"jobs": [...], "trace": bool, "keep": bool} as JSON on stdin and
writes one JSON object on stdout.  The parent sets PYTHONPATH to the
checkout's `src`, so this process imports kohnspec cold, like a user's
shell does, and reuses its caches across jobs, like a session does.
"""
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback


def peak_rss_mb() -> float:
    """High-water resident set of this process, in MiB.

    VmHWM belongs to this process image alone; ru_maxrss would also carry
    the parent's peak across exec.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


CAL_ITERATIONS = 60_000
CAL_EVERY_S = 0.25


def _cal_step(row, i):
    return row[i % 7] * 3 + (i >> 2)


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: a probe of host speed.

    The loop mixes calls, tuple indexing, dict stores and big-integer
    arithmetic, like kohnspec's own inner loops.
    """
    start = time.perf_counter()
    row, table, big = tuple(range(1, 8)), {}, 1
    for i in range(CAL_ITERATIONS):
        table[i & 255] = _cal_step(row, i)
        if i % 64 == 0:
            big = (big * 1000003 + i) % (1 << 200)
    return time.perf_counter() - start


def main() -> int:
    request = json.load(sys.stdin)
    start = time.perf_counter()
    from kohnspec import cli

    cli.build_parser()
    setup_s = time.perf_counter() - start

    tracer = None
    if request["trace"]:
        import tracing

        tracer = tracing.install()
    # Calibration runs between jobs, outside the timed regions: before the
    # first job, after each job that ends CAL_EVERY_S past the last probe,
    # and at the end.  Each job is scaled by the mean of the two probes
    # around it.
    calibrations = [calibrate()]
    since_probe = 0.0
    texts, errors, codes, times, before = [], [], [], [], []
    wall_start = time.perf_counter()
    for index, argv in enumerate(request["jobs"]):
        before.append(len(calibrations) - 1)
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.job = index
        job_start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # an uncaught library error fails this job only
                traceback.print_exc()
                code = -1
        times.append(time.perf_counter() - job_start)
        codes.append(code)
        texts.append(out.getvalue())
        errors.append(err.getvalue())
        since_probe += times[-1]
        if since_probe >= CAL_EVERY_S:
            calibrations.append(calibrate())
            since_probe = 0.0
    wall_s = time.perf_counter() - wall_start - sum(calibrations[1:])
    calibrations.append(calibrate())

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb(),
        "calibrations": calibrations,
        "kohnspec": sys.modules["kohnspec"].__file__,
        "numpy": getattr(sys.modules.get("numpy"), "__version__", None),
        "jobs": [
            {
                "t": t,
                "cal": (calibrations[b] + calibrations[b + 1]) / 2,
                "rc": code,
                "sha": hashlib.sha256(text.encode()).hexdigest()[:16],
                "bytes": len(text.encode()),
                "err": err.strip().splitlines()[-1] if code and err.strip() else "",
                "out": text if request["keep"] else None,
            }
            for t, code, text, err, b in zip(times, codes, texts, errors, before)
        ],
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(times, wall_s)
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
