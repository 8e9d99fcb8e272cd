"""kohnspec benchmark: seeded, closed-loop streams of CLI jobs with checked outputs.

    python3 bench/run.py --workload counting --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  A run repeats passes until --seconds is
spent: each pass is one fresh Python process (cold imports, cold caches)
that runs the workload's whole job list through `kohnspec.cli.main`, one
job after another, with no threads (one client in a closed loop).  Passes
run one after another, never side by side.  A few extra processes that
only import kohnspec and build the parser add set-up samples.

Every output of the first pass is checked (see checks.py); every later
pass must reproduce the first pass's outputs byte for byte.

--trace 0 prints the end-to-end metrics (medians over passes).  --trace 1
alternates untraced and traced passes and prints the per-layer metrics
(see tracing.py), the tracing overhead and the unattributed residual.
The last line of stdout is one JSON object; the lines before it are a
readable report.  --record FILE appends the full run record to FILE.
--workload all runs the three workloads in turn.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import jobs as joblib

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150
# Time metrics are host-speed adjusted.  Each pass process times a fixed
# loop (child.calibrate) between jobs; a job's raw time is scaled by
# CAL_REFERENCE_S / (mean of the two loop times around it), set-up by the
# first loop time.  The unit stays seconds: seconds on a reference host
# where that loop takes CAL_REFERENCE_S.  Raw times are in the run record.
CAL_REFERENCE_S = 0.012

END_TO_END_UNITS = {
    "wall_s": "s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark itself could not run (not a failed job)."""


def run_child(job_list, trace: bool, keep: bool) -> dict:
    """Run one pass in a fresh interpreter and return its result object."""
    src = ROOT / "src"
    if not (src / "kohnspec" / "cli.py").is_file():
        raise BenchError(f"no kohnspec sources under {src}")
    env = dict(os.environ, PYTHONPATH=str(src))
    request = json.dumps({"jobs": job_list, "trace": trace, "keep": keep})
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py")],
            input=request, capture_output=True, text=True, cwd=ROOT, env=env,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a pass took over {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"pass process failed:\n{proc.stderr.strip()}")
    result = json.loads(proc.stdout)
    if not Path(result["kohnspec"]).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"imported kohnspec from {result['kohnspec']}, not {src}")
    return result


def known_defect(argv, err: str) -> bool:
    """universal_constant(n) raises NonConvergence for n >= 9 (see README)."""
    if argv[0] != "remainder":
        return False
    n = len(argv[argv.index("--lens") + 1].split(","))
    return n >= 9 and "refinement limit" in err


def speed_factor(result: dict) -> float:
    return CAL_REFERENCE_S / statistics.median(result["calibrations"])


def job_times(result: dict) -> list[float]:
    return [j["t"] * CAL_REFERENCE_S / j["cal"] for j in result["jobs"]]


def adjusted_wall(result: dict) -> float:
    """Adjusted job times plus the loop's own overhead at the pass's speed."""
    overhead = result["wall_s"] - sum(j["t"] for j in result["jobs"])
    return sum(job_times(result)) + overhead * speed_factor(result)


def adjusted_setup(result: dict) -> float:
    return result["setup_s"] * CAL_REFERENCE_S / result["calibrations"][0]


def quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> dict:
    """Run passes until `seconds` is spent; return the run record."""
    job_list, n_main = joblib.generate(workload, seed, tiny)
    start = time.perf_counter()
    probes = [run_child([], False, False) for _ in range(SETUP_PROBES)]
    passes, pass_costs = [], []
    while True:
        traced = trace and len(passes) % 2 == 1
        began = time.perf_counter()
        result = run_child(job_list, traced, keep=not passes)
        pass_costs.append(time.perf_counter() - began)
        result["traced"] = traced
        passes.append(result)
        if len(passes) == 1:
            outputs = [j["out"] if j["rc"] == 0 else None for j in result["jobs"]]
            bad = checks.check_jobs(job_list, outputs)
            reference = [(j["rc"], j["sha"]) for j in result["jobs"]]
            for j in result["jobs"]:
                del j["out"]
        need_more = trace and len(passes) < 2
        if not need_more and time.perf_counter() + statistics.median(
            pass_costs
        ) > start + seconds:
            break

    failures = []
    for p, result in enumerate(passes):
        for i, (argv, j) in enumerate(zip(job_list, result["jobs"])):
            if j["rc"] != 0:
                reason = f"exit {j['rc']}: {j['err']}"
            elif i in bad:
                reason = f"check: {bad[i]}"
            elif (j["rc"], j["sha"]) != reference[i]:
                reason = "output differs from the first pass"
            else:
                continue
            failures.append({"pass": p, "job": i, "argv": argv, "reason": reason,
                             "known": j["rc"] != 0 and known_defect(argv, j["err"])})

    plain = [r for r in passes if not r["traced"]]
    # Job percentiles are taken per pass over the workload's own jobs (not
    # the per-layer tail), then the median over passes is reported, so each
    # percentile always falls at the same rank of the same job list.
    times = [job_times(r)[:n_main] for r in plain]
    setups = [adjusted_setup(r) for r in probes + passes]
    metrics = {
        "wall_s": statistics.median(adjusted_wall(r) for r in plain),
        "job_p50_s": statistics.median(statistics.median(t) for t in times),
        "job_p90_s": statistics.median(quantile(t, 0.9) for t in times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    attempted = len(job_list) * len(passes)
    record = {
        "workload": workload,
        "seed": seed,
        "tiny": tiny,
        "seconds": seconds,
        "trace": trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": passes[0]["numpy"],
        "nproc": os.cpu_count(),
        "jobs": len(job_list),
        "jobs_digest": joblib.digest(job_list),
        "passes": len(passes),
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "correct": all(f["known"] for f in failures),
        "failures": failures,
        "metrics": metrics,
        "main_jobs": n_main,
        "raw_wall_s": statistics.median(r["wall_s"] for r in plain),
        "speed_factor": statistics.median(speed_factor(r) for r in probes + passes),
        "setup_samples": setups,
        "runs": [
            {"traced": r["traced"], "raw_wall_s": r["wall_s"], "raw_setup_s": r["setup_s"],
             "speed_factor": speed_factor(r), "peak_rss_mb": r["peak_rss_mb"]}
            for r in passes
        ],
    }
    if trace:
        layered = [r for r in passes if r["traced"]]
        for r in layered:
            f = speed_factor(r)
            r["layers"] = {n: v * f if n.endswith("_s") else v for n, v in r["layers"].items()}
            r["layers"]["trace.wall_s"] = adjusted_wall(r)
        layers = {
            name: statistics.median(r["layers"][name] for r in layered)
            for name in layered[0]["layers"]
        }
        layers["cli.out_bytes"] = sum(j["bytes"] for j in layered[0]["jobs"])
        layers["trace.overhead_s"] = layers["trace.wall_s"] - metrics["wall_s"]
        record["layers"] = layers
        record["layer_runs"] = [r["layers"] for r in layered]
    return record


def git_sha():
    """HEAD of the checkout, or None when it is not a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith("_bytes") else "count"


def report(record: dict) -> dict:
    """Print the readable report; return the metrics object for the last line."""
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"{record['jobs']} jobs x {record['passes']} passes  "
          f"({record['main_jobs']} before the per-layer tail)")
    print(f"  raw wall_s {record['raw_wall_s']:.4f} s; host speed factor "
          f"{record['speed_factor']:.4f} (times below are host-speed adjusted)")
    print(f"  failed_frac      {record['failed_frac']:.4f}  "
          f"({record['failed']} of {record['attempted']} jobs)")
    for f in record["failures"]:
        kind = "known defect" if f["known"] else "FAILED"
        print(f"    {kind}: pass {f['pass']} job {f['job']} "
              f"[{' '.join(f['argv'])}] {f['reason']}")
    if record["trace"]:
        shown = {n: {"value": v, "unit": layer_unit(n)}
                 for n, v in sorted(record["layers"].items())}
    else:
        shown = {n: {"value": v, "unit": END_TO_END_UNITS[n]}
                 for n, v in record["metrics"].items()}
    for name, m in shown.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    return shown


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*joblib.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", type=Path, help="append the run record to this JSON file")
    args = parser.parse_args(argv)

    names = joblib.WORKLOADS if args.workload == "all" else [args.workload]
    try:
        records = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    shown = {}
    for record in records:
        metrics = report(record)
        prefix = "" if len(records) == 1 else record["workload"] + "/"
        shown.update({prefix + n: m for n, m in metrics.items()})
    if args.record:
        existing = json.loads(args.record.read_text()) if args.record.exists() else []
        args.record.write_text(json.dumps(existing + records, indent=1) + "\n")
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": shown,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
