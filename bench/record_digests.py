"""Record the output digests of the committed seeds into digests.json.

    python3 bench/record_digests.py

Run it only on a commit whose test suite passes: every later run of these
seeds must reproduce the recorded outputs byte for byte.  A digest is
written only for jobs that exit 0 and pass every identity check.
"""
import json
import sys

import checks
import jobs
import run

COMMITTED_SEEDS = (1, 2)


def main() -> int:
    digests = {}
    for workload in jobs.WORKLOADS:
        for seed in COMMITTED_SEEDS:
            job_list, _ = jobs.generate(workload, seed)
            result = run.run_child(job_list, trace=False, keep=True)
            outputs = [j["out"] if j["rc"] == 0 else None for j in result["jobs"]]
            bad = checks.check_jobs(job_list, outputs, digests={})
            if bad:
                print(f"{workload} seed {seed}: checks failed: {bad}", file=sys.stderr)
                return 1
            for argv, out in zip(job_list, outputs):
                if out is not None:
                    digests[checks.job_key(argv)] = checks.sha(out)
    checks.DIGESTS_PATH.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
