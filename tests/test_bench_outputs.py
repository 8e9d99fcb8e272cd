"""Every benchmark job of the committed seeds prints what it printed when recorded.

The jobs of seeds 1 and 2 of each workload run in this process through
`cli.main`.  A job with a digest in `bench/digests.json` must exit 0, and
`checks.check_jobs` must pass every output against the digests and the
harness's own references and cross-job identities.  The `genfunc-check`
and `remainder` digests are left out: their last printed digits are libm
rounding, which may differ with the C library; their checks still hold
them to mpmath within 1e-8 and to a deviation of at most 1e-9.
"""
import contextlib
import io
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import jobs  # noqa: E402
from kohnspec import cli  # noqa: E402

_ROUNDED = ("genfunc-check", "remainder")


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
@pytest.mark.parametrize("seed", [1, 2])
def test_seed_outputs_match_the_recorded_digests(workload, seed):
    job_list = jobs.generate(workload, seed)[0]
    digests = checks.load_digests()
    exact = {key: value for key, value in digests.items() if key.split()[0] not in _ROUNDED}
    outputs = []
    for argv in job_list:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        assert code == 0 or checks.job_key(argv) not in digests, argv
        outputs.append(buf.getvalue() if code == 0 else None)
    assert checks.check_jobs(job_list, outputs, digests=exact) == {}
