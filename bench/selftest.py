"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench/selftest.py

They check that job lists are a function of the seed, that the reference
implementations in checks.py agree with kohnspec, that every output check
rejects a corrupted output, and that a tiny run of every workload passes.
"""
import contextlib
import io
import json
import math
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
from kohnspec import cli, make_lens_space  # noqa: E402
from kohnspec.invariant import dim_invariant  # noqa: E402
from kohnspec.sphere import sphere_counting  # noqa: E402


def test_same_seed_same_jobs():
    for w in jobs.WORKLOADS:
        first, n_main = jobs.generate(w, 7)
        assert jobs.generate(w, 7) == (first, n_main)
        assert jobs.generate(w, 8)[0] != first
        assert jobs.digest(first) == jobs.digest(jobs.generate(w, 7)[0])
    assert jobs.generate("many-spaces", 7)[1] >= 100


def test_references_agree_with_kohnspec():
    for k, weights in [(1, (0, 0)), (6, (1, 5)), (7, (2, 3)), (9, (1, 1)), (12, (5, 7))]:
        space = make_lens_space(2, k, weights)
        for p in range(2 * k + 2):
            for q in range(2 * k + 2):
                assert checks.n2_dim(k, space.weights, p, q) == dim_invariant(space, p, q)
    for n in (2, 3, 4):
        for lam in (0, 2, 10, 98, 400):
            assert checks.sphere_count(n, lam) == sphere_counting(n, lam)
    assert abs(checks.weyl_constant(2) - 1 / 48) < 1e-15


def outputs_of(job_list):
    """Run jobs in this process; return each job's stdout."""
    outs = []
    for argv in job_list:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv) == 0, argv
        outs.append(buf.getvalue())
    return outs


def corrupt_json(text, edit):
    obj = json.loads(text)
    edit(obj)
    return json.dumps(obj, indent=2) + "\n"


def bump_remainder(text):
    """Shift one residual by 10 and keep the scaled columns consistent with it.

    The tail's remainder job is on a 3-d lens space (n = 2), so the scale is
    lambda^(n-1) = lambda.
    """
    lines = text.strip().split("\n")
    lam, residual, _, _ = lines[1].split(",")
    new = float(residual) + 10.0
    scale = float(lam)
    lines[1] = f"{lam},{new:.12g},{new / scale:.12g},{new / (scale * math.log(int(lam))):.12g}"
    return "\n".join(lines) + "\n"


def bump_last_row(text):
    lines = text.strip().split("\n")
    lam, mult = lines[-1].split(",")
    lines[-1] = f"{lam},{int(mult) + 1}"
    return "\n".join(lines) + "\n"


def move_class_member(obj):
    classes = obj["classes"]
    classes[1]["members"].append(classes[0]["members"].pop())


CORRUPTIONS = {
    "count": lambda t: f"{int(t) + 1}\n",
    "weyl": lambda t: corrupt_json(t, lambda o: o[-1].update(n_lens=o[-1]["n_lens"] + 1)),
    "remainder": bump_remainder,
    "spectrum": bump_last_row,
    "isospec": lambda t: corrupt_json(t, lambda o: o.update(spectra_equal=not o["spectra_equal"])),
    "classify": lambda t: corrupt_json(t, move_class_member),
    "cmatrix": lambda t: json.dumps([[x + 1 for x in row] for row in json.loads(t)]) + "\n",
    "span": lambda t: f"{int(t) - 1}\n",
    "genfunc-check": lambda t: corrupt_json(t, lambda o: o.update(max_deviation=1e-3)),
    "dim": lambda t: f"{int(t) + 1}\n",
    "bounds-check": lambda t: t.replace("checked ", "checked 1"),
}


def bump_contributor(obj):
    entry = obj["entries"][-1]
    entry["contributors"][0]["dim"] += 1
    entry["multiplicity"] += 1


def test_checks_reject_corrupted_outputs():
    job_list, n_main = jobs.generate("tables", 3, tiny=True)
    tail = job_list[n_main:]
    outs = outputs_of(tail)
    assert checks.check_jobs(tail, outs, digests={}) == {}
    kinds = {argv[0] for argv in tail}
    assert kinds == set(CORRUPTIONS)
    for i, argv in enumerate(tail):
        bad = list(outs)
        if "--contributors" in argv:
            bad[i] = corrupt_json(outs[i], bump_contributor)
        else:
            bad[i] = CORRUPTIONS[argv[0]](outs[i])
        assert bad[i] != outs[i], argv
        assert i in checks.check_jobs(tail, bad, digests={}), argv
    # A recorded digest catches any change, even one the identities miss.
    key = checks.job_key(tail[0])
    digests = {key: checks.sha(outs[0] + " ")}
    assert 0 in checks.check_jobs(tail, outs, digests=digests)


def test_tiny_runs_pass():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    for w in jobs.WORKLOADS:
        record = run.run_workload(w, 5, 0, trace=True, tiny=True)
        assert record["correct"], record["failures"]
        assert all(f["known"] for f in record["failures"])
        assert set(record["metrics"]) == {m["name"] for m in bench["end_to_end"]}
        assert set(record["layers"]) == {m["name"] for m in bench["per_layer"]}
    assert record["failed"] > 0  # many-spaces keeps the n >= 9 quadrature failures
