"""Failures are counted against attempts, never skipped."""

from types import SimpleNamespace

from checks import DEFAULT_SEED, Checker, load_golden
from workloads import Outcome, _check_served, slo_ratio

DIGEST = {"metrics": {"sim.accesses": 10, "workload": "Euler"},
          "time_s": 1.5e-05}
EXPECTED = {("Euler", "numa-gpu"): DIGEST}


class FakeClient:
    """Answers ``GET /jobs/<id>/result`` from a fixed table."""

    def __init__(self, results):
        self.results = results

    def result(self, job_id):
        return SimpleNamespace(status=200, body=self.results[job_id])


def sent(status, job_id=None):
    body = {"id": job_id, "dedup": "new"} if job_id else {"error": "full"}
    return {"status": status, "body": body}


def final(state):
    return {"state": state,
            "request": {"system": "numa-gpu", "workloads": ["Euler"]}}


def run_check(seg, results):
    out = Outcome()
    checker = Checker(seed=DEFAULT_SEED + 1, golden=False)
    _check_served(FakeClient(results), seg, EXPECTED, checker, out)
    return out, checker


def test_matching_job_is_not_failed():
    seg = {"sent": [sent(201, "j1")], "finals": {"j1": final("done")}}
    out, checker = run_check(seg, {"j1": {"results": {"Euler": DIGEST}}})
    assert (out.attempted, out.failed) == (1, 0)
    assert checker.problems == []


def test_refused_submission_counts_as_failed():
    seg = {"sent": [sent(429), sent(201, "j1")],
           "finals": {"j1": final("done")}}
    out, _ = run_check(seg, {"j1": {"results": {"Euler": DIGEST}}})
    assert (out.attempted, out.failed) == (2, 1)


def test_failed_job_counts_as_failed():
    seg = {"sent": [sent(201, "j1"), sent(200, "j1")],
           "finals": {"j1": final("failed")}}
    out, _ = run_check(seg, {})
    assert (out.attempted, out.failed) == (2, 2)


def test_digest_mismatch_counts_as_failed():
    wrong = dict(DIGEST, time_s=DIGEST["time_s"] * 2)
    seg = {"sent": [sent(201, "j1"), sent(200, "j1")],
           "finals": {"j1": final("done")}}
    out, checker = run_check(seg, {"j1": {"results": {"Euler": wrong}}})
    assert (out.attempted, out.failed) == (2, 2)
    assert checker.problems


def test_checker_compares_deliveries_and_golden():
    checker = Checker(seed=DEFAULT_SEED + 1, golden=False)
    assert checker.check("Euler@numa-gpu", DIGEST)
    assert not checker.check("Euler@numa-gpu", dict(DIGEST, time_s=0.0))
    golden = Checker(seed=DEFAULT_SEED, golden=True)
    pid = "Euler@numa-gpu"
    assert golden.check(pid, load_golden()["points"][pid])
    assert not Checker(seed=DEFAULT_SEED, golden=True).check(pid, DIGEST)


def test_refused_or_failed_requests_miss_the_slo():
    assert slo_ratio([(0.01, 0.05), (None, 0.05), (0.2, 0.05),
                      (0.04, 0.05)]) == 0.5
