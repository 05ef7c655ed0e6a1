"""The benchmark's seed-independent workloads, replayed once against their
golden digests (perfbench/golden/), so that a drifted CLI output or check
detail fails here and not only in a benchmark run.  The benchmark's own
modules are imported, never changed."""

import importlib
import json
from pathlib import Path

import pytest

import regdensity
import regdensity.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("workload", ["check-suite", "approx-gap"])
def test_seed_independent_workload_matches_its_golden_digests(monkeypatch, tmp_path, workload):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    jobs = importlib.import_module("jobs")
    run = importlib.import_module("run")
    build, seeded = jobs.WORKLOADS[workload]
    assert not seeded
    golden = json.loads((PERFBENCH / "golden" / ("%s.json" % workload)).read_text())
    assert golden["seed"] is None
    job_list = build(regdensity, None, str(tmp_path))
    assert sorted(job.id for job in job_list) == sorted(golden["digests"])
    records = [(job, 0.0, *job.run()) for job in job_list]
    assert run.verify(records, dict(golden["digests"]), {}) == {}
