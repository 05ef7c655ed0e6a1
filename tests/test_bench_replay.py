"""The benchmark's workloads, replayed once against their golden digests
(perfbench/golden/), the seeded ones at their golden seed, so that a
drifted CLI output or check detail fails here and not only in a benchmark
run.  The benchmark's own modules are imported, never changed."""

import importlib
import json
from pathlib import Path

import pytest

import regdensity
import regdensity.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def replay(monkeypatch, tmp_path, workload, seeded, seed):
    """Run every job of ``workload`` once with ``seed`` and check it
    against the golden digests, which must be for that seed."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    jobs = importlib.import_module("jobs")
    run = importlib.import_module("run")
    build, is_seeded = jobs.WORKLOADS[workload]
    assert is_seeded == seeded
    golden = json.loads((PERFBENCH / "golden" / ("%s.json" % workload)).read_text())
    assert golden["seed"] == seed
    job_list = build(regdensity, seed, str(tmp_path))
    assert sorted(job.id for job in job_list) == sorted(golden["digests"])
    records = [(job, 0.0, *job.run()) for job in job_list]
    assert run.verify(records, dict(golden["digests"]), {}) == {}


@pytest.mark.parametrize("workload", ["check-suite", "approx-gap"])
def test_seed_independent_workload_matches_its_golden_digests(monkeypatch, tmp_path, workload):
    replay(monkeypatch, tmp_path, workload, False, None)


@pytest.mark.parametrize("workload", ["monoid-witness", "density-engine"])
def test_seeded_workload_matches_its_golden_digests(monkeypatch, tmp_path, workload):
    replay(monkeypatch, tmp_path, workload, True, 1)
