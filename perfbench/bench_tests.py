"""The benchmark's own tests.

Run from the root of a checkout:

    python3 -m unittest perfbench/bench_tests.py
"""

import random
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gen  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

rd = run.import_program()


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


class GeneratorTest(unittest.TestCase):
    def build(self, workload, seed):
        build, _ = jobs.WORKLOADS[workload]
        with tempfile.TemporaryDirectory() as directory:
            job_list = build(rd, seed, directory)
            return [j.id for j in job_list], _files(directory)

    def test_same_seed_same_inputs(self):
        for workload in ("density-engine", "monoid-witness"):
            first = self.build(workload, 7)
            self.assertEqual(first, self.build(workload, 7))
            self.assertNotEqual(first[1], self.build(workload, 8)[1])

    def test_reference_counts_match_program(self):
        doc = gen.recurrent_dfa(random.Random(3), 40)
        census = rd.automata.dfa_from_json(doc).count_words(30)
        self.assertEqual(gen.count_words(doc, 30), census.counts)

    def test_reference_monoid_matches_program(self):
        rng = random.Random(5)
        for _ in range(20):
            doc = gen.permutation_map_dfa(rng, rng.choice((4, 5, 6)))
            monoid, _ = rd.monoid.transition_monoid(rd.automata.dfa_from_json(doc))
            self.assertEqual(gen.monoid_size(doc), len(monoid))


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_span_tree(self):
        # A [0, 15] contains B [2, 5], C [6, 10] and an unkept oracle span
        # [11, 12]; C contains D [7, 9].
        tracer = tracing.Tracer(FakeClock(0, 2, 5, 6, 7, 9, 10, 11, 12, 15))
        tracer.enter("A")
        tracer.enter("B")
        tracer.exit()
        tracer.enter("C")
        tracer.enter("D")
        tracer.exit()
        tracer.exit()
        tracer.enter("oracle")
        tracer.exit(keep=False)
        tracer.exit()
        self.assertEqual(tracer.stats["A"], [1, 15, 15 - 3 - 4 - 1])
        self.assertEqual(tracer.stats["B"], [1, 3, 3])
        self.assertEqual(tracer.stats["C"], [1, 4, 2])
        self.assertEqual(tracer.stats["D"], [1, 2, 2])
        self.assertEqual(tracer.stats["oracle"], [1, 1, 1])
        parents = {span[3]: span[1] for span in tracer.spans}
        ids = {span[3]: span[0] for span in tracer.spans}
        self.assertEqual(set(parents), {"A", "B", "C", "D"})
        self.assertEqual(parents["A"], 0)
        self.assertEqual(parents["D"], ids["C"])
        self.assertEqual(parents["B"], ids["A"])

    def test_wrappers_reach_every_namespace(self):
        tracer = tracing.Tracer()
        installed = tracing.install(tracer)
        try:
            self.assertEqual(installed.missing, [])
            self.assertIs(rd.cli.natural_density, sys.modules["regdensity.density"].natural_density)
            self.assertIs(rd.natural_density, rd.cli.natural_density)
            self.assertTrue(hasattr(rd.cli.natural_density, "__wrapped__"))
            jobs.cli_job(rd, "t", ["density", "--dfa", "modk:3"], None).run()
        finally:
            installed.restore()
        self.assertEqual(tracer.calls("cli.main"), 1)
        self.assertEqual(tracer.calls("density.natural_density"), 1)
        self.assertEqual(tracer.counts["density.UniformChain.states"], 3)
        self.assertFalse(hasattr(rd.cli.natural_density, "__wrapped__"))
        self.assertFalse(hasattr(rd.natural_density, "__wrapped__"))

    def test_missing_layer_is_reported(self):
        saved = tracing.LAYERS
        tracing.LAYERS = saved + (("core.gone", "regdensity.core", "no_such_function", None, True),)
        try:
            installed = tracing.install(tracing.Tracer())
            installed.restore()
        finally:
            tracing.LAYERS = saved
        self.assertEqual(installed.missing, ["core.gone"])


class HostSpeedTest(unittest.TestCase):
    def test_calibration_share_and_scale(self):
        speed = run.HostSpeed()
        speed.calibrate(0)
        self.assertEqual(speed.loops, 1)
        speed.calibrate(0.05)
        self.assertGreaterEqual(speed.seconds, run.CALIBRATION_SHARE * 0.05)
        self.assertAlmostEqual(speed.scale(), run.REFERENCE_S * speed.loops / speed.seconds)

    def test_pass_times_are_reference_seconds(self):
        job = jobs.cli_job(rd, "density modk:3", ["density", "--dfa", "modk:3"],
                           lambda text: jobs.check_density(text, 1))
        bench = run.Run([job, job], {})
        walls = bench.passes(0, minimum=2)
        self.assertGreaterEqual(bench.speed.loops, 2 * 3)
        self.assertEqual(len(bench.by_job[job.id]), 4)
        self.assertAlmostEqual(sum(walls), sum(bench.by_job[job.id]))
        self.assertEqual((bench.attempted, bench.failed), (4, 0))


class VerificationTest(unittest.TestCase):
    def density_job(self, run_fn=None):
        job = jobs.cli_job(rd, "density modk:3", ["density", "--dfa", "modk:3"],
                           lambda text: jobs.check_density(text, 1))
        if run_fn is not None:
            job.run = run_fn
        return job

    def failures(self, job, expected=None):
        _, records = run.run_pass([job])
        return run.verify(records, dict(expected or {}), {})

    def test_correct_output_passes(self):
        self.assertEqual(self.failures(self.density_job()), {})

    def test_corrupted_output_fails(self):
        code, text = self.density_job().run()
        corrupted = text.replace("acc=[0:", "acc=[0:1+")
        self.assertNotEqual(corrupted, text)
        job = self.density_job(lambda: (code, corrupted))
        self.assertIn(job.id, self.failures(job))
        job = self.density_job(lambda: (code, text.replace("density=2/3", "density=1/3")))
        self.assertIn(job.id, self.failures(job))

    def test_wrong_exit_code_and_raising_job_fail(self):
        job = self.density_job(lambda: (1, "density=2/3 natural=2/3 c=1 acc=[0:2/3]\n"))
        self.assertIn("exit code", self.failures(job)[job.id])

        def boom():
            raise RuntimeError("boom")

        job = self.density_job(boom)
        self.assertIn("boom", self.failures(job)[job.id])

    def test_digest_mismatch_fails(self):
        job = self.density_job()
        self.assertIn(job.id, self.failures(job, {job.id: "0" * 64}))

    def test_known_red_items_are_expected(self):
        report = ('{"criteria": [{"criterion": "majority", "items": ['
                  '{"label": "majority2-ratio-24", "passed": false}, '
                  '{"label": "majority1-ratio-20", "passed": true}]}]}')
        self.assertIsNone(jobs.check_criterion(report, "majority"))
        self.assertIsNotNone(jobs.check_criterion(report.replace("false", "true"), "majority"))


if __name__ == "__main__":
    unittest.main()
