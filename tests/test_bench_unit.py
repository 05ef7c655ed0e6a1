"""The benchmark's own unit tests (perfbench/bench_tests.py), collected here
so that a program change that breaks the benchmark's generators, tracer
wiring or job checks fails the test suite.  The module is loaded from its
file and never changed; its test cases write only to temporary
directories."""

import importlib.util
import unittest
from pathlib import Path

BENCH_TESTS = Path(__file__).resolve().parent.parent / "perfbench" / "bench_tests.py"

_spec = importlib.util.spec_from_file_location("bench_tests", BENCH_TESTS)
_module = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_module)

globals().update(
    (name, case)
    for name, case in vars(_module).items()
    if isinstance(case, type) and issubclass(case, unittest.TestCase)
)
