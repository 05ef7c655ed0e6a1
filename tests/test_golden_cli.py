"""Byte-level regression guard for the command-line surface.

``golden_cli.json`` lists fixed invocations with the sha256 digest of
``"<exit code>\\n<stdout>"``.  The test replays every invocation and compares
digests.  To re-record after an intended output change, run this module as a
script: ``PYTHONPATH=src python tests/test_golden_cli.py``.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from regdensity.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden_cli.json")

_GAP_CASES = [
    ("modk", ["3,5", "2,4"], 10),
    ("pal", ["1,2", "3"], 10),
    ("goldstine", ["1,2", "3,4"], 12),
    ("o3", ["1,2", "3"], 6),
    ("o4", ["1,2", "3"], 4),
    ("suffix-ext:dyck:c", ["0,1,2", "3"], 6),
    ("prefix-ext:dyck:c", ["1,2", "3"], 6),
    ("infix-ext:dyck:c", ["1,2", "4"], 6),
    ("suffix-ext:pal:c", ["1,3"], 5),
    # deeper and multi-k sweeps over stepped targets
    ("goldstine", ["1,2,3,4,5,6,7,8,9,10"], 14),
    ("modk", ["2,4"], 14),
    ("prefix-ext:dyck:c", ["1,2,3,4"], 8),
    ("infix-ext:dyck:c", ["0,3"], 8),
    # thin-side targets: every window machine of the palindrome family, and
    # a trie over the diagonal language past the state budget (exit 3)
    ("pal", ["1,2,3,4,5,6,7"], 14),
    ("suffix-ext:diagonal:c", ["99999999999"], 2),
    # prefix tries: over a membership-only base with k=0, over goldstine, and
    # past the state budget before the base is asked (exit 3)
    ("prefix-ext:pal:c", ["0,1,3"], 6),
    ("prefix-ext:goldstine:c", ["2,5"], 7),
    ("prefix-ext:dyck:c", ["18"], 2),
    # deep tail tries over a stepped base: 131,071 trie words at k=17
    ("prefix-ext:dyck:c", ["12,17"], 2),
    # deep suffix tries over a stepped base, minimal at 47 and 62 states
    ("suffix-ext:dyck:c", ["12,17"], 2),
]

_CENSUS_CASES = [
    ("dyck", 10),
    ("counteq:a,b", 9),
    ("pal", 9),
    ("o3", 5),
    ("o4", 4),
    ("goldstine", 9),
    ("kemp", 6),
    ("majority:2", 9),
    ("primitive", 9),
    ("coprefix:a=ab,b=a", 9),
    ("suffix-ext:dyck:c", 5),
    ("diagonal", 7),
    ("suffix-ext:dyck:c", 8),
    ("o4", 7),
    # thin-side oracles, one in a declared letter order that is not ASCII
    ("primitive", 16),
    ("pal", 16),
    ("coprefix:b=ba,a=b", 14),
    ("diagonal", 12),
]

_OTHER_CASES = [
    ["density", "--dfa", "evens"],
    ["density", "--dfa", "modk:3"],
    ["density", "--dfa", "starts:a"],
    ["monoid", "--dfa", "evens"],
    ["monoid", "--dfa", "modk:4"],
    ["monoid", "--dfa", "starts:b"],
    # the whole suite: exit 1 on the two knowingly-red items, with every detail
    ["check", "--format", "json"],
    # the default CSV rendering: a PASS line, and a FAIL line with exit 1
    ["check", "--only", "goldstine"],
    ["check", "--only", "majority"],
    # over budget: exit 3, nothing on stdout
    ["gap", "--family", "goldstine", "--k", "1,0", "--max", "30"],
    ["gap", "--family", "pal", "--k", "2", "--max", "9", "--budget", "500"],
    ["gap", "--family", "pal", "--k", "9", "--max", "4"],
    ["census", "--oracle", "dyck", "--max", "30"],
    ["census", "--oracle", "pal", "--max", "7", "--budget", "100"],
    ["monoid", "--dfa", "modk:7", "--budget", "3"],
    # tuple elements: a minimal DFA above 256 states, in and one past budget
    ["monoid", "--dfa", "modk:300"],
    ["monoid", "--dfa", "modk:300", "--budget", "299"],
    # bad k before an over-budget walk: exit 2
    ["gap", "--family", "goldstine", "--k", "0,1", "--max", "30"],
]


def invocations():
    cases = []
    for name, ks_list, max_length in _GAP_CASES:
        for ks in ks_list:
            argv = ["gap", "--family", name, "--k", ks, "--max", str(max_length)]
            cases.append(argv)
            cases.append(argv + ["--format", "json"])
    for name, max_length in _CENSUS_CASES:
        argv = ["census", "--oracle", name, "--max", str(max_length)]
        cases.append(argv)
        cases.append(argv + ["--format", "json"])
    for argv in _OTHER_CASES:
        cases.append(argv)
        if argv[0] in ("density", "monoid") and "--budget" not in argv:
            cases.append(argv + ["--format", "json"])
    return cases


def digest(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return hashlib.sha256(("%d\n%s" % (code, out.getvalue())).encode()).hexdigest()


def _load():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_set_matches_invocation_list():
    assert [case["argv"] for case in _load()] == invocations()


@pytest.mark.parametrize("case", _load(), ids=lambda case: " ".join(case["argv"]))
def test_cli_output_matches_golden_digest(case):
    assert digest(case["argv"]) == case["sha256"]


@pytest.mark.parametrize(
    "case",
    [case for case in _load() if case["argv"][0] == "monoid"],
    ids=lambda case: " ".join(case["argv"]),
)
def test_monoid_report_builds_no_left_cayley_graph(case, monkeypatch):
    # the class counts come from the egg-box, not from every L-class: the
    # one walk down the BFS tree is the image walk of green_classes
    from regdensity.monoid import Monoid

    along, walks = Monoid._along, []

    def counted(monoid, first, columns):
        walks.append(first)
        return along(monoid, first, columns)

    monkeypatch.setattr(Monoid, "_along", counted)
    assert digest(case["argv"]) == case["sha256"]
    # both budgeted cases exit 3 before Green's classes are computed
    assert walks == ([] if "--budget" in case["argv"] else [0])


def test_golden_digests_hold_under_fixed_hash_seeds():
    # string hashing is randomised per process; output must not depend on it
    here = pathlib.Path(__file__).parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    replay = (
        "import json, test_golden_cli as g;"
        "print(json.dumps([g.digest(case['argv']) for case in g._load()]))"
    )
    expected = [case["sha256"] for case in _load()]
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        done = subprocess.run(
            [sys.executable, "-c", replay], env=env, capture_output=True, text=True, check=True
        )
        assert json.loads(done.stdout) == expected, "PYTHONHASHSEED=%s" % seed


if __name__ == "__main__":
    records = [{"argv": argv, "sha256": digest(argv)} for argv in invocations()]
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print("recorded %d invocations in %s" % (len(records), GOLDEN.name))
