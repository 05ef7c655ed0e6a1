"""Fuzz test of the command-line surface.

Argument vectors for all five subcommands are drawn from the documented
grammar: oracle and family specs (nested ``*-ext`` specs and random
``coprefix`` morphisms over ``ab`` included), ``--k`` lists with a few huge
values, ``--max`` up to 5, builtin DFAs and malformed JSON files, output
paths that can and cannot be written, and some noise; a valid value is
drawn nine times in ten.  Whatever the input, the exit code must be 0, 1,
2 or 3 and no traceback may reach stderr.  The examples are derandomized,
so the run time (a few seconds) stays the same from run to run.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from regdensity.cli import main

HUGE = ("99999999999", "9" * 40)

ORACLES = (
    "dyck", "counteq:a,b", "pal", "o3", "o4", "goldstine", "kemp", "majority:1",
    "majority:3", "primitive", "diagonal", "coprefix:a=ab,b=a",
)
BAD_ORACLES = ("counteq:a,a", "counteq:ab", "majority:0", "majority:x", "nonsense", "")
FAMILIES = ("modk", "pal", "goldstine", "o3", "o4")
EXTENSIONS = ("suffix-ext", "prefix-ext", "infix-ext")
CHECK_FILTERS = ("textbook", "modk", "palindrome", "goldstine", "suffix", "prim", "diagonal")

# malformed (and a few valid) DFA documents, by file name
DFA_FILES = {
    "good.json": json.dumps(
        {"alphabet": ["a", "b"], "states": 2, "initial": 0, "accepting": [1],
         "delta": [[1, 0], [1, 1]]}
    ),
    "not-json.json": "{alphabet: [a, b]",
    "empty.json": "",
    "list.json": "[1, 2, 3]",
    "deep.json": "[" * 100_000 + "]" * 100_000,
    "missing.json": json.dumps({"alphabet": ["a"], "states": 1}),
    "bool-states.json": json.dumps(
        {"alphabet": ["a"], "states": True, "initial": 0, "accepting": [], "delta": [[0]]}
    ),
    "no-states.json": json.dumps(
        {"alphabet": ["a"], "states": 0, "initial": 0, "accepting": [], "delta": []}
    ),
    "out-of-range.json": json.dumps(
        {"alphabet": ["a", "b"], "states": 1, "initial": 0, "accepting": [3],
         "delta": [[0, 5]]}
    ),
    "short-row.json": json.dumps(
        {"alphabet": ["a", "b"], "states": 1, "initial": 0, "accepting": [], "delta": [[0]]}
    ),
    "bad-alphabet.json": json.dumps(
        {"alphabet": ["ab", "a"], "states": 1, "initial": 0, "accepting": [],
         "delta": [[0, 0]]}
    ),
    "huge-states.json": json.dumps(
        {"alphabet": ["a"], "states": 10 ** 50, "initial": 0, "accepting": [],
         "delta": [[0]]}
    ),
    "string-target.json": json.dumps(
        {"alphabet": ["a"], "states": 1, "initial": "0", "accepting": [], "delta": [["0"]]}
    ),
}


@pytest.fixture(scope="module")
def dfa_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("dfas")
    for name, text in DFA_FILES.items():
        (directory / name).write_text(text, encoding="utf-8")
    (directory / "latin1.json").write_bytes(b'{"alphabet": ["\xe9"]}')
    return directory


# True about one time in ten (hypothesis favours the bounds of a range,
# so the rare value sits inside it)
rarely = st.integers(0, 9).map(lambda i: i == 7)


def mostly(valid, invalid):
    """Values of ``valid`` nine times in ten, else of ``invalid``."""
    return rarely.flatmap(lambda rare: invalid if rare else valid)


@st.composite
def coprefix_specs(draw):
    """A random morphism over ab, seeded at its first rule's letter, whose
    image mostly starts with the seed."""
    seed, other = draw(st.permutations("ab"))
    head = draw(mostly(st.just(seed), st.text("ab", max_size=1)))
    images = {
        seed: head + draw(st.text("ab", max_size=2)),
        other: draw(st.text("ab", max_size=3)),
    }
    return "coprefix:" + ",".join("%s=%s" % rule for rule in images.items())


def extension_of(inner, kinds=EXTENSIONS):
    letter = mostly(st.sampled_from(("c", "d")), st.sampled_from(("a", "cd", "")))
    return st.builds(
        lambda kind, base, ch: "%s:%s:%s" % (kind, base, ch),
        mostly(st.sampled_from(kinds), st.sampled_from(EXTENSIONS)), inner, letter,
    )


# the command line names suffix extensions only as oracles, and every
# extension as a family
oracle_specs = st.recursive(
    mostly(st.one_of(st.sampled_from(ORACLES), coprefix_specs()), st.sampled_from(BAD_ORACLES)),
    lambda inner: extension_of(inner, ("suffix-ext",)),
    max_leaves=3,
)
family_specs = st.one_of(
    mostly(st.sampled_from(FAMILIES), st.sampled_from(("o5", ""))), extension_of(oracle_specs)
)
k_values = mostly(
    st.integers(1, 12).map(str), st.sampled_from(HUGE + ("0", "-1", "-99999999999", "x"))
)
k_lists = mostly(st.lists(k_values, min_size=1, max_size=3), st.just([])).map(",".join)
max_values = mostly(st.integers(0, 5), st.just(-1)).map(str)
dfa_sources = st.one_of(
    st.sampled_from(("evens", "starts:a", "starts:b", "starts:c", "modk:", "modk:x")),
    mostly(st.integers(1, 12), st.sampled_from((0, -1, 99999999999, 10 ** 40))).map(
        "modk:{}".format
    ),
    st.sampled_from(sorted(DFA_FILES) + ["latin1.json", "absent.json"]).map("@{}".format),
)
SUBCOMMANDS = {
    # subcommand: (its own arguments, examples drawn)
    "density": (st.tuples(st.just("--dfa"), dfa_sources), 60),
    "monoid": (st.tuples(st.just("--dfa"), dfa_sources), 60),
    "census": (st.tuples(st.just("--oracle"), oracle_specs, st.just("--max"), max_values), 100),
    "gap": (
        st.tuples(
            st.just("--family"), family_specs, st.just("--k"), k_lists,
            st.just("--max"), max_values,
        ),
        120,
    ),
    "check": (
        st.tuples(st.just("--only"), mostly(st.sampled_from(CHECK_FILTERS), st.just("nothing"))),
        20,
    ),
}


@st.composite
def argvs(draw, command):
    argv = [command, *draw(SUBCOMMANDS[command][0])]
    if draw(st.booleans()):
        argv += ["--format", draw(mostly(st.sampled_from(("csv", "json")), st.just("xml")))]
    if draw(rarely):
        argv += ["--output", draw(st.sampled_from(("@out.txt", "@")))]
    if command in ("census", "gap", "monoid") and draw(rarely):
        argv += ["--budget", draw(mostly(st.sampled_from(("1", "50", "100000")), st.just("0")))]
    if draw(rarely) and draw(rarely):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(("--bogus", "-k", "x"))))
    return argv


def run(argv):
    """Exit code and stderr of one in-process run; any other exception
    propagates and fails the test with its traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing the argument vector
            code = exc.code
    return code, err.getvalue()


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_every_drawn_invocation_keeps_the_exit_code_contract(dfa_dir, command):
    @settings(
        max_examples=SUBCOMMANDS[command][1],
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(argvs(command))
    def check(argv):
        argv = [str(dfa_dir / a[1:]) if a.startswith("@") else a for a in argv]
        code, err = run(argv)
        assert code in (0, 1, 2, 3), (argv, code, err)
        assert "Traceback" not in err, (argv, err)

    check()
