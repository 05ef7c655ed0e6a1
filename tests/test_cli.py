"""End-to-end tests of the command-line interface."""

import dataclasses
import importlib
import json
import os
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from regdensity import (
    Alphabet,
    Dfa,
    approximations,
    density,
    mod_counter_dfa,
    random_dfa,
    ratio_and_cesaro,
)
from regdensity.cli import main
from reference_languages import dfa_to_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_density_builtin_evens(capsys):
    code, out, _ = run_cli(capsys, "density", "--dfa", "evens")
    assert code == 0
    assert out == "density=1/2 natural=BOT c=2 acc=[0:1,1:0]\n"


def test_density_builtin_starts(capsys):
    code, out, _ = run_cli(capsys, "density", "--dfa", "starts:a")
    assert code == 0
    assert out == "density=1/2 natural=1/2 c=1 acc=[0:1/2]\n"


def test_density_json_file_and_format(tmp_path, capsys):
    path = tmp_path / "empty.json"
    doc = {
        "alphabet": ["a", "b"],
        "states": 1,
        "initial": 0,
        "accepting": [],
        "delta": [[0, 0]],
    }
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "density", "--dfa", str(path))
    assert code == 0
    assert out == "density=0 natural=0 c=1 acc=[0:0]\n"
    code, out, _ = run_cli(capsys, "density", "--dfa", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["density"] == {"num": 0, "den": 1}
    assert payload["natural_density"] == {"num": 0, "den": 1}


def test_density_json_bot_encoding(capsys):
    code, out, _ = run_cli(capsys, "density", "--dfa", "evens", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["natural_density"] is None
    assert payload["modulus"] == 2


def test_malformed_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "density", "--dfa", str(path))
    assert code == 2
    assert "line 1" in err and "column" in err


@pytest.mark.parametrize("spec", ["modk:0", "modk:-2"])
def test_density_modk_below_one_is_usage_error(capsys, spec):
    code, out, err = run_cli(capsys, "density", "--dfa", spec)
    assert code == 2
    assert out == ""
    assert "at least 1" in err and "Traceback" not in err


EVENS_DOC = {
    "alphabet": ["a", "b"],
    "states": 2,
    "initial": 0,
    "accepting": [0],
    "delta": [[1, 1], [0, 0]],
}


@pytest.mark.parametrize(
    "document, message",
    [
        ([EVENS_DOC], "must be a JSON object"),
        (dict(EVENS_DOC, states="2"), "states must be an integer"),
        (dict(EVENS_DOC, states=True), "states must be an integer"),
    ],
    ids=["top-level-list", "states-string", "states-bool"],
)
def test_density_malformed_document_is_usage_error(tmp_path, capsys, document, message):
    path = tmp_path / "machine.json"
    path.write_text(json.dumps(document))
    code, out, err = run_cli(capsys, "density", "--dfa", str(path))
    assert code == 2
    assert out == ""
    assert message in err and "Traceback" not in err


def test_density_unreadable_file_is_usage_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "density", "--dfa", str(tmp_path))
    assert code == 2
    assert out == "" and "cannot read DFA file" in err
    path = tmp_path / "latin1.json"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run_cli(capsys, "density", "--dfa", str(path))
    assert code == 2
    assert out == "" and "cannot read DFA file" in err


def test_deeply_nested_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(capsys, "density", "--dfa", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "nested too deeply" in err


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_output_is_usage_error(tmp_path, capsys, where):
    target = tmp_path / "no" / "such" / "x" if where == "missing-directory" else tmp_path
    code, out, err = run_cli(capsys, "density", "--dfa", "evens", "--output", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write ") and "Traceback" not in err


def test_failed_run_keeps_previous_output(tmp_path, capsys):
    target = tmp_path / "out.txt"
    target.write_text("hello")
    code, out, err = run_cli(
        capsys, "census", "--oracle", "dyck", "--max", "40", "--output", str(target)
    )
    assert code == 3 and out == "" and err.startswith("resource budget exceeded")
    assert target.read_text() == "hello"


def test_bad_input_creates_no_output_file(tmp_path, capsys):
    target = tmp_path / "x"
    code, out, err = run_cli(capsys, "density", "--dfa", "nosuch", "--output", str(target))
    assert code == 2 and out == "" and err.startswith("error: ")
    assert not target.exists()


def test_density_work_budget_exit_code(tmp_path, capsys, monkeypatch):
    path = tmp_path / "random.json"
    path.write_text(json.dumps(dfa_to_json(random_dfa(random.Random(3), 12, Alphabet("ab")))))
    code, _, _ = run_cli(capsys, "density", "--dfa", str(path))
    assert code == 0
    monkeypatch.setattr(importlib.import_module("regdensity.density"), "_SOLVE_WORK_LIMIT", 0)
    code, out, err = run_cli(capsys, "density", "--dfa", str(path))
    assert code == 3
    assert out == ""
    assert "work bound" in err


def test_density_residue_work_budget_exit_code(tmp_path, capsys, monkeypatch):
    # a walks the transient 3-cycle 0 -> 1 -> 2 -> 0 and b leaves it for the
    # 2-cycle 3 <-> 4: residue block 2's 3-unknown solve is the costliest,
    # so just under its work the command exits 3 on it
    machine = Dfa(Alphabet("ab"), 5, [[1, 3], [2, 3], [0, 4], [4, 4], [3, 3]], 0, {0, 3})
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(dfa_to_json(machine)))
    density_module = importlib.import_module("regdensity.density")
    limit = 0
    while True:
        monkeypatch.setattr(density_module, "_SOLVE_WORK_LIMIT", limit)
        code, out, err = run_cli(capsys, "density", "--dfa", str(path))
        if code == 0:
            break
        assert code == 3 and out == "" and "work bound" in err
        limit += 1
    assert "c=2" in out
    monkeypatch.setattr(density_module, "_SOLVE_WORK_LIMIT", limit - 1)
    code, out, err = run_cli(capsys, "density", "--dfa", str(path))
    assert code == 3 and out == ""
    assert "3-unknown system exceeds the work bound" in err


def test_density_modulus_past_the_state_budget_exits_3_at_once(tmp_path, capsys):
    # state 0 reads letter i into a cycle of length 5, 7, 8, 9, 11 or 13 and
    # every letter advances each cycle: c = 360,360 residue limits are past
    # the state budget, so nothing is built
    lengths = (5, 7, 8, 9, 11, 13)
    starts = [1 + sum(lengths[:i]) for i in range(len(lengths))]
    delta = [starts]
    for start, length in zip(starts, lengths):
        delta += [[start + (j + 1) % length] * 6 for j in range(length)]
    path = tmp_path / "cycles.json"
    path.write_text(json.dumps(dfa_to_json(Dfa(Alphabet("abcdef"), 54, delta, 0, starts))))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "density", "--dfa", str(path))
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert "modulus 360360" in err and "200000-state budget" in err


@pytest.mark.parametrize(
    "n, c, length", [(600, 2, 200), (400, 6, 300), (100, 30, 400)], ids=["600+2", "400+6", "100+30"]
)
def test_density_transient_states_into_a_cycle_answer(tmp_path, capsys, n, c, length):
    # a random n-state transient component (a follows an n-cycle, b is a
    # random map except on n/10 states, where it exits to a c-cycle): the
    # (state, phase) product had n·c unknowns, and exited 3 on the work
    # bound at 400 + 6 and 100 + 30; the residue blocks have n·(c − 1)
    rng = random.Random(n)
    order = list(range(n))
    rng.shuffle(order)
    cycle = {q: order[(i + 1) % n] for i, q in enumerate(order)}
    exits = set(rng.sample(range(n), n // 10))
    delta = [[cycle[q], n + rng.randrange(c) if q in exits else rng.randrange(n)] for q in range(n)]
    delta += [[n + (i + 1) % c] * 2 for i in range(c)]
    accepting = {q for q in range(n) if rng.random() < 0.5} | {n}
    machine = Dfa(Alphabet("ab"), n + c, delta, 0, accepting)
    path = tmp_path / "transient.json"
    path.write_text(json.dumps(dfa_to_json(machine)))
    code, out, _ = run_cli(capsys, "density", "--dfa", str(path), "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["modulus"] == c and report["natural_density"] is None
    limits = [Fraction(v["num"], v["den"]) for v in report["accumulation_points"]]
    # once in the c-cycle a word's acceptance is fixed by its length mod c,
    # so a ratio is off its residue limit by at most the share of words
    # still in the transient states
    inside = Dfa(Alphabet("ab"), n + c, delta, 0, set(range(n)))
    ratios, _ = ratio_and_cesaro(machine.count_words(length + c))
    transient, _ = ratio_and_cesaro(inside.count_words(length + c))
    for k in range(length, length + c):
        assert abs(ratios[k] - limits[k % c]) <= transient[k]
    assert transient[length] < Fraction(1, 10 ** 4)


@pytest.mark.parametrize(
    "machine, expected",
    [
        # a swaps the transient pair 0 <-> 1; b leaves 0 for the 3-cycle
        # 2 -> 3 -> 4 at 2 and leaves 1 for it one phase on, at 3
        (
            Dfa(Alphabet("ab"), 5, [[1, 2], [0, 3], [3, 3], [4, 4], [2, 2]], 0, {0, 2}),
            "density=1/3 natural=BOT c=3 acc=[0:4/21,1:16/21,2:1/21]\n",
        ),
        # a walks the transient triangle 0 -> 1 -> 2 -> 0; b and c leave it
        # for the 4-cycle 3 -> 4 -> 5 -> 6 at three of its four phases
        (
            Dfa(
                Alphabet("abc"),
                7,
                [[1, 3, 1], [2, 5, 2], [0, 0, 6], [4, 4, 4], [5, 5, 5], [6, 6, 6], [3, 3, 3]],
                0,
                {1, 3, 4},
            ),
            "density=1/2 natural=BOT c=4 acc=[0:486/793,1:649/793,2:307/793,3:144/793]\n",
        ),
    ],
    ids=["c3", "c4"],
)
def test_density_transient_component_into_a_long_cycle(tmp_path, capsys, machine, expected):
    # exits at different phases make every residue limit depend on the
    # direction a letter moves the phase, which c = 2 cannot tell apart
    path = tmp_path / "periodic.json"
    path.write_text(json.dumps(dfa_to_json(machine)))
    code, out, _ = run_cli(capsys, "density", "--dfa", str(path))
    assert code == 0
    assert out == expected


def test_census_csv(capsys):
    code, out, _ = run_cli(capsys, "census", "--oracle", "dyck", "--max", "6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,count,ratio,cesaro"
    assert lines[1] == "0,1,1,"
    assert lines[7] == "6,5,5/64,11/48"


def test_census_more_oracles(capsys):
    code, out, _ = run_cli(capsys, "census", "--oracle", "primitive", "--max", "4")
    assert code == 0
    assert out.splitlines()[5].startswith("4,12,3/4,")
    code, out, _ = run_cli(capsys, "census", "--oracle", "majority:1", "--max", "3")
    assert code == 0
    assert out.splitlines()[4].startswith("3,4,1/2,")
    code, out, _ = run_cli(
        capsys, "census", "--oracle", "coprefix:a=ab,b=a", "--max", "4"
    )
    assert code == 0
    # complement of the morphic-prefix set: counts 2^n minus one per length
    assert [line.split(",")[1] for line in out.splitlines()[1:]] == [
        "0", "1", "3", "7", "15",
    ]
    code, out, _ = run_cli(
        capsys, "census", "--oracle", "suffix-ext:dyck:c", "--max", "3"
    )
    assert code == 0
    assert [line.split(",")[1] for line in out.splitlines()[1:]] == ["0", "1", "3", "10"]


def test_census_budget_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "census", "--oracle", "dyck", "--max", "20", "--budget", "1000"
    )
    assert code == 3
    assert "budget" in err


def test_unknown_oracle_usage_error(capsys):
    code, _, err = run_cli(capsys, "census", "--oracle", "nope", "--max", "3")
    assert code == 2
    assert "unknown oracle" in err


def test_gap_goldstine(capsys):
    code, out, _ = run_cli(
        capsys, "gap", "--family", "goldstine", "--k", "2,4", "--max", "12"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,inner,outer,gap,containment"
    assert lines[1] == "2,3/8,1/2,1/8,ok"
    assert lines[2] == "4,15/32,1/2,1/32,ok"


def test_gap_modk_and_pal(capsys):
    code, out, _ = run_cli(capsys, "gap", "--family", "modk", "--k", "3,5", "--max", "12")
    assert code == 0
    assert out.splitlines()[1:] == ["3,0,1/3,1/3,ok", "5,0,1/5,1/5,ok"]
    code, out, _ = run_cli(capsys, "gap", "--family", "pal", "--k", "1,2", "--max", "10")
    assert code == 0
    assert out.splitlines()[1] == "1,1/2,1,1/2,ok"
    assert out.splitlines()[2] == "2,3/4,1,1/4,ok"


def test_gap_json_and_bad_k(capsys):
    code, out, _ = run_cli(
        capsys,
        "gap", "--family", "goldstine", "--k", "2", "--max", "8", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][0]["gap"] == {"num": 1, "den": 8}
    code, _, err = run_cli(capsys, "gap", "--family", "goldstine", "--k", "x", "--max", "8")
    assert code == 2
    code, _, err = run_cli(capsys, "gap", "--family", "bogus", "--k", "2", "--max", "8")
    assert code == 2


def test_gap_containment_failure_exits_1(capsys, monkeypatch):
    # an inner side that accepts every word and an outer side that accepts
    # none: the empty word is no goldstine member, and b is the least one
    everything = Dfa(Alphabet("ab"), 1, [[0, 0]], 0, {0})
    broken = dataclasses.replace(
        approximations.family("goldstine"),
        inner=lambda k: everything,
        outer=lambda k: everything.complement(),
    )
    cli = importlib.import_module("regdensity.cli")
    monkeypatch.setattr(cli, "load_family", lambda spec: broken)
    argv = ["gap", "--family", "goldstine", "--k", "2", "--max", "6"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    assert out.splitlines() == ["k,inner,outer,gap,containment", "2,1,0,-1,inner:;outer:b"]
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 1
    (row,) = json.loads(out)["rows"]
    assert row["containment"] == "inner:;outer:b"


@pytest.mark.parametrize("ks", ["2,,4", "3,", ",", ""])
def test_gap_rejects_an_empty_k_element(capsys, ks):
    code, out, err = run_cli(capsys, "gap", "--family", "modk", "--k", ks, "--max", "4")
    assert code == 2 and out == ""
    assert "--k needs a comma-separated integer list" in err


# int() alone takes each of these: digit separators, surrounding spaces, a
# plus sign and non-ASCII digits (ARABIC-INDIC DIGIT THREE)
LOOSE_INTEGERS = ["1_0", " 3", "+3", "٣"]


@pytest.mark.parametrize("text", LOOSE_INTEGERS)
@pytest.mark.parametrize(
    "template, message",
    [
        (["gap", "--family", "modk", "--k", "{}", "--max", "3"],
         "--k needs a comma-separated integer list"),
        (["gap", "--family", "modk", "--k", "2,{}", "--max", "3"],
         "--k needs a comma-separated integer list"),
        (["density", "--dfa", "modk:{}"], "modk builtin needs an integer"),
        (["census", "--oracle", "majority:{}", "--max", "3"], "invalid literal for int()"),
    ],
    ids=lambda value: value[0] if isinstance(value, list) else None,
)
def test_loose_integer_spellings_are_usage_errors(capsys, template, message, text):
    code, out, err = run_cli(capsys, *[part.format(text) for part in template])
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("text", LOOSE_INTEGERS)
@pytest.mark.parametrize(
    "template",
    [
        ["census", "--oracle", "dyck", "--max", "{}"],
        ["monoid", "--dfa", "modk:3", "--budget", "{}"],
    ],
    ids=["max", "budget"],
)
def test_loose_integer_options_are_refused_by_the_parser(capsys, template, text):
    with pytest.raises(SystemExit) as exit_info:
        main([part.format(text) for part in template])
    captured = capsys.readouterr()
    assert exit_info.value.code == 2 and captured.out == ""
    assert "invalid int value" in captured.err


def test_gap_extension_families(capsys):
    code, out, _ = run_cli(
        capsys, "gap", "--family", "infix-ext:dyck:c", "--k", "1", "--max", "6"
    )
    assert code == 0
    assert out.splitlines()[1] == "1,1,1,0,ok"
    code, out, _ = run_cli(
        capsys, "gap", "--family", "suffix-ext:dyck:c", "--k", "2,3", "--max", "6"
    )
    assert code == 0
    rows = out.splitlines()[1:]
    assert rows[0].startswith("2,") and rows[1].startswith("3,")
    assert all(row.endswith(",ok") for row in rows)


def test_monoid_report(capsys):
    code, out, _ = run_cli(capsys, "monoid", "--dfa", "modk:3")
    assert code == 0
    assert out == (
        "|M|=3\ngreen: J=1 R=1 L=1 H=1\nS=[1,2]\nJ-minimal-S=[1,2]\nwitness=(a,3)\n"
    )


def test_monoid_null_language(tmp_path, capsys):
    a_star = {
        "alphabet": ["a", "b"],
        "states": 2,
        "initial": 0,
        "accepting": [0],
        "delta": [[0, 1], [1, 1]],
    }
    path = tmp_path / "astar.json"
    path.write_text(json.dumps(a_star))
    code, out, _ = run_cli(capsys, "monoid", "--dfa", str(path))
    assert code == 0
    assert "status=NULL-LANGUAGE" in out
    assert "witness" not in out


def test_monoid_status_is_null_exactly_when_the_minimal_ideal_misses_the_accept_set(
    tmp_path, capsys, monkeypatch
):
    # the report reads nullness off its own minimal ideal and asks the
    # density engine nothing; the engine agrees with it afterwards
    rng = random.Random(28)
    machines = [
        random_dfa(rng, rng.randint(1, 5), Alphabet(rng.choice(["a", "ab", "abc"])))
        for _ in range(40)
    ]
    payloads = []
    with monkeypatch.context() as patch:
        patch.setattr(importlib.import_module("regdensity.density"), "_analyse", None)
        for i, machine in enumerate(machines):
            path = tmp_path / ("machine%d.json" % i)
            path.write_text(json.dumps(dfa_to_json(machine)))
            code, out, _ = run_cli(capsys, "monoid", "--dfa", str(path), "--format", "json")
            assert code == 0
            payloads.append(json.loads(out))
    nulls = 0
    for machine, payload in zip(machines, payloads):
        null = payload["status"] == "NULL-LANGUAGE"
        assert null == (payload["j_minimal_accept"] == []) == (density(machine) == 0)
        assert null == (payload["witness"] is None)
        nulls += null
    assert 0 < nulls < len(machines)


def test_monoid_single_state(capsys):
    code, out, _ = run_cli(capsys, "monoid", "--dfa", "starts:a", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["elements"] == 3
    assert payload["status"] == "ok"


BIG_MONOID_DOC = {
    "alphabet": ["a", "b"],
    "states": 7,
    "initial": 0,
    "accepting": [0, 3, 4, 5, 6],
    "delta": [[2, 2], [5, 6], [6, 5], [4, 4], [4, 1], [3, 4], [0, 0]],
}


def test_monoid_budget_covers_the_whole_job(tmp_path, capsys):
    # 80,781 elements: over the default budget, within an explicit one
    path = tmp_path / "big.json"
    path.write_text(json.dumps(BIG_MONOID_DOC))
    code, out, err = run_cli(capsys, "monoid", "--dfa", str(path), "--budget", "120000")
    assert code == 0, err
    assert out.startswith("|M|=80781\n")
    assert "witness=(" in out
    code, out, err = run_cli(capsys, "monoid", "--dfa", str(path))
    assert code == 3 and out == ""
    assert "exceeds 50000 elements" in err


@pytest.mark.parametrize(
    "argv", [["census", "--oracle", "dyck", "--max", "16"], ["monoid", "--dfa", "modk:300"]]
)
def test_closed_stdout_exits_1_without_traceback(argv):
    # a reader that has gone, as after `| head -1`: the pipe's read end is
    # closed before the program writes
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "regdensity.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True,
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in done.stderr
    assert done.returncode == 1


def test_monoid_job_builds_one_monoid(monkeypatch, capsys):
    import regdensity.cli
    import regdensity.monoid

    calls = {"transition_monoid": 0, "green_classes": 0}
    for name in calls:
        original = getattr(regdensity.monoid, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(regdensity.monoid, name, counted)
        monkeypatch.setattr(regdensity.cli, name, counted)
    code, out, _ = run_cli(capsys, "monoid", "--dfa", "starts:a")
    assert code == 0 and "witness=(" in out
    assert calls == {"transition_monoid": 1, "green_classes": 1}


@pytest.mark.parametrize("budget", ["0", "-5"])
@pytest.mark.parametrize(
    "argv",
    [
        ["census", "--oracle", "dyck", "--max", "3"],
        ["gap", "--family", "modk", "--k", "3", "--max", "4"],
        ["monoid", "--dfa", "modk:3"],
    ],
    ids=lambda argv: argv[0],
)
def test_budget_below_one_is_usage_error(capsys, argv, budget):
    code, out, err = run_cli(capsys, *argv, "--budget", budget)
    assert code == 2
    assert out == ""
    assert "--budget" in err and "Traceback" not in err


@pytest.mark.parametrize("budget", ["1", "0", "-5"])
@pytest.mark.parametrize(
    "argv",
    [["density", "--dfa", "evens"], ["check", "--only", "textbook"]],
    ids=lambda argv: argv[0],
)
def test_budget_is_refused_where_nothing_reads_it(capsys, argv, budget):
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--budget", budget])
    captured = capsys.readouterr()
    assert exit_info.value.code == 2
    assert captured.out == ""
    assert "--budget" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("family", ["o3", "o4"])
def test_gap_counter_product_over_the_state_budget_exits_3(capsys, monkeypatch, family):
    # k² residue pairs are refused before any machine is built
    built = []
    monkeypatch.setattr(
        approximations, "build_dfa", lambda *args, **kw: built.append(args)
    )
    code, out, err = run_cli(capsys, "gap", "--family", family, "--k", "600", "--max", "2")
    assert code == 3
    assert out == "" and built == []
    assert "360000" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["gap", "--family", "modk", "--k", "99999999999", "--max", "2"],
        ["gap", "--family", "goldstine", "--k", "99999999999", "--max", "2"],
        ["gap", "--family", "goldstine", "--k", "999999", "--max", "2"],
        ["gap", "--family", "pal", "--k", "99999999999", "--max", "2"],
        ["gap", "--family", "pal", "--k", "100000000", "--max", "1"],
        ["density", "--dfa", "modk:1000000"],
        ["census", "--oracle", "dyck", "--max", "9" * 5000],
    ],
    ids=lambda argv: " ".join(argv)[:48],
)
def test_over_budget_parameters_exit_3_at_once(capsys, argv):
    # every automaton is explored under one state budget, and the window
    # and enumeration gates never compute the power they bound
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 10
    assert code == 3 and out == ""
    assert "resource budget exceeded" in err and "Traceback" not in err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_exact_values_of_any_length_print(capsys, fmt):
    # the inner density 1/2 - 1/2^14301 has over 4300 digits on each side
    code, out, err = run_cli(
        capsys, "gap", "--family", "goldstine", "--k", "14300", "--max", "1", "--format", fmt
    )
    assert code == 0 and err == ""
    if fmt == "json":
        inner = json.loads(out)["rows"][0]["inner"]
        inner = Fraction(inner["num"], inner["den"])
    else:
        inner = Fraction(out.splitlines()[1].split(",")[1])
    assert inner == Fraction(1, 2) - Fraction(1, 2 ** 14301)


@pytest.mark.parametrize(
    "argv",
    [
        ["census", "--oracle", "coprefix:a=ab,b=", "--max", "4"],
        ["gap", "--family", "suffix-ext:coprefix:a=ab,b=:c", "--k", "2", "--max", "4"],
    ],
    ids=["census", "gap"],
)
def test_finite_coprefix_fixed_point_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "finite" in err and "Traceback" not in err


@pytest.mark.parametrize("family", ["modk", "o3", "o4", "pal", "goldstine"])
def test_gap_k_zero_is_usage_error(capsys, family):
    code, out, err = run_cli(capsys, "gap", "--family", family, "--k", "0", "--max", "4")
    assert code == 2
    assert out == ""
    assert "--k 0" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["census", "--oracle", "dyck", "--max", "-1"],
        ["gap", "--family", "modk", "--k", "3", "--max", "-1"],
    ],
    ids=lambda argv: argv[0],
)
def test_negative_max_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "--max" in err


def test_gap_extension_family_at_k_zero(capsys):
    for family in ("suffix-ext:dyck:c", "prefix-ext:dyck:c"):
        code, out, _ = run_cli(capsys, "gap", "--family", family, "--k", "0", "--max", "6")
        assert code == 0
        assert out.splitlines()[1] == "0,0,1,1,ok"


@pytest.mark.parametrize(
    "family, k",
    [("suffix-ext:dyck:c", "-1"), ("prefix-ext:dyck:c", "-3"), ("infix-ext:dyck:c", "-7")],
)
def test_gap_extension_family_negative_k_is_usage_error(capsys, family, k):
    code, out, err = run_cli(capsys, "gap", "--family", family, "--k=" + k, "--max", "4")
    assert code == 2
    assert out == ""
    assert "--k %s" % k in err and "Traceback" not in err


def test_check_only_subsets(capsys):
    code, out, _ = run_cli(capsys, "check", "--only", "prim")
    assert code == 0
    assert out.startswith("PASS primitive-words")
    code, out, _ = run_cli(capsys, "check", "--only", "diagonal")
    assert code == 0
    code, _, err = run_cli(capsys, "check", "--only", "bogus-tag")
    assert code == 2


def test_check_json_reports_known_failures(capsys):
    code, out, _ = run_cli(capsys, "check", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    failing = {c["criterion"] for c in payload["criteria"] if not c["passed"]}
    assert failing == {"o3o4-families", "majority"}
    failing_items = {
        item["label"]
        for c in payload["criteria"]
        for item in c["items"]
        if not item["passed"]
    }
    assert failing_items == {"o3-null-spotcheck-n18", "majority2-ratio-24"}


def test_output_deterministic_and_file_writing(tmp_path, capsys):
    code1, out1, _ = run_cli(capsys, "census", "--oracle", "o3", "--max", "5")
    code2, out2, _ = run_cli(capsys, "census", "--oracle", "o3", "--max", "5")
    assert code1 == code2 == 0 and out1 == out2
    target = tmp_path / "census.csv"
    code, out, _ = run_cli(
        capsys, "census", "--oracle", "o3", "--max", "5", "--output", str(target)
    )
    assert code == 0 and out == ""
    assert target.read_text() == out1


def test_builtin_modk_matches_library(capsys):
    code, out, _ = run_cli(capsys, "density", "--dfa", "modk:5")
    assert code == 0
    assert out.startswith("density=4/5 ")
    doc = dfa_to_json(mod_counter_dfa(5))
    assert doc["states"] == 5


def test_counteq_oracle_spec(capsys):
    code, out, _ = run_cli(capsys, "census", "--oracle", "counteq:a,b", "--max", "4")
    assert code == 0
    assert [line.split(",")[1] for line in out.splitlines()[1:]] == [
        "1", "0", "2", "0", "6",
    ]


@pytest.mark.parametrize(
    "argv, message",
    [
        ("census --oracle suffix-ext:dyck", "suffix-ext needs suffix-ext:<base>:<letter>"),
        ("census --oracle prefix-ext:dyck:c", "unknown oracle 'prefix-ext:dyck:c'"),
        ("census --oracle suffix-ext", "unknown oracle 'suffix-ext'"),
        ("gap --k 1 --family suffix-ext::c", "suffix-ext needs suffix-ext:<base>:<letter>"),
        ("gap --k 1 --family prefix-ext:dyck:cc", "prefix-ext needs prefix-ext:<base>:<letter>"),
        ("gap --k 1 --family infix-ext:dyck", "infix-ext needs infix-ext:<base>:<letter>"),
        ("gap --k 1 --family infix-ext:nope:c", "unknown oracle 'nope'"),
        ("gap --k 1 --family suffix-ext", "unknown approximation family 'suffix-ext'"),
        ("census --oracle coprefix:ab", "morphism rule 'ab' must look like letter=image"),
        ("census --oracle coprefix:ab=a", "morphism maps single letters, got 'ab'"),
        ("census --oracle counteq:a", "counteq needs two letters, e.g. counteq:a,b"),
        ("census --oracle counteq:a,b,c", "counteq needs two letters, e.g. counteq:a,b"),
    ],
)
def test_extension_spec_errors(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv.split(), "--max", "2")
    assert (code, out, err) == (2, "", "error: %s\n" % message)
