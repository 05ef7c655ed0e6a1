"""The four workloads: their job lists and the check behind every job.

A job is one CLI subcommand run in-process through ``regdensity.cli.main``
or, for the two library-only operations, one public library call.  Each job
returns ``(exit code, text)``; ``check`` returns None when the text is a
correct answer and otherwise says what is wrong.  Jobs look the program's
functions up at call time, so the traced run's wrappers see every call.
"""

import contextlib
import io
import json
import os
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import gen


@dataclass
class Job:
    id: str
    kind: str
    run: Callable[[], tuple]
    check: Callable[[str], Optional[str]]
    expected_code: int = 0


def cli_job(rd, job_id, argv, check, expected_code=0):
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = rd.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()

    return Job(job_id, argv[0], run, check, expected_code)


def _frac(text):
    return None if text == "BOT" else Fraction(text)


# -- density-engine -----------------------------------------------------------

# Sizes are grouped so that each order statistic falls in the middle of a
# group of like jobs, whatever the seed: job_s.p50 among the five count_words
# jobs (six smaller density jobs below them, six larger above) and
# job_s.tail (3.4 jobs beyond it) among the six large dense solves.
RECURRENT_SIZES = (24, 48, 96)
PERIODIC_SHAPES = ((48, 2), (64, 3), (80, 4))
LARGE_SIZE, LARGE_COPIES = 160, 6  # recurrent machines for the dense solves
COUNT_WORDS = (5, 200)  # count_words on the first five large machines, up to length 200

_DENSITY_LINE = re.compile(r"density=(\S+) natural=(\S+) c=(\d+) acc=\[(.*)\]\n")


def check_density(text, modulus, density=None):
    """Residue limits must average to the density and agree exactly when
    the natural density exists; modulus (and density, where a closed form
    is known) must match the reference."""
    match = _DENSITY_LINE.fullmatch(text)
    if not match:
        return "unparsable density report %r" % text[:80]
    dens, natural, c = _frac(match[1]), _frac(match[2]), int(match[3])
    acc = []
    for d, cell in enumerate(match[4].split(",")):
        index, _, value = cell.partition(":")
        if int(index) != d:
            return "accumulation points out of order"
        acc.append(Fraction(value))
    if c != modulus or len(acc) != c:
        return "modulus %d, expected %d" % (c, modulus)
    if sum(acc) != c * dens:
        return "residue limits do not average to the density"
    if natural != (acc[0] if len(set(acc)) == 1 else None):
        return "natural density inconsistent with residue limits"
    if density is not None and dens != density:
        return "density %s, expected %s" % (dens, density)
    return None


def _density_job(rd, inputs_dir, name, doc, check):
    path = _write(inputs_dir, name, doc)
    return cli_job(rd, "density %s" % name, ["density", "--dfa", path], check)


def build_density_engine(rd, seed, inputs_dir):
    rng = random.Random(seed)
    jobs = []
    for n in RECURRENT_SIZES:
        doc = gen.recurrent_dfa(rng, n)
        jobs.append(_density_job(rd, inputs_dir, "recurrent-%03d" % n, doc,
                                 lambda text, p=gen.class_period(doc): check_density(text, p)))
    for n, c in PERIODIC_SHAPES:
        doc, accepting_on_cycle = gen.transient_periodic_dfa(rng, n, c)
        jobs.append(_density_job(rd, inputs_dir, "periodic-%03d-c%d" % (n, c), doc,
                                 lambda text, c=c, d=Fraction(accepting_on_cycle, c):
                                     check_density(text, c, d)))
    large = [gen.recurrent_dfa(rng, LARGE_SIZE) for _ in range(LARGE_COPIES)]
    for i, doc in enumerate(large):
        jobs.append(_density_job(rd, inputs_dir, "recurrent-%03d-%d" % (LARGE_SIZE, i), doc,
                                 lambda text, p=gen.class_period(doc): check_density(text, p)))
    copies, length = COUNT_WORDS
    for i, doc in enumerate(large[:copies]):
        machine = rd.automata.dfa_from_json(doc)

        def run(machine=machine):
            census = machine.count_words(length)
            return 0, ",".join(map(str, census.counts))

        reference = _lazy(lambda doc=doc: ",".join(map(str, gen.count_words(doc, length))))
        jobs.append(Job("count_words recurrent-%03d-%d L%d" % (LARGE_SIZE, i, length),
                        "count_words", run,
                        lambda text, ref=reference: None if text == ref() else "counts differ"))
    return jobs


# -- approx-gap ---------------------------------------------------------------

def _dyck_ext_claims(k):
    return gen.cylinder_mass(k, True), 1 - gen.cylinder_mass(k, False)


GAP_SWEEPS = (
    # family, ks, containment length, k -> (inner claim, outer claim)
    ("goldstine", (1, 2, 4, 6, 8, 10), 15,
     lambda k: (Fraction(1, 2) - Fraction(1, 2 ** (k + 1)), Fraction(1, 2))),
    ("pal", (2, 3, 4, 5, 6, 7), 12, lambda k: (1 - Fraction(1, 2 ** k), Fraction(1))),
    ("modk", (3, 5, 7, 9), 14, lambda k: (Fraction(0), Fraction(1, k))),
    ("o3", (3, 5, 9), 9, lambda k: (Fraction(0), Fraction(2 * k - 1, k * k))),
    ("suffix-ext:dyck:c", (2, 4, 6, 8), 9, _dyck_ext_claims),
    ("prefix-ext:dyck:c", (2, 4, 6, 8), 9, _dyck_ext_claims),
)
CENSUSES = (("dyck", 18, gen.dyck_count), ("primitive", 17, gen.primitive_count))


def check_gap(text, k, claims):
    lines = text.splitlines()
    if len(lines) != 2 or lines[0] != "k,inner,outer,gap,containment":
        return "unexpected gap report %r" % text[:80]
    cells = lines[1].split(",")
    if len(cells) != 5 or cells[0] != str(k):
        return "unexpected gap row %r" % lines[1]
    inner, outer, gap = (Fraction(v) for v in cells[1:4])
    if (inner, outer) != claims(k):
        return "densities %s, %s differ from the family's claims" % (inner, outer)
    if gap != outer - inner:
        return "gap is not outer - inner"
    if cells[4] != "ok":
        return "containment failed: %s" % cells[4]
    return None


def check_census(text, max_length, counter):
    lines = text.splitlines()
    if lines[:1] != ["n,count,ratio,cesaro"] or len(lines) != max_length + 2:
        return "unexpected census report %r" % text[:80]
    total = Fraction(0)
    for n, line in enumerate(lines[1:]):
        cells = line.split(",")
        ratio = Fraction(counter(n), 2 ** n)
        if cells[:3] != [str(n), str(counter(n)), str(ratio)]:
            return "row %d %r differs from the closed form" % (n, line)
        if cells[3] != ("" if n == 0 else str(total / n)):
            return "row %d has a wrong Cesaro mean" % n
        total += ratio
    return None


def build_approx_gap(rd, seed, inputs_dir):
    # the families are the paper's objects, so the inputs are fixed and the
    # seed is ignored
    jobs = []
    for family, ks, length, claims in GAP_SWEEPS:
        for k in ks:
            argv = ["gap", "--family", family, "--k", str(k), "--max", str(length)]
            jobs.append(cli_job(rd, "gap %s k%d max%d" % (family, k, length), argv,
                                lambda text, k=k, claims=claims: check_gap(text, k, claims)))
    for oracle, length, counter in CENSUSES:
        argv = ["census", "--oracle", oracle, "--max", str(length)]
        jobs.append(cli_job(rd, "census %s max%d" % (oracle, length), argv,
                            lambda text, m=length, c=counter: check_census(text, m, c)))
    return jobs


# -- monoid-witness -----------------------------------------------------------

# The copies put each order statistic in the middle of a group of like jobs,
# whatever the seed: job_s.p50 in the 2300-2700 group (13 jobs below it, 12
# above) and job_s.tail (3.6 jobs beyond it) in the 16000-20000 group.  Those
# two windows are narrow; the others are wide, to keep input generation short.
MONOID_GROUPS = (
    # state counts drawn from, candidates drawn, windows (low, high, jobs) with
    # high=None for over the budget; windows are numbered w0.. in this order
    ((5, 6), 150, ((100, 300, 4), (1000, 1500, 5))),
    ((6,), 500, ((2300, 2700, 5), (4000, 6000, 3), (16000, 20000, 5))),
    ((8,), 4, ((None, None, 4),)),
)
ESCAPE_WINDOWS = 4  # majority_escape_witness runs on the first machine of these


def check_monoid(text, doc, size):
    lines = text.splitlines()
    if len(lines) != 5 or not lines[0].startswith("|M|="):
        return "unexpected monoid report %r" % text[:80]
    if int(lines[0][4:]) != size:
        return "|M|=%s, expected %d" % (lines[0][4:], size)
    match = re.fullmatch(r"witness=\(([ab]+),(\d+)\)", lines[4])
    if not match:
        return "no witness in %r" % lines[4]
    word, n = match[1], int(match[2])
    for m in (1, 2, 3):
        power = word * (m * n + 1)
        if not gen.accepts(doc, power) or gen.is_primitive(power):
            return "witness power %d fails" % (m * n + 1)
    return None


def check_escape(text, doc):
    if not gen.accepts(doc, text):
        return "escape witness %r is rejected" % text
    if text.count("a") > text.count("b"):
        return "escape witness %r has an a-majority" % text
    return None


def build_monoid_witness(rd, seed, inputs_dir):
    rng = random.Random(seed)
    jobs = []
    escapes = []
    windows = [found for states, draws, group in MONOID_GROUPS
               for found in gen.monoid_dfas(rng, states, group, draws)]
    for w, machines in enumerate(windows):
        for i, (doc, size) in enumerate(machines):
            name = "perm-map-w%d-%d" % (w, i)
            path = _write(inputs_dir, name, doc)
            if size is None:
                check, code = (lambda text: None if text == "" else "output past budget"), 3
            else:
                check, code = (lambda text, d=doc, s=size: check_monoid(text, d, s)), 0
            jobs.append(cli_job(rd, "monoid %s" % name, ["monoid", "--dfa", path], check, code))
            if i == 0 and w < ESCAPE_WINDOWS:
                escapes.append((name, doc))
    for name, doc in escapes:
        machine = rd.automata.dfa_from_json(doc)

        def run(machine=machine):
            return 0, rd.approximations.majority_escape_witness(machine, 1)

        jobs.append(Job("majority_escape_witness %s" % name, "majority_escape_witness", run,
                        lambda text, d=doc: check_escape(text, d)))
    return jobs


# -- check-suite --------------------------------------------------------------

CRITERIA = (
    "textbook-densities", "modk-family", "dyck-census", "palindrome-family",
    "goldstine-family", "o3o4-families", "suffix-extension", "majority",
    "primitive-words", "density-algebra", "diagonal-language",
)
# the two knowingly-red spot checks, kept faithful and never loosened
KNOWN_RED = {"o3o4-families": {"o3-null-spotcheck-n18"}, "majority": {"majority2-ratio-24"}}


def check_criterion(text, name):
    try:
        report = json.loads(text)
        (criterion,) = report["criteria"]
        failing = {i["label"] for i in criterion["items"] if not i["passed"]}
    except (ValueError, KeyError, TypeError):
        return "unparsable check report %r" % text[:80]
    if criterion["criterion"] != name:
        return "ran %r instead" % criterion["criterion"]
    expected = KNOWN_RED.get(name, set())
    if failing != expected:
        return "failing items %s, expected %s" % (sorted(failing), sorted(expected))
    return None


def build_check_suite(rd, seed, inputs_dir):
    # the suite's own random inputs use fixed seeds, so the seed is ignored
    return [
        cli_job(rd, "check %s" % name, ["check", "--only", name, "--format", "json"],
                lambda text, n=name: check_criterion(text, n),
                1 if name in KNOWN_RED else 0)
        for name in CRITERIA
    ]


# name -> (function making the job list, whether the inputs depend on the seed)
WORKLOADS = {
    "density-engine": (build_density_engine, True),
    "approx-gap": (build_approx_gap, False),
    "monoid-witness": (build_monoid_witness, True),
    "check-suite": (build_check_suite, False),
}


# -- helpers ------------------------------------------------------------------

def _write(directory, name, doc):
    path = os.path.join(directory, name + ".json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return path


def _lazy(compute):
    memo = []

    def value():
        if not memo:
            memo.append(compute())
        return memo[0]

    return value
