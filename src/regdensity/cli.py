"""Command-line surface: exact density reports, censuses, approximation gap
sweeps, monoid reports, and the verification suite.

Exit codes: 0 success, 1 check/containment failure, 2 usage error,
3 resource budget exceeded.  All fractions are printed as p/q (integers
plain); output is byte-deterministic for a fixed invocation.
"""

import argparse
import dataclasses
import io
import json
import os
import sys
from functools import cache

from . import approximations, languages
from .automata import dfa_from_json, even_length_dfa, mod_counter_dfa, starts_with_dfa
from .checks import run_criteria
from .core import (
    Alphabet,
    BudgetExceededError,
    census_by_enumeration,
    format_fraction,
    ratio_and_cesaro,
)
from .density import density, natural_density
from .languages import Morphism
from .monoid import DEFAULT_MONOID_BUDGET, green_classes, transition_monoid, witness_in_monoid


class UsageError(ValueError):
    pass


def fraction_json(value):
    if value is None:
        return None
    return {"num": value.numerator, "den": value.denominator}


# -- input resolution ----------------------------------------------------------

def load_dfa(source):
    """A DFA from a JSON file path or a builtin constructor expression.

    Builtins: ``evens`` (even-length words over ab), ``modk:<k>`` (mod-k
    letter-count counter over ab), ``starts:<letter>`` (words starting with
    the letter, over ab).
    """
    if os.path.exists(source):
        try:
            with open(source, "r", encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError("cannot read DFA file %s: %s" % (source, exc)) from None
        try:
            return dfa_from_json(json.loads(text))
        except json.JSONDecodeError as exc:
            raise UsageError(
                "malformed DFA JSON in %s: %s (line %d column %d)"
                % (source, exc.msg, exc.lineno, exc.colno)
            ) from None
        except RecursionError:
            raise UsageError("DFA JSON in %s is nested too deeply" % source) from None
        except ValueError as exc:
            raise UsageError("invalid DFA document in %s: %s" % (source, exc)) from None
    ab = Alphabet("ab")
    if source == "evens":
        return even_length_dfa(ab)
    if source.startswith("modk:"):
        try:
            k = int(source.split(":", 1)[1])
        except ValueError:
            raise UsageError("modk builtin needs an integer, got %r" % source) from None
        try:
            return mod_counter_dfa(k)
        except ValueError as exc:
            raise UsageError("modk builtin %r: %s" % (source, exc)) from None
    if source.startswith("starts:"):
        letter = source.split(":", 1)[1]
        if letter not in ("a", "b"):
            raise UsageError("starts builtin needs letter a or b, got %r" % source)
        return starts_with_dfa(letter, ab)
    raise UsageError("no such file or builtin DFA: %r" % source)


def _parse_morphism(text):
    rules = {}
    order = []
    for part in text.split(","):
        if "=" not in part:
            raise UsageError("morphism rule %r must look like letter=image" % part)
        letter, image = part.split("=", 1)
        if len(letter) != 1:
            raise UsageError("morphism maps single letters, got %r" % letter)
        rules[letter] = image
        order.append(letter)
    alphabet = Alphabet(order)
    return Morphism(alphabet, rules), order[0]


def load_oracle(spec):
    """A language oracle from its command-line name.

    Names: dyck, counteq:a,b, pal, o3, o4, goldstine, kemp, majority:m,
    primitive, coprefix:<letter=image,...> (seed = first rule's letter),
    suffix-ext:<base>:<letter>, diagonal.
    """
    try:
        if spec == "dyck":
            return languages.semi_dyck()
        if spec == "pal":
            return languages.palindromes()
        if spec == "o3":
            return languages.o3()
        if spec == "o4":
            return languages.o4()
        if spec == "goldstine":
            return languages.goldstine()
        if spec == "kemp":
            return languages.kemp()
        if spec == "primitive":
            return languages.primitive()
        if spec == "diagonal":
            return languages.diagonal()
        if spec.startswith("counteq:"):
            letters = spec.split(":", 1)[1].split(",")
            if len(letters) != 2 or any(len(l) != 1 for l in letters):
                raise UsageError("counteq needs two letters, e.g. counteq:a,b")
            return languages.count_eq(letters[0], letters[1])
        if spec.startswith("majority:"):
            return languages.majority(int(spec.split(":", 1)[1]))
        if spec.startswith("coprefix:"):
            morphism, seed = _parse_morphism(spec.split(":", 1)[1])
            return languages.coprefix(morphism, seed)
        extension = _load_extension(spec, {"suffix-ext": languages.suffix_extension})
        if extension is not None:
            return extension
    except UsageError:
        raise
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    raise UsageError("unknown oracle %r" % spec)


_EXTENSION_FAMILIES = {
    "suffix-ext": approximations.suffix_extension_family,
    "prefix-ext": approximations.prefix_extension_family,
    "infix-ext": approximations.infix_extension_family,
}


def _load_extension(spec, builders):
    """``builders[kind](base oracle, letter)`` for a spec
    ``<kind>:<base>:<letter>``; None when the spec names no kind there."""
    kind, colon, rest = spec.partition(":")
    if not colon or kind not in builders:
        return None
    base_spec, _, letter = rest.rpartition(":")
    if not base_spec or len(letter) != 1:
        raise UsageError("%s needs %s:<base>:<letter>" % (kind, kind))
    return builders[kind](load_oracle(base_spec), letter)


def load_family(spec):
    try:
        extension = _load_extension(spec, _EXTENSION_FAMILIES)
        if extension is not None:
            return extension
        return approximations.family(spec)
    except UsageError:
        raise
    except ValueError as exc:
        raise UsageError(str(exc)) from None


# -- subcommands ----------------------------------------------------------------

def cmd_density(args, out):
    report = natural_density(load_dfa(args.dfa))
    if args.format == "json":
        payload = {
            "density": fraction_json(report.density),
            "natural_density": fraction_json(report.natural_density),
            "modulus": report.modulus,
            "accumulation_points": [fraction_json(v) for v in report.accumulation_points],
        }
        out.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        acc = ",".join(
            "%d:%s" % (d, format_fraction(v))
            for d, v in enumerate(report.accumulation_points)
        )
        out.write(
            "density=%s natural=%s c=%d acc=[%s]\n"
            % (
                format_fraction(report.density),
                format_fraction(report.natural_density),
                report.modulus,
                acc,
            )
        )
    return 0


def cmd_census(args, out):
    oracle = load_oracle(args.oracle)
    census = census_by_enumeration(oracle, args.max, budget=args.budget)
    ratios, cesaro = ratio_and_cesaro(census)
    if args.format == "json":
        rows = [
            {
                "n": n,
                "count": census.counts[n],
                "ratio": fraction_json(ratios[n]),
                "cesaro": fraction_json(cesaro[n]),
            }
            for n in range(len(census.counts))
        ]
        out.write(json.dumps({"oracle": oracle.name, "rows": rows}, sort_keys=True) + "\n")
    else:
        out.write("n,count,ratio,cesaro\n")
        for n in range(len(census.counts)):
            out.write(
                "%d,%d,%s,%s\n"
                % (
                    n,
                    census.counts[n],
                    format_fraction(ratios[n]),
                    "" if cesaro[n] is None else format_fraction(cesaro[n]),
                )
            )
    return 0


def _containment_cell(row):
    problems = []
    if row.inner_counterexample is not None:
        problems.append("inner:%s" % row.inner_counterexample)
    if row.outer_counterexample is not None:
        problems.append("outer:%s" % row.outer_counterexample)
    return "ok" if not problems else ";".join(problems)


def _k_errors_as_usage(build):
    """A family constructor whose ValueError (a k it does not accept) is a
    UsageError."""
    if build is None:
        return None

    def checked(k):
        try:
            return build(k)
        except ValueError as exc:
            raise UsageError("--k %d: %s" % (k, exc)) from None

    return checked


def cmd_gap(args, out):
    fam = load_family(args.family)
    fam = dataclasses.replace(
        fam, inner=_k_errors_as_usage(fam.inner), outer=_k_errors_as_usage(fam.outer)
    )
    try:
        ks = [int(part) for part in args.k.split(",") if part]
    except ValueError:
        raise UsageError("--k needs a comma-separated integer list") from None
    if not ks:
        raise UsageError("--k needs at least one value")
    report = approximations.gap_report(fam, ks, args.max, budget=args.budget)
    failed = any(not row.containment_ok for row in report.rows)
    if args.format == "json":
        payload = {
            "family": report.family,
            "rows": [
                {
                    "k": row.k,
                    "inner": fraction_json(row.inner_density),
                    "outer": fraction_json(row.outer_density),
                    "gap": fraction_json(row.gap),
                    "containment": _containment_cell(row),
                }
                for row in report.rows
            ],
            "target_cesaro": [fraction_json(v) for v in report.target_cesaro],
        }
        out.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        out.write("k,inner,outer,gap,containment\n")
        for row in report.rows:
            out.write(
                "%d,%s,%s,%s,%s\n"
                % (
                    row.k,
                    format_fraction(row.inner_density),
                    format_fraction(row.outer_density),
                    format_fraction(row.gap),
                    _containment_cell(row),
                )
            )
    return 1 if failed else 0


def cmd_monoid(args, out):
    machine = load_dfa(args.dfa)
    budget = DEFAULT_MONOID_BUDGET if args.budget is None else args.budget
    monoid, accept = transition_monoid(machine, budget=budget)
    greens = green_classes(monoid)
    null_language = density(machine) == 0
    witness = None if null_language else witness_in_monoid(machine, monoid, accept, greens)
    counts = {
        name: max(assignment) + 1  # ids run from 0 without a gap
        for name, assignment in zip("JRLH", (greens.j_class, greens.r_class, greens.l_class,
                                             greens.h_class))
    }
    minimal_accept = sorted(i for i in accept.elements if greens.j_class[i] in greens.j_minimal)
    if args.format == "json":
        payload = {
            "elements": len(monoid),
            "green": counts,
            "accept_set": sorted(accept.elements),
            "j_minimal_accept": minimal_accept,
            "status": "NULL-LANGUAGE" if null_language else "ok",
            "witness": None if witness is None else {"word": witness[0], "power": witness[1]},
        }
        out.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        out.write("|M|=%d\n" % len(monoid))
        out.write("green: J=%(J)d R=%(R)d L=%(L)d H=%(H)d\n" % counts)
        out.write("S=[%s]\n" % ",".join(str(i) for i in sorted(accept.elements)))
        out.write("J-minimal-S=[%s]\n" % ",".join(str(i) for i in minimal_accept))
        if null_language:
            out.write("status=NULL-LANGUAGE\n")
        else:
            out.write("witness=(%s,%d)\n" % witness)
    return 0


def cmd_check(args, out):
    results = run_criteria(only=args.only)
    if not results:
        raise UsageError("no criterion matches --only %r" % args.only)
    all_ok = True
    if args.format == "json":
        payload = []
        for name, items in results:
            ok = all(item.passed for item in items)
            all_ok &= ok
            payload.append(
                {
                    "criterion": name,
                    "passed": ok,
                    "items": [
                        {"label": i.label, "passed": i.passed, "detail": i.detail}
                        for i in items
                    ],
                }
            )
        out.write(json.dumps({"criteria": payload, "passed": all_ok}, sort_keys=True) + "\n")
    else:
        for name, items in results:
            ok = all(item.passed for item in items)
            all_ok &= ok
            if ok:
                out.write("PASS %s (%d checks)\n" % (name, len(items)))
            else:
                failing = [i for i in items if not i.passed]
                out.write(
                    "FAIL %s: %s\n"
                    % (name, "; ".join("%s [%s]" % (i.label, i.detail) for i in failing))
                )
        out.write("result: %s\n" % ("all criteria passed" if all_ok else "FAILURES PRESENT"))
    return 0 if all_ok else 1


# -- entry point -----------------------------------------------------------------

@cache  # one parser per process: building one takes about a millisecond
def build_parser():
    parser = argparse.ArgumentParser(
        prog="regdensity",
        description="Exact densities of regular languages and regular "
        "approximations of non-regular ones.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    density_p = sub.add_parser("density", help="exact density report of a DFA")
    density_p.add_argument("--dfa", required=True, help="JSON file or builtin (evens, modk:3, starts:a)")

    census_p = sub.add_parser("census", help="exact census of a language oracle")
    census_p.add_argument("--oracle", required=True)
    census_p.add_argument("--max", type=int, required=True)

    gap_p = sub.add_parser("gap", help="approximation gap sweep for a family")
    gap_p.add_argument("--family", required=True)
    gap_p.add_argument("--k", required=True, help="comma-separated parameter list")
    gap_p.add_argument("--max", type=int, required=True, help="containment check length")

    monoid_p = sub.add_parser("monoid", help="transition monoid report of a DFA")
    monoid_p.add_argument("--dfa", required=True)

    check_p = sub.add_parser("check", help="run the verification suite")
    check_p.add_argument("--only", default=None, help="filter criteria by name or tag")

    for p in (density_p, census_p, gap_p, monoid_p, check_p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", default=None, help="write to a file instead of stdout")
    for p in (census_p, gap_p, monoid_p):
        p.add_argument("--budget", type=int, default=None)
    return parser


_HANDLERS = {
    "density": cmd_density,
    "census": cmd_census,
    "gap": cmd_gap,
    "monoid": cmd_monoid,
    "check": cmd_check,
}


def main(argv=None):
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # exact values may have any number of digits
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS[args.command]
    try:
        if getattr(args, "budget", None) is not None and args.budget < 1:
            raise UsageError("--budget must be at least 1, got %d" % args.budget)
        if getattr(args, "max", 0) < 0:
            raise UsageError("--max must be non-negative, got %d" % args.max)
        if args.output is None:
            return handler(args, sys.stdout)
        # the file is opened only after the command has returned (exit 0 or
        # 1), so a run that exits 2 or 3 leaves any previous output in place
        buffer = io.StringIO()
        code = handler(args, buffer)
        try:
            with open(args.output, "w", encoding="utf-8", newline="") as out:
                out.write(buffer.getvalue())
        except OSError as exc:
            raise UsageError("cannot write %s: %s" % (args.output, exc.strerror)) from None
        return code
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print("resource budget exceeded: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
