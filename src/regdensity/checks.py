"""The verification suite behind the `check` subcommand.

Each criterion function returns a list of CheckItem results carrying exact
values in their detail strings; a criterion passes iff all its items do.
Random inputs are drawn from fixed seeds, so every run is identical.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .approximations import (
    family,
    majority_escape_witness,
    suffix_extension_family,
    suffix_inner_dfa,
    verify_containment,
)
from .automata import even_length_dfa, is_subset, mod_counter_dfa, random_dfa, starts_with_dfa
from .core import (
    Alphabet,
    census_by_enumeration,
    enumerate_words,
    format_fraction,
    ratio_and_cesaro,
)
from .density import density, is_dense, is_null, natural_density
from .languages import (
    DiagonalLanguage,
    LanguageOracle,
    count_eq,
    dyck_count,
    is_primitive,
    kemp_base,
    majority,
    majority_count,
    o3,
    o3_count,
    primitive,
    primitive_count,
    semi_dyck,
    staircase_word_prefix,
)
from .monoid import nonprimitive_witness

AB = Alphabet("ab")


@dataclass(frozen=True)
class CheckItem:
    label: str
    passed: bool
    detail: str = ""


def _item(label, passed, detail=""):
    return CheckItem(label, bool(passed), detail)


def _equal(label, value, expected):
    """An exact value against its closed form."""
    return _item(
        label,
        value == expected,
        "%s expected %s" % (format_fraction(value), format_fraction(expected)),
    )


def _contained(label, cex):
    """A containment claim: its counterexample, or None if it holds."""
    return _item(label, cex is None, cex or "ok")


def _sandwich(prefix, target, inner, claim, ks, max_length):
    """Each k's inner machine: its density against the criterion's closed
    form ``claim(k)``, and its containment in the target up to a length."""
    items = []
    for k in ks:
        machine = inner(k)
        items.append(_equal("%s-density-k%d" % (prefix, k), density(machine), claim(k)))
        cex = verify_containment(machine, target, "inner", max_length)
        items.append(_contained("%s-containment-k%d" % (prefix, k), cex))
    return items


def _verdicts(predicate, words_by_length):
    """The predicate's answers on each list of words in turn, the words over
    ab of lengths 0, 1, ... in shortlex order.  A stepped oracle over a and
    b takes one step per word, from the state of the word's prefix: the
    word of index i // 2 one length shorter.  Any other predicate is mapped
    over the words."""
    stepper = getattr(predicate, "stepper", None)
    if stepper is None or not set(AB.symbols) <= set(predicate.alphabet.symbols):
        for words in words_by_length:
            yield list(map(predicate, words))
        return
    start, step, accepting = stepper
    states = [start]
    for n in range(len(words_by_length)):
        if n:
            states = [step(q, a) for q in states for a in AB.symbols]
        yield list(map(accepting, states))


def _disagreement(first, second, max_length):
    """The shortlex-least word over ab of length at most ``max_length`` on
    which the two predicates differ, or None."""
    words_by_length = [enumerate_words(AB, n) for n in range(max_length + 1)]
    for words, x, y in zip(
        words_by_length, _verdicts(first, words_by_length), _verdicts(second, words_by_length)
    ):
        if x != y:
            return next(w for w, u, v in zip(words, x, y) if u != v)
    return None


def _census(name, oracle, count, max_length):
    """An oracle's brute-force census against its closed-form counter; the
    detail shows the closed counts up to half the length."""
    brute = census_by_enumeration(oracle, max_length)
    closed = [count(n) for n in range(max_length + 1)]
    half = max_length // 2
    return _item(
        "%s-counter-vs-brute-force" % name,
        brute.counts == closed,
        "counts[0..%d]=%s" % (half, closed[: half + 1]),
    )


def _draw(seed, non_null, null=0):
    """Random 4-state machines over ab, drawn from a seeded generator until
    the first ``non_null`` non-null and ``null`` null ones are found."""
    rng = random.Random(seed)
    found = ([], [])  # by is_null
    while len(found[0]) < non_null or len(found[1]) < null:
        machine = random_dfa(rng, 4, AB)
        found[is_null(machine)].append(machine)
    return found[0][:non_null], found[1][:null]


# -- criteria -----------------------------------------------------------------

def check_textbook():
    items = []
    d2 = density(starts_with_dfa("a", AB))
    items.append(_item("first-letter-density-binary", d2 == Fraction(1, 2), format_fraction(d2)))
    d3 = density(starts_with_dfa("a", Alphabet("abc")))
    items.append(_item("first-letter-density-ternary", d3 == Fraction(1, 3), format_fraction(d3)))
    report = natural_density(even_length_dfa(AB))
    items.append(
        _item(
            "even-lengths-density",
            report.density == Fraction(1, 2),
            format_fraction(report.density),
        )
    )
    items.append(
        _item(
            "even-lengths-natural-bot",
            report.natural_density is None,
            format_fraction(report.natural_density),
        )
    )
    items.append(
        _item(
            "even-lengths-accumulation",
            report.modulus == 2
            and report.accumulation_points == (Fraction(1), Fraction(0)),
            "c=%d acc=%s"
            % (report.modulus, [format_fraction(v) for v in report.accumulation_points]),
        )
    )
    return items


def check_modk():
    return _sandwich("modk", count_eq().complement(), mod_counter_dfa,
                     lambda k: Fraction(k - 1, k), (3, 5, 7, 9), 12)


def check_dyck():
    items = []
    census = census_by_enumeration(semi_dyck(), 20)
    items.append(
        _item(
            "dyck-catalan-counts",
            census.counts == [dyck_count(n) for n in range(21)],
            "counts[0..8]=%s" % census.counts[:9],
        )
    )
    _, cesaro = ratio_and_cesaro(census)
    items.append(
        _item(
            "dyck-cesaro-20",
            cesaro[20] <= Fraction(1, 10),
            "%s <= 1/10" % format_fraction(cesaro[20]),
        )
    )
    return items


def check_palindromes():
    fam = family("pal")
    return _sandwich("pal-inner", fam.target, fam.inner,
                     lambda k: 1 - Fraction(1, 2 ** k), range(1, 7), 14)


def check_goldstine():
    fam = family("goldstine")
    items = _sandwich("goldstine-inner", fam.target, fam.inner,
                      lambda k: Fraction(1, 2) - Fraction(1, 2 ** (k + 1)), range(1, 11), 16)
    outer_cex = verify_containment(fam.outer(1), fam.target, "outer", 16)  # one machine, any k
    items.append(_contained("goldstine-outer-containment", outer_cex))

    staircase = staircase_word_prefix(12)
    prefixes = {staircase[:i] for i in range(13)}
    mismatch = _disagreement(lambda w: w not in prefixes and w.endswith("b"), fam.target, 12)
    items.append(_contained("goldstine-coprefix-identity", mismatch))
    return items


def check_o3o4():
    items = []
    for name in ("o3", "o4"):
        fam = family(name)
        for k in (3, 5, 9):
            machine = fam.outer(k)
            d = density(machine)
            exact = Fraction(2 * k - 1, k * k)
            items.append(
                _item(
                    "%s-outer-density-k%d" % (name, k),
                    d == exact and d <= Fraction(2, k),
                    "%s (= (2k-1)/k^2, <= 2/k)" % format_fraction(d),
                )
            )
    items.append(_census("o3", o3(), o3_count, 12))
    ratio18 = Fraction(o3_count(18), 3 ** 18)
    # exact value 23717494/129140163 ~ 0.1837: the stated 1/10 bound is not
    # attainable at length 18, so this item reports honestly red
    items.append(
        _item(
            "o3-null-spotcheck-n18",
            ratio18 < Fraction(1, 10),
            "ratio(18)=%s ~ %.4f, required < 1/10" % (format_fraction(ratio18), float(ratio18)),
        )
    )
    return items


def check_suffix_extension():
    items = []
    unary = LanguageOracle("a-star", Alphabet("a"), lambda w: True)
    for n in range(1, 11):
        d = density(suffix_inner_dfa(unary, "c", n))
        items.append(_equal("suffix-unary-inner-n%d" % n, d, 1 - Fraction(1, 2 ** n)))
    fam = suffix_extension_family(kemp_base(), "c")
    inners = []
    outers = []
    gaps_ok = True
    for n in range(1, 13):
        di = density(fam.inner(n))
        do = density(fam.outer(n))
        inners.append(di)
        outers.append(do)
        if do - di != Fraction(2, 3) ** n:
            gaps_ok = False
    items.append(
        _item(
            "suffix-kemp-gap-closed-form",
            gaps_ok,
            "gap(n) = (2/3)^n for n=1..12",
        )
    )
    items.append(
        _item(
            "suffix-kemp-monotone",
            all(a <= b for a, b in zip(inners, inners[1:]))
            and all(a >= b for a, b in zip(outers, outers[1:])),
            "inner nondecreasing, outer nonincreasing",
        )
    )
    gap12 = outers[-1] - inners[-1]
    items.append(
        _item(
            "suffix-kemp-gap-12",
            gap12 < Fraction(1, 100),
            "%s < 1/100" % format_fraction(gap12),
        )
    )
    return items


def check_majority():
    items = [_census("majority1", majority(1), majority_count, 16)]
    ratio20 = Fraction(majority_count(20, 1), 2 ** 20)
    formula = (1 - Fraction(comb(20, 10), 2 ** 20)) / 2
    items.append(
        _item(
            "majority1-ratio-20",
            ratio20 == formula and Fraction(2, 5) < ratio20 < Fraction(1, 2),
            "%s in (2/5, 1/2)" % format_fraction(ratio20),
        )
    )
    ratio24 = Fraction(majority_count(24, 2), 2 ** 24)
    # exact value 536155/16777216 ~ 0.0320: the stated 1/50 bound is not
    # attainable at length 24, so this item reports honestly red
    items.append(
        _item(
            "majority2-ratio-24",
            ratio24 <= Fraction(1, 50),
            "ratio(24)=%s ~ %.4f, required <= 1/50" % (format_fraction(ratio24), float(ratio24)),
        )
    )
    non_null, null = _draw(0x5EED, 10, 5)
    escapes_ok = True
    for machine in non_null:
        witness = majority_escape_witness(machine, 1)
        if not machine.accepts(witness) or witness.count("a") > witness.count("b"):
            escapes_ok = False
    items.append(
        _item("majority-escape-on-non-null", escapes_ok, "10 witnesses verified")
    )
    errors_ok = True
    for machine in null:
        try:
            majority_escape_witness(machine, 1)
            errors_ok = False
        except ValueError:
            pass
    items.append(_item("majority-escape-null-errors", errors_ok, "5 null machines refused"))
    return items


def check_primitive():
    items = [_census("primitive", primitive(), primitive_count, 16)]
    bound_ok = True
    for n in range(4, 17):
        deficit = 2 ** n - primitive_count(n)
        if deficit ** 2 > n * 2 ** (n + 4):
            bound_ok = False
    items.append(
        _item(
            "primitive-ratio-lower-bound",
            bound_ok,
            "(2^n - p_n)^2 <= n*2^(n+4) for 4 <= n <= 16",
        )
    )
    word, power = nonprimitive_witness(mod_counter_dfa(3))
    items.append(
        _item(
            "nonprimitive-witness-mod3",
            word == "a" and power == 3,
            "(%s, %d)" % (word, power),
        )
    )
    verified = True
    for machine in _draw(0xBEEF, 10)[0]:
        w, n = nonprimitive_witness(machine)
        for m in (1, 2):
            p = w * (m * n + 1)
            if is_primitive(p) or not machine.accepts(p):
                verified = False
    items.append(
        _item("nonprimitive-witness-random", verified, "10 witnesses verified")
    )

    def splits(word):
        return any(is_primitive(word[:i]) and is_primitive(word[i:]) for i in range(1, len(word)))

    def expected(word):
        return len(word) == 2 if len(set(word)) == 1 else len(word) >= 2

    items.append(
        _item(
            "primitive-square-identity",
            _disagreement(splits, expected, 10) is None,
            "two-primitive products = non-powers plus squares, lengths <= 10",
        )
    )
    return items


def check_density_algebra():
    rng = random.Random(0xDA7A)
    machines = [random_dfa(rng, rng.randint(1, 8), AB) for _ in range(200)]
    complement_ok = True
    null_dense_ok = True
    monotone_ok = True
    additive_ok = True
    densities = [density(machine) for machine in machines]
    for machine, d in zip(machines, densities):
        if d + density(machine.complement()) != 1:
            complement_ok = False
        if (d == 0) != (not is_dense(machine)):
            null_dense_ok = False
    pairs = zip(machines[0::2], machines[1::2], densities[0::2], densities[1::2])
    for x, y, dx, dy in pairs:
        meet = x.intersection(y)
        if not is_subset(meet, x):
            monotone_ok = False
        d_meet = density(meet)
        if not (d_meet <= dx and d_meet <= dy):
            monotone_ok = False
        rest = x.difference(y)
        if density(rest.union(y)) != density(rest) + dy:
            additive_ok = False
    return [
        _item("complement-law", complement_ok, "200 machines"),
        _item("null-iff-not-dense", null_dense_ok, "two independent algorithms agree"),
        _item("inclusion-monotonicity", monotone_ok, "100 pairs"),
        _item("disjoint-additivity", additive_ok, "100 pairs"),
    ]


def check_diagonal():
    items = []
    program = DiagonalLanguage()
    accepted = program.accepted_words_up_to(5)
    by_length = {}
    for word in accepted:
        by_length[len(word)] = by_length.get(len(word), 0) + 1
    items.append(
        _item(
            "diagonal-at-most-one-per-length",
            all(v <= 1 for v in by_length.values()),
            "accepted=%s" % accepted,
        )
    )
    lengths = [len(w) for w in accepted]
    items.append(
        _item(
            "diagonal-lengths-strictly-increase",
            lengths == sorted(set(lengths)),
            "lengths=%s" % lengths,
        )
    )
    consistent = _disagreement(program.membership, accepted.__contains__, 5) is None
    items.append(_item("diagonal-membership-consistent", consistent, "all words <= 5"))
    first = accepted[0]
    escaped = program.escaped_machine(0)
    items.append(
        _item(
            "diagonal-first-pick-escapes",
            first == "a" and not escaped.accepts(first),
            "pick=%r, escaped machine has %d state(s)" % (first, escaped.n_states),
        )
    )
    return items


CRITERIA = (
    ("textbook-densities", ("textbook",), check_textbook),
    ("modk-family", ("modk", "counteq"), check_modk),
    ("dyck-census", ("dyck", "catalan"), check_dyck),
    ("palindrome-family", ("pal",), check_palindromes),
    ("goldstine-family", ("goldstine",), check_goldstine),
    ("o3o4-families", ("o3", "o4"), check_o3o4),
    ("suffix-extension", ("suffix", "kemp"), check_suffix_extension),
    ("majority", ("majority",), check_majority),
    ("primitive-words", ("prim", "primitive"), check_primitive),
    ("density-algebra", ("algebra", "random"), check_density_algebra),
    ("diagonal-language", ("diagonal",), check_diagonal),
)


def run_criteria(only=None):
    """Run (a filtered subset of) the verification suite.

    Returns a list of (criterion name, [CheckItem]) pairs in fixed order.
    """
    results = []
    for name, tags, function in CRITERIA:
        if only is not None and only not in name and only not in tags:
            continue
        results.append((name, function()))
    return results
