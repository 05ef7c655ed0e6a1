"""Tests for the approximation families, containment checks, and gap reports."""

import dataclasses
import itertools
import random
import time
from collections import Counter
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regdensity import (
    Alphabet,
    ApproxFamily,
    BudgetExceededError,
    Dfa,
    GapReport,
    GapRow,
    LanguageOracle,
    LengthCensus,
    Stepper,
    census_by_enumeration,
    count_eq,
    density,
    diagonal,
    enumerate_words,
    family,
    gap_report,
    goldstine,
    infix_extension_family,
    is_subset,
    majority,
    majority_escape_witness,
    mod_counter_dfa,
    natural_density,
    o3,
    o4,
    palindromes,
    prefix_extension_family,
    primitive,
    random_dfa,
    ratio_and_cesaro,
    semi_dyck,
    suffix_extension,
    suffix_extension_family,
    verify_containment,
)
from regdensity import approximations, automata
from regdensity.approximations import (
    _extension_trie_dfa,
    contains_factor_dfa,
    ends_with_letter_dfa,
    goldstine_inner_dfa,
    nonpalindrome_window_dfa,
    suffix_inner_dfa,
    suffix_outer_dfa,
)
from regdensity.cli import load_oracle
from regdensity.languages import dyck_count, kemp_base, staircase_word_prefix

import reference_languages as ref

AB = Alphabet("ab")


def test_modk_family_claims():
    fam = family("modk")
    for k in (3, 5, 7):
        outer = fam.outer(k)
        assert density(outer) == Fraction(1, k)
    # densities still computable for even parameters
    assert density(mod_counter_dfa(2)) == Fraction(1, 2)
    assert density(mod_counter_dfa(4)) == Fraction(3, 4)


def test_pal_family_claims():
    fam = family("pal")
    for k in (1, 2, 3, 4):
        assert density(fam.inner(k)) == 1 - Fraction(1, 2 ** k)


def test_pal_inner_is_exactly_the_window_language():
    machine = nonpalindrome_window_dfa(2)
    for n in range(7):
        for tup in itertools.product("ab", repeat=n):
            word = "".join(tup)
            expected = n >= 4 and word[-2:] != word[1::-1]
            assert machine.accepts(word) == expected


def test_pal_state_budget():
    with pytest.raises(BudgetExceededError):
        nonpalindrome_window_dfa(8)
    # decided without computing 4**k
    for k in (10 ** 8, 10 ** 11):
        with pytest.raises(BudgetExceededError):
            nonpalindrome_window_dfa(k)


def test_window_machine_is_the_hand_indexed_machine():
    for k in range(1, 7):
        assert nonpalindrome_window_dfa(k) == ref.window_dfa(k).minimized()


def test_goldstine_family_claims():
    fam = family("goldstine")
    for k in (1, 2, 5):
        assert density(fam.inner(k)) == Fraction(1, 2) - Fraction(1, 2 ** (k + 1))
        assert density(fam.outer(k)) == Fraction(1, 2)


def test_goldstine_inner_is_the_hand_indexed_machine():
    for k in range(1, 12):
        machine = goldstine_inner_dfa(k)
        assert machine.n_states == 2 * k + 3
        assert machine.minimized() == ref.goldstine_inner_dfa(k).minimized()


def test_goldstine_inner_language_matches_definition():
    k = 3
    machine = goldstine_inner_dfa(k)
    prefix = staircase_word_prefix(k)
    for n in range(8):
        for tup in itertools.product("ab", repeat=n):
            word = "".join(tup)
            expected = n >= k + 1 and word[:k] != prefix and word.endswith("b")
            assert machine.accepts(word) == expected


def test_o3_o4_family_densities():
    for name in ("o3", "o4"):
        fam = family(name)
        for k in (3, 5):
            d = density(fam.outer(k))
            assert d == Fraction(2 * k - 1, k * k)
            assert d <= Fraction(2, k)


def test_o3_o4_outer_containment():
    fam3 = family("o3")
    assert verify_containment(fam3.outer(3), fam3.target, "outer", 8) is None
    fam4 = family("o4")
    assert verify_containment(fam4.outer(3), fam4.target, "outer", 6) is None


def test_gap_monotonicity():
    fam = family("modk")
    gaps = [
        density(fam.outer(k)) - Fraction(0) for k in (3, 5, 7)
    ]
    assert gaps == sorted(gaps, reverse=True)
    pal = family("pal")
    pal_gaps = [1 - density(pal.inner(k)) for k in (1, 2, 3, 4)]
    assert pal_gaps == sorted(pal_gaps, reverse=True)
    gold = family("goldstine")
    gold_gaps = [
        density(gold.outer(k)) - density(gold.inner(k)) for k in (1, 2, 3, 4)
    ]
    assert gold_gaps == sorted(gold_gaps, reverse=True)


def test_cylinder_mass_on_dyck_is_the_catalan_sum():
    # the reference counts dyck words through the stepper, dyck_count by
    # the Catalan numbers
    inner, outer = Fraction(0), Fraction(1)
    for n in range(13):
        assert ref.cylinder_mass(semi_dyck(), n, True) == inner
        assert 1 - ref.cylinder_mass(semi_dyck(), n, False) == outer
        inner += Fraction(dyck_count(n), 3 ** (n + 1))
        outer -= Fraction(2 ** n - dyck_count(n), 3 ** (n + 1))


def test_suffix_family_sandwich():
    fam = suffix_extension_family(semi_dyck(), "c")
    previous_inner = None
    previous_outer = None
    for n in range(1, 6):
        inner, outer = fam.inner(n), fam.outer(n)
        assert is_subset(inner, outer)
        if previous_inner is not None:
            assert is_subset(previous_inner, inner)
            assert is_subset(outer, previous_outer)
        previous_inner, previous_outer = inner, outer
        di, do = density(inner), density(outer)
        assert di == ref.cylinder_mass(semi_dyck(), n, True)
        assert do == 1 - ref.cylinder_mass(semi_dyck(), n, False)
        assert do - di == Fraction(2, 3) ** n


@pytest.mark.parametrize("build", [suffix_extension_family, prefix_extension_family])
def test_extension_family_claims_from_zero(build):
    # at n=0 no cylinder is picked: inner is empty, outer is every word
    fam = build(semi_dyck(), "c")
    for n in range(5):
        inner, outer = fam.inner(n), fam.outer(n)
        assert density(inner) == ref.cylinder_mass(semi_dyck(), n, True)
        assert density(outer) == 1 - ref.cylinder_mass(semi_dyck(), n, False)
        assert is_subset(inner, outer)
    assert density(fam.inner(0)) == 0 and density(fam.outer(0)) == 1


@st.composite
def frozen_bases(draw):
    """A bound n <= 6 and a base language: a random set of words over ab,
    each shorter than n."""
    n = draw(st.integers(0, 6))
    words = [w for length in range(n) for w in enumerate_words(AB, length)]
    members = frozenset(draw(st.lists(st.sampled_from(words), unique=True)) if words else ())
    return n, LanguageOracle("frozen", AB, members.__contains__)


def _prefix_machines_match_the_reversal_route(base, n):
    fam = prefix_extension_family(base, "c")
    for machine, outer in ((fam.inner(n), False), (fam.outer(n), True)):
        assert machine == ref.prefix_trie_by_reversal(base, "c", n, outer)


@settings(max_examples=60, deadline=None)
@given(frozen_bases())
def test_extension_machines_match_cylinder_mass_on_random_bases(case):
    # the suffix machines are deep transient tries; the prefix ones are
    # minimized tries of the tail after the last fresh letter, the same
    # machines as the reversal route gives
    n, base = case
    for build in (suffix_extension_family, prefix_extension_family):
        fam = build(base, "c")
        for machine, claim in ((fam.inner(n), ref.cylinder_mass(base, n, True)),
                               (fam.outer(n), 1 - ref.cylinder_mass(base, n, False))):
            assert density(machine) == claim
            assert natural_density(machine).natural_density == claim
    _prefix_machines_match_the_reversal_route(base, n)


@pytest.mark.parametrize(
    "base", [semi_dyck(), palindromes(), goldstine(), primitive(), count_eq(), majority(2)],
    ids=lambda base: base.name,
)
def test_prefix_machines_are_the_reversed_suffix_machines(base):
    # the tail tries and the reversed, determinized suffix tries of the
    # reversed base have the same minimal machines
    for n in range(8):
        _prefix_machines_match_the_reversal_route(base, n)


def test_suffix_family_respects_target():
    fam = suffix_extension_family(kemp_base(), "c")
    for n in (1, 3, 5):
        assert verify_containment(fam.inner(n), fam.target, "inner", 8) is None
        assert verify_containment(fam.outer(n), fam.target, "outer", 8) is None


def test_prefix_family_on_a_membership_only_base():
    base = LanguageOracle("ends-a", AB, lambda w: w.endswith("a"))
    fam = prefix_extension_family(base, "c")
    assert density(fam.inner(3)) == ref.cylinder_mass(base, 3, True) == Fraction(5, 27)
    assert density(fam.outer(3)) == 1 - ref.cylinder_mass(base, 3, False) == Fraction(13, 27)
    for n in (1, 2, 4):
        assert verify_containment(fam.inner(n), fam.target, "inner", 7) is None
        assert verify_containment(fam.outer(n), fam.target, "outer", 7) is None


def test_prefix_machines_at_k_200_answer_exactly(monkeypatch):
    # _trie_alphabet's count of the Σ|B|^i trie words refuses k >= 18 for a
    # binary base; with that count out (the bound check kept), each k = 200
    # prefix machine is one recurrent class of 5,051-16,920 states in which
    # every fresh letter returns to the trie root, and its stationary law
    # is extended along in-edges from one pinned state
    def uncounted(base, letter, n):
        approximations._check_bound(n)
        return Alphabet(base.alphabet.symbols + (letter,)), 1

    monkeypatch.setattr(approximations, "_trie_alphabet", uncounted)
    bases = [load_oracle("dyck"), load_oracle("counteq:a,b"), load_oracle("majority:1")]
    for base in bases + [kemp_base()]:
        fam = prefix_extension_family(base, "c")
        claims = (ref.cylinder_mass(base, 200, True), 1 - ref.cylinder_mass(base, 200, False))
        for machine, claim in zip((fam.inner, fam.outer), claims):
            start = time.perf_counter()
            value = density(machine(200))
            assert time.perf_counter() - start < 2
            assert value == claim


def test_infix_family():
    unary = LanguageOracle("a-star", Alphabet("a"), lambda w: True)
    fam = infix_extension_family(unary, "c")
    assert density(fam.inner(1)) == 1
    assert fam.outer is None
    assert verify_containment(fam.inner(1), fam.target, "inner", 8) is None
    empty = LanguageOracle("nothing", AB, lambda w: False)
    fam = infix_extension_family(empty, "c")
    assert density(fam.inner(1)) == 0 and density(fam.outer(1)) == 0


def test_contains_factor_dfa():
    machine = contains_factor_dfa("cac", Alphabet("abc"))
    for n in range(7):
        for tup in itertools.product("abc", repeat=n):
            word = "".join(tup)
            assert machine.accepts(word) == ("cac" in word)


def test_verify_containment_examples():
    assert (
        verify_containment(mod_counter_dfa(3), count_eq().complement(), "inner", 12)
        is None
    )
    assert verify_containment(mod_counter_dfa(3), semi_dyck(), "inner", 4) == "a"
    assert (
        verify_containment(ends_with_letter_dfa("b", AB), goldstine(), "outer", 12)
        is None
    )


def test_verify_containment_errors():
    with pytest.raises(ValueError):
        verify_containment(mod_counter_dfa(3), semi_dyck(), "sideways", 4)
    with pytest.raises(ValueError):
        verify_containment(family("o3").outer(3), semi_dyck(), "inner", 4)
    with pytest.raises(BudgetExceededError):
        verify_containment(mod_counter_dfa(3), semi_dyck(), "inner", 30)


def test_negative_max_length_is_refused():
    # a negative length bound used to mean no bound at all: the inner check
    # below never returned and the census came back empty
    evens = Dfa(AB, 2, [[1, 1], [0, 0]], 0, {0})
    with pytest.raises(ValueError):
        census_by_enumeration(semi_dyck(), -1)
    with pytest.raises(ValueError):
        verify_containment(approximations.empty_language_dfa(AB), semi_dyck(), "inner", -1)
    with pytest.raises(ValueError):
        verify_containment(evens, semi_dyck().complement(), "outer", -1)
    with pytest.raises(ValueError):
        gap_report(family("goldstine"), [2], -1)


def test_gap_report_structure():
    report = gap_report(family("goldstine"), [2, 4], 10)
    assert report.family == "goldstine"
    assert [row.k for row in report.rows] == [2, 4]
    first, second = report.rows
    assert first.gap == Fraction(1, 8) and second.gap == Fraction(1, 32)
    assert first.containment_ok and second.containment_ok
    assert report.target_cesaro[0] is None
    assert len(report.target_cesaro) == 11


def test_gap_report_detects_broken_inner():
    broken = ApproxFamily(
        name="broken",
        target=semi_dyck(),
        inner=lambda k: Dfa(AB, 1, [[0, 0]], 0, {0}),  # all words, not inside dyck
        outer=None,
    )
    report = gap_report(broken, [1], 4)
    assert report.rows[0].inner_counterexample == "a"
    assert not report.rows[0].containment_ok


def test_pair_counter_outer_is_the_union_of_two_looped_counters():
    for name, pairs in (("o3", ("ab", "ac")), ("o4", ("xX", "yY"))):
        fam = family(name)
        for k in range(1, 8):
            outer = fam.outer(k)
            union = ref.pair_counters_union(outer.alphabet, pairs, k)
            assert outer.minimized() == union.minimized()


def test_suffix_trie_budget(monkeypatch):
    monkeypatch.setattr(automata, "STATE_BUDGET", 100)
    monkeypatch.setattr(approximations, "STATE_BUDGET", 100)
    with pytest.raises(BudgetExceededError):
        suffix_inner_dfa(semi_dyck(), "c", 10)
    with pytest.raises(BudgetExceededError):
        suffix_outer_dfa(semi_dyck(), "c", 10)


def test_majority_escape_examples():
    assert majority_escape_witness(Dfa(AB, 1, [[0, 0]], 0, {0}), 1) == ""
    ends_a = Dfa(AB, 2, [[1, 0], [1, 0]], 0, {1})
    witness = majority_escape_witness(ends_a, 1)
    assert witness == "bba"
    assert ends_a.accepts(witness)
    assert witness.count("a") <= witness.count("b")
    with pytest.raises(ValueError):
        majority_escape_witness(Dfa(AB, 2, [[0, 1], [1, 1]], 0, {0}), 1)  # a*
    with pytest.raises(ValueError):
        majority_escape_witness(Dfa(AB, 1, [[0, 0]], 0, {0}), 0)


def test_majority_escape_random_non_null():
    rng = random.Random(31)
    found = 0
    while found < 5:
        machine = random_dfa(rng, 4, AB)
        if density(machine) == 0:
            continue
        found += 1
        for m in (1, 2):
            witness = majority_escape_witness(machine, m)
            assert machine.accepts(witness)
            assert witness.count("a") <= m * witness.count("b")


def test_unknown_family():
    with pytest.raises(ValueError):
        family("nope")


# -- the one-pass walker against the old three-pass code ------------------------

def old_verify_containment(dfa, oracle, direction, max_length):
    """Test-only oracle: the word-by-word containment loop, one automaton
    and one oracle call per word."""
    words = [""]
    states = [dfa.initial]
    ranks = range(len(dfa.alphabet))
    for length in range(max_length + 1):
        for word, state in zip(words, states):
            accepted = state in dfa.accepting
            if direction == "inner":
                if accepted and not oracle(word):
                    return word
            else:
                if oracle(word) and not accepted:
                    return word
        if length == max_length:
            break
        words = [w + ch for w in words for ch in dfa.alphabet.symbols]
        states = [dfa.delta[q][a] for q in states for a in ranks]
    return None


def old_census(oracle, max_length):
    """Test-only oracle: one joined tuple and one oracle call per word."""
    counts = []
    for n in range(max_length + 1):
        hits = 0
        for tup in itertools.product(oracle.alphabet.symbols, repeat=n):
            if oracle("".join(tup)):
                hits += 1
        counts.append(hits)
    return LengthCensus(len(oracle.alphabet), counts)


def old_gap_report(fam, ks, max_length):
    """Test-only oracle: a containment walk per automaton, then a census."""
    rows = []
    for k in ks:
        inner = fam.inner(k) if fam.inner is not None else None
        outer = fam.outer(k) if fam.outer is not None else None
        inner_d = density(inner) if inner is not None else Fraction(0)
        outer_d = density(outer) if outer is not None else Fraction(1)
        rows.append(
            GapRow(
                k=k,
                inner_density=inner_d,
                outer_density=outer_d,
                gap=outer_d - inner_d,
                inner_counterexample=None if inner is None
                else old_verify_containment(inner, fam.target, "inner", max_length),
                outer_counterexample=None if outer is None
                else old_verify_containment(outer, fam.target, "outer", max_length),
            )
        )
    _, cesaro = ratio_and_cesaro(old_census(fam.target, max_length))
    return GapReport(family=fam.name, rows=tuple(rows), target_cesaro=tuple(cesaro))


def counting(oracle):
    """The oracle with every membership question recorded, in order."""
    asked = []

    def member(word):
        asked.append(word)
        return oracle.membership(word)

    return LanguageOracle(oracle.name, oracle.alphabet, member), asked


def dfa_oracle(machine):
    return LanguageOracle("dfa", machine.alphabet, machine.accepts)


TARGETS = {
    "ab": (semi_dyck, goldstine, lambda: palindromes().complement(), count_eq),
    "abc": (o3, lambda: suffix_extension(palindromes(), "c")),
}


@st.composite
def small_dfas(draw, alphabet):
    n = draw(st.integers(1, 6))
    delta = [[draw(st.integers(0, n - 1)) for _ in alphabet] for _ in range(n)]
    return Dfa(alphabet, n, delta, 0, draw(st.sets(st.integers(0, n - 1))))


@st.composite
def gap_cases(draw):
    """A family over a drawn target with 1-3 ks of random inner and/or outer
    automata; against a DFA-backed target some claims are made to hold."""
    name = draw(st.sampled_from(("ab", "abc")))
    alphabet = Alphabet(name)
    build = draw(st.sampled_from(TARGETS[name] + (None,)))
    reference = None
    if build is None:
        reference = draw(small_dfas(alphabet))
        target = dfa_oracle(reference)
    else:
        target = build()
    n_ks = draw(st.integers(1, 3))

    def machines_for(direction):
        if not draw(st.booleans()):
            return None
        machines = []
        for _ in range(n_ks):
            machine = draw(small_dfas(alphabet))
            if reference is not None and draw(st.booleans()):
                hold = reference.intersection if direction == "inner" else reference.union
                machine = hold(machine)
            machines.append(machine)
        return machines

    inners, outers = machines_for("inner"), machines_for("outer")
    fam = ApproxFamily(
        name="case",
        target=target,
        inner=None if inners is None else inners.__getitem__,
        outer=None if outers is None else outers.__getitem__,
    )
    max_length = draw(st.integers(0, 8))
    return fam, list(range(n_ks)), max_length


@settings(max_examples=120, deadline=None)
@given(gap_cases())
def test_gap_report_matches_three_pass_oracle(case):
    fam, ks, max_length = case
    target, asked = counting(fam.target)
    report = gap_report(dataclasses.replace(fam, target=target), ks, max_length)
    assert report == old_gap_report(fam, ks, max_length)
    assert len(asked) == len(set(asked)), "a word was asked twice in one gap report"


@settings(max_examples=80, deadline=None)
@given(gap_cases())
def test_verify_containment_matches_old_loop(case):
    fam, ks, max_length = case
    for direction, build in (("inner", fam.inner), ("outer", fam.outer)):
        if build is None:
            continue
        for k in ks:
            machine = build(k)
            result = verify_containment(machine, fam.target, direction, max_length)
            assert result == old_verify_containment(machine, fam.target, direction, max_length)


@settings(max_examples=60, deadline=None)
@given(gap_cases())
def test_census_matches_old_loop(case):
    fam, _, max_length = case
    target, asked = counting(fam.target)
    old_target, old_asked = counting(fam.target)
    assert census_by_enumeration(target, max_length) == old_census(old_target, max_length)
    assert asked == old_asked


@pytest.mark.parametrize(
    "oracle, max_length",
    [
        (semi_dyck(), 13),
        (diagonal(), 12),
        (LanguageOracle("pal", Alphabet("a"), lambda w: w == w[::-1]), 12),
        (o3(), 8),
        (o4(), 6),
    ],
    ids=lambda value: getattr(value, "name", value),
)
def test_census_blocks_keep_shortlex_order(oracle, max_length):
    # a membership-only census reads its word reader one length at a time;
    # the diagonal oracle must see the same shortlex sequence as before
    target, asked = counting(oracle)
    census = census_by_enumeration(target, max_length)
    assert asked == [
        word for n in range(max_length + 1) for word in enumerate_words(oracle.alphabet, n)
    ]
    assert census == old_census(oracle, max_length)


def test_census_streams_on_once_every_check_has_failed():
    # every k's inner automaton accepts the empty word, a goldstine
    # non-member, so the walk stops at length 0 and the rest of the census
    # is streamed: one question per word, still in shortlex order
    everything = Dfa(AB, 1, [[0, 0]], 0, {0})
    fam = ApproxFamily(name="all", target=goldstine(), inner=lambda k: everything)
    target, asked = counting(fam.target)
    report = gap_report(dataclasses.replace(fam, target=target), [1, 2, 3], 11)
    assert report == old_gap_report(fam, [1, 2, 3], 11)
    assert [row.inner_counterexample for row in report.rows] == ["", "", ""]
    assert asked == [word for n in range(12) for word in enumerate_words(AB, n)]


def test_inner_checks_share_verdicts_within_a_length():
    # several inner-only checks against a word-walked target (words with
    # #a = #b mod 2, i.e. even length): each word is asked at most once; two
    # claims fail at length 3, at "aaa" and, for the one that only accepts
    # words ending in b, at "bbb"
    def balanced_mod(k):
        return mod_counter_dfa(k).complement()

    machines = [
        balanced_mod(4),
        balanced_mod(3),
        balanced_mod(6),
        balanced_mod(3).intersection(ends_with_letter_dfa("b", AB)),
    ]
    ks = range(len(machines))
    target = dfa_oracle(balanced_mod(2))
    fam = ApproxFamily(name="mod", target=target, inner=machines.__getitem__)
    target, asked = counting(target)
    report = gap_report(dataclasses.replace(fam, target=target), ks, 10)
    assert report == old_gap_report(fam, ks, 10)
    assert [row.inner_counterexample for row in report.rows] == [None, "aaa", None, "bbb"]
    assert len(asked) == len(set(asked))


def test_trie_past_the_state_budget_asks_the_base_no_word():
    # the trie words alone, sum 2^i over i < n, pass the state budget
    base, asked = counting(diagonal())
    for build in (suffix_extension_family, prefix_extension_family):
        fam = build(base, "c")
        for generator in (fam.inner, fam.outer):
            with pytest.raises(BudgetExceededError):
                generator(99999999999)
    assert asked == []


def test_trie_budget_raises_only_where_the_exploration_would(monkeypatch):
    # 15 trie words fit a budget of 16, but with the absorbing states they do
    # not: the exploration raises after asking; 31 trie words raise at once
    monkeypatch.setattr(automata, "STATE_BUDGET", 16)
    monkeypatch.setattr(approximations, "STATE_BUDGET", 16)
    for n, asks in ((4, True), (5, False)):
        base, asked = counting(semi_dyck())
        with pytest.raises(BudgetExceededError):
            suffix_inner_dfa(base, "c", n)
        assert bool(asked) == asks
    machine = suffix_inner_dfa(semi_dyck(), "c", 3)
    assert machine == ref.cylinder_trie_dfa(semi_dyck(), "c", 3, False).minimized()
    assert machine.n_states == 5


def test_trie_budget_holds_a_suffix_trie_that_never_reaches_its_second_state(monkeypatch):
    # 15 trie words and outer fill a budget of 16; when every verdict leads
    # to outer's absorbing state the other one is never reached, and the
    # machine builds, as the exploration did; one verdict at the deepest
    # level that reaches it is the one state too many
    monkeypatch.setattr(automata, "STATE_BUDGET", 16)
    monkeypatch.setattr(approximations, "STATE_BUDGET", 16)
    for build, outer in ((suffix_inner_dfa, False), (suffix_outer_dfa, True)):
        base = LanguageOracle("constant", AB, lambda w: outer)
        assert build(base, "c", 4) == ref.cylinder_trie_dfa(base, "c", 4, outer).minimized()
        one = LanguageOracle("one", AB, lambda w: (w == "bbb") != outer)
        with pytest.raises(BudgetExceededError, match="^automaton exceeds 16 reachable states$"):
            build(one, "c", 4)


def _fresh_letter(base):
    return next(ch for ch in "cdz" if ch not in base.alphabet)


def minimized_raw_trie(base, letter, n, outer, suffix):
    """The hand-indexed suffix trie or the explored tail trie, minimized."""
    if suffix:
        return ref.cylinder_trie_dfa(base, letter, n, outer).minimized()
    return ref.tail_trie_dfa(base, letter, n, outer)


both_tries = pytest.mark.parametrize("suffix", [True, False], ids=["suffix", "prefix"])


@both_tries
@pytest.mark.parametrize(
    "spec",
    ["dyck", "majority:2", "kemp", "pal", "primitive", "o3", "goldstine",
     "coprefix:a=ab,b=a", "diagonal"],
)
def test_extension_trie_is_the_minimized_raw_trie(spec, suffix):
    base = load_oracle(spec)
    letter = _fresh_letter(base)
    for n in range(9):
        for outer in (False, True):
            machine = _extension_trie_dfa(base, letter, n, outer, suffix)
            assert machine == minimized_raw_trie(base, letter, n, outer, suffix)


def stepped_dfa_reader(machine):
    """The machine's language as a stepped oracle: equal reader states are
    reached by many words, at many depths."""
    delta, rank = machine.delta, machine.alphabet.rank
    stepper = Stepper(machine.initial, lambda q, ch: delta[q][rank(ch)],
                      machine.accepting.__contains__)
    return LanguageOracle("dfa", machine.alphabet, stepper=stepper)


@st.composite
def reader_dfas(draw):
    alphabet = Alphabet(draw(st.sampled_from(["a", "ab", "abc"])))
    n = draw(st.integers(1, 5))
    delta = [[draw(st.integers(0, n - 1)) for _ in alphabet] for _ in range(n)]
    return Dfa(alphabet, n, delta, 0, draw(st.sets(st.integers(0, n - 1))))


@both_tries
@settings(max_examples=80, deadline=None)
@given(machine=reader_dfas(), n=st.integers(0, 6))
def test_extension_trie_over_a_stepped_reader_is_the_minimized_raw_trie(suffix, machine, n):
    base = stepped_dfa_reader(machine)
    for outer in (False, True):
        built = _extension_trie_dfa(base, "z", n, outer, suffix)
        assert built == minimized_raw_trie(base, "z", n, outer, suffix)


def test_tail_trie_budget_counts_the_outer_state(monkeypatch):
    # a unary base has n trie words below n, and the raw exploration holds
    # outer besides, so a budget of 16 fits n = 15 but not n = 16
    monkeypatch.setattr(automata, "STATE_BUDGET", 16)
    monkeypatch.setattr(approximations, "STATE_BUDGET", 16)
    unary = LanguageOracle("a-star", Alphabet("a"), lambda w: len(w) % 3 == 0)
    for outer in (False, True):
        machine = _extension_trie_dfa(unary, "c", 15, outer, suffix=False)
        assert machine == ref.tail_trie_dfa(unary, "c", 15, outer)
        base, asked = counting(unary)
        with pytest.raises(BudgetExceededError) as direct:
            _extension_trie_dfa(base, "c", 16, outer, suffix=False)
        assert asked == []
        # the raw exploration alone, past the trie-word pre-check
        monkeypatch.setattr(approximations, "STATE_BUDGET", 10 ** 6)
        with pytest.raises(BudgetExceededError) as raw:
            ref.tail_trie_dfa(unary, "c", 16, outer)
        monkeypatch.setattr(approximations, "STATE_BUDGET", 16)
        assert str(direct.value) == str(raw.value) == "automaton exceeds 16 reachable states"


@both_tries
def test_extension_trie_steps_each_node_once(suffix):
    # a trie node is a (depth, reader state) pair; each node above the
    # leaves is stepped once per base letter; a membership-only base, whose
    # reader state is the word, is asked about each trie word once, in
    # shortlex order
    steps = []
    dyck = semi_dyck().stepper

    def step(state, ch):
        steps.append((state, ch))
        return dyck.step(state, ch)

    base = LanguageOracle("dyck", AB, stepper=Stepper(dyck.start, step, dyck.accepting))
    for n in range(8):
        nodes = [{reduce(dyck.step, w, dyck.start) for w in enumerate_words(AB, depth)}
                 for depth in range(n - 1)]
        for outer in (False, True):
            del steps[:]
            machine = _extension_trie_dfa(base, "c", n, outer, suffix)
            assert machine == _extension_trie_dfa(semi_dyck(), "c", n, outer, suffix)
            assert Counter(steps) == Counter((s, ch) for layer in nodes for s in layer for ch in "ab")
            words, asked = counting(semi_dyck())
            assert _extension_trie_dfa(words, "c", n, outer, suffix) == machine
            assert asked == [w for length in range(n) for w in enumerate_words(AB, length)]


@pytest.mark.parametrize("build", [suffix_extension_family, prefix_extension_family])
def test_extension_families_reject_negative_bounds(build):
    fam = build(semi_dyck(), "c")
    for generator in (fam.inner, fam.outer):
        with pytest.raises(ValueError):
            generator(-1)


def test_infix_family_rejects_negative_parameter(monkeypatch):
    monkeypatch.setattr(approximations, "MEMBER_SEARCH_LENGTH", 4)
    for base in (semi_dyck(), LanguageOracle("nothing", AB, lambda w: False)):
        fam = infix_extension_family(base, "c")
        for generator in (fam.inner, fam.outer):
            if generator is not None:
                with pytest.raises(ValueError):
                    generator(-7)
                generator(0)
