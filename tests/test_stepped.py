"""Stepped oracles: each stepper against its word-at-a-time definition, and
the stepped census and pair search against the same oracle with its
stepper removed, which is read by its word reader."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_languages as ref
from regdensity import (
    Alphabet,
    ApproxFamily,
    Dfa,
    LanguageOracle,
    census_by_enumeration,
    count_eq,
    gap_report,
    goldstine,
    infix_extension,
    kemp,
    majority,
    o3,
    o4,
    palindromes,
    prefix_extension,
    primitive,
    semi_dyck,
    suffix_extension,
    suffix_extension_family,
    verify_containment,
)
from regdensity.approximations import ends_with_letter_dfa, family, goldstine_inner_dfa


def stepped_oracles():
    dyck = semi_dyck()
    return [
        dyck,
        count_eq(),
        majority(1),
        majority(3),
        o3(),
        o4(),
        goldstine(),
        suffix_extension(dyck, "c"),
        prefix_extension(dyck, "c"),
        infix_extension(dyck, "c"),
        suffix_extension(goldstine(), "c"),
        infix_extension(majority(1), "c"),
        prefix_extension(suffix_extension(dyck, "c"), "d"),
        # extensions of word-walked bases, read over the base's word reader
        suffix_extension(palindromes(), "c"),
        prefix_extension(primitive(), "c"),
        infix_extension(palindromes(), "c"),
        kemp(),
    ]


ORACLES = {oracle.name: oracle for oracle in stepped_oracles()}
# the command line's stepped oracles and families are compared on every word
# up to length 12 (8 over four letters); the other compositions up to 9
EXHAUSTIVE_LENGTH = {
    "suffix-ext:goldstine:c": 9,
    "infix-ext:majority:1:c": 9,
    "prefix-ext:suffix-ext:dyck:c:d": 7,
    "prefix-ext:primitive:c": 9,
    "infix-ext:pal:c": 9,
    "o4": 8,
}


def unstepped(oracle):
    """The same language, asked word by word."""
    return LanguageOracle(oracle.name, oracle.alphabet, oracle.membership)


def test_reference_covers_every_stepped_oracle():
    assert sorted(ORACLES) == sorted(ref.BY_SPEC)
    assert all(oracle.stepper is not None for oracle in ORACLES.values())


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_stepper_agrees_with_word_definition(name):
    # depth first, stepping each word's state from its parent's
    oracle, reference = ORACLES[name], ref.BY_SPEC[name]
    start, step, accepting = oracle.stepper
    symbols = oracle.alphabet.symbols
    max_length = EXHAUSTIVE_LENGTH.get(name, 12)
    stack = [("", start)]
    while stack:
        word, state = stack.pop()
        verdict = accepting(state)
        assert type(verdict) is bool and verdict == reference(word), word
        if len(word) < max_length:
            stack.extend((word + ch, step(state, ch)) for ch in symbols)


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_complement_keeps_the_stepper(name):
    oracle = ORACLES[name]
    negated = oracle.complement()
    assert negated.stepper is not None and negated.stepper.start == oracle.stepper.start
    max_length = 6 if len(oracle.alphabet) <= 3 else 4
    census = census_by_enumeration(oracle, max_length).counts
    negated_census = census_by_enumeration(negated, max_length).counts
    size = len(oracle.alphabet)
    assert [a + b for a, b in zip(census, negated_census)] == [
        size ** n for n in range(max_length + 1)
    ]


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_stepped_census_equals_word_census(name):
    oracle = ORACLES[name]
    max_length = {2: 14, 3: 8, 4: 6}[len(oracle.alphabet)]
    by_states = census_by_enumeration(oracle, max_length)
    by_words = census_by_enumeration(unstepped(oracle), max_length)
    assert by_states == by_words


def test_oracle_needs_exactly_one_definition():
    with pytest.raises(ValueError):
        LanguageOracle("none", Alphabet("ab"))
    with pytest.raises(ValueError):
        LanguageOracle("both", Alphabet("ab"), semi_dyck().membership, stepper=semi_dyck().stepper)


def test_extensions_of_word_walked_bases_are_stepped():
    for whole in (palindromes(), primitive()):
        assert whole.stepper is None and whole.complement().stepper is None
        for extend in (suffix_extension, prefix_extension, infix_extension):
            assert extend(whole, "c").stepper is not None
    suff = suffix_extension(palindromes(), "c")
    assert suff("abac") and not suff("abc") and not suff("ab")


# -- pair search against the word walk ------------------------------------------

@st.composite
def small_dfas(draw, alphabet):
    n = draw(st.integers(1, 5))
    delta = [[draw(st.integers(0, n - 1)) for _ in alphabet] for _ in range(n)]
    return Dfa(alphabet, n, delta, 0, draw(st.sets(st.integers(0, n - 1))))


# machines that hold for a target (inner, outer), so that a random machine
# mixed into them fails late or not at all
def _holding(name):
    ab = Alphabet("ab")
    if name == "goldstine":
        return goldstine_inner_dfa(3), ends_with_letter_dfa("b", ab)
    if name in ("o3", "o4", "counteq:a,b"):
        return None, family({"counteq:a,b": "modk"}.get(name, name)).outer(3)
    if name == "suffix-ext:dyck:c":
        fam = suffix_extension_family(semi_dyck(), "c")
        return fam.inner(3), fam.outer(3)
    return None, None


@st.composite
def claims(draw, alphabet, name):
    machine = draw(small_dfas(alphabet))
    inner, outer = _holding(name)
    direction = draw(st.sampled_from(("inner", "outer")))
    holding = inner if direction == "inner" else outer
    if holding is not None and draw(st.booleans()):
        # inner: adding words may break it; outer: removing words may
        machine = holding.union(machine) if direction == "inner" else holding.intersection(machine)
    return machine, direction


@st.composite
def containment_cases(draw):
    name = draw(st.sampled_from(sorted(ORACLES)))
    oracle = ORACLES[name]
    if draw(st.booleans()):
        oracle = oracle.complement()
    machine, direction = draw(claims(oracle.alphabet, name))
    max_length = draw(st.integers(0, {2: 10, 3: 6, 4: 5}[len(oracle.alphabet)]))
    return oracle, machine, direction, max_length


@settings(max_examples=150, deadline=None)
@given(containment_cases())
def test_pair_search_counterexample_equals_word_walk(case):
    oracle, machine, direction, max_length = case
    assert verify_containment(machine, oracle, direction, max_length) == verify_containment(
        machine, unstepped(oracle), direction, max_length
    )


@st.composite
def gap_cases(draw):
    name = draw(st.sampled_from(sorted(ORACLES)))
    oracle = ORACLES[name]
    n_ks = draw(st.integers(1, 4))

    def machines(direction):
        if not draw(st.booleans()):
            return None
        drawn = []
        for _ in range(n_ks):
            machine, _ = draw(claims(oracle.alphabet, name).filter(lambda c: c[1] == direction))
            drawn.append(machine)
        return drawn.__getitem__

    fam = ApproxFamily("case", oracle, inner=machines("inner"), outer=machines("outer"))
    max_length = draw(st.integers(0, {2: 9, 3: 5, 4: 4}[len(oracle.alphabet)]))
    return fam, list(range(n_ks)), max_length


@settings(max_examples=80, deadline=None)
@given(gap_cases())
def test_multi_check_gap_report_equals_word_walk(case):
    fam, ks, max_length = case
    stepped = gap_report(fam, ks, max_length)
    walked = gap_report(dataclasses.replace(fam, target=unstepped(fam.target)), ks, max_length)
    assert stepped == walked


def test_pair_search_finds_the_least_counterexample_past_shorter_words():
    # goldstine's outer machine A*b minus the words starting with aaa: the
    # members it loses start with aaa and end in b, the least being aaab
    ab = Alphabet("ab")
    starts_aaa = Dfa(ab, 5, [[1, 4], [2, 4], [3, 4], [3, 3], [4, 4]], 0, {3})
    lossy = ends_with_letter_dfa("b", ab).difference(starts_aaa)
    for target in (goldstine(), unstepped(goldstine())):
        assert verify_containment(lossy, target, "outer", 3) is None
        assert verify_containment(lossy, target, "outer", 12) == "aaab"


def two_state_machines(alphabet):
    """k -> a two-state parity machine over the alphabet, shifted by k."""
    def build(k):
        size = len(alphabet)
        return Dfa(alphabet, 2, [[(q + a + k) % 2 for a in range(size)] for q in range(2)], 0, {1})

    return build


def test_stepped_targets_are_never_asked_about_words():
    # census, containment and gap reports read the stepper alone
    def refuse(word):
        raise AssertionError("asked about %r" % word)

    for oracle in (goldstine(), suffix_extension(semi_dyck(), "c"), o3().complement()):
        oracle.membership = refuse
        machines = two_state_machines(oracle.alphabet)
        census_by_enumeration(oracle, 6)
        gap_report(ApproxFamily("refuse", oracle, inner=machines, outer=machines), [1, 2], 6)
        verify_containment(machines(1), oracle, "inner", 6)
