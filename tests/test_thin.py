"""Thin-side oracles: each thin generator against the filtered enumeration,
and the thin census and checks against the same oracle with its thin side
removed, which is asked word by word."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regdensity import (
    Alphabet,
    ApproxFamily,
    Dfa,
    LanguageOracle,
    Morphism,
    census_by_enumeration,
    coprefix,
    diagonal,
    enumerate_words,
    gap_report,
    is_primitive,
    palindromes,
    primitive,
    verify_containment,
)
from regdensity.approximations import nonpalindrome_window_dfa
from regdensity.core import ThinSide
from regdensity.languages import palindrome_words, proper_powers

AB = Alphabet("ab")
BA = Alphabet("ba")
CAB = Alphabet("cab")


def _pal_over(alphabet):
    thin = ThinSide(True, palindrome_words(alphabet))
    return LanguageOracle("pal-" + "".join(alphabet), alphabet, lambda w: w == w[::-1], thin=thin)


def _primitive_over(alphabet):
    thin = ThinSide(False, proper_powers(alphabet))
    return LanguageOracle("primitive-" + "".join(alphabet), alphabet, is_primitive, thin=thin)


DIAGONAL = diagonal()  # one program, so its picks are computed once
ORACLES = {
    oracle.name: oracle
    for oracle in (
        palindromes(),
        primitive(),
        coprefix(Morphism(AB, {"a": "ab", "b": "a"}), "a"),
        DIAGONAL,
        _pal_over(BA),
        _primitive_over(BA),
        _pal_over(CAB),
        _primitive_over(CAB),
    )
}
# the Fibonacci word's coprefix in the declared order b < a
ORACLES["coprefix-ba"] = coprefix(Morphism(BA, {"b": "ba", "a": "b"}), "b")
EXHAUSTIVE_LENGTH = {"diagonal": 12, "pal-cab": 8, "primitive-cab": 8}


def membership_only(oracle):
    """The same language, asked word by word."""
    return LanguageOracle(oracle.name, oracle.alphabet, oracle.membership)


@pytest.mark.parametrize("name", sorted(ORACLES))
@pytest.mark.parametrize("negate", [False, True], ids=["oracle", "complement"])
def test_thin_words_equal_the_filtered_enumeration(name, negate):
    oracle = ORACLES[name].complement() if negate else ORACLES[name]
    thin = oracle.thin
    for n in range(EXHAUSTIVE_LENGTH.get(name, 14) + 1):
        side = [w for w in enumerate_words(oracle.alphabet, n) if oracle(w) == thin.members]
        assert list(thin.words(n)) == side, n


def test_thin_census_and_sparse_checks_ask_no_word():
    # the census and the checks on the thin side never ask the membership
    def refuse(word):
        raise AssertionError("asked about %r" % word)

    for oracle in ORACLES.values():
        for target in (oracle, oracle.complement()):
            refusing = LanguageOracle(target.name, target.alphabet, refuse, thin=target.thin)
            census_by_enumeration(refusing, 8)
            everything = Dfa(target.alphabet, 1, [[0] * len(target.alphabet)], 0, {0})
            sparse = "outer" if target.thin.members else "inner"
            verify_containment(everything, refusing, sparse, 8)


# -- the thin path against the word reader -------------------------------------

# (oracle name, complemented) -> a machine whose inner claim holds, so that
# a random machine intersected with it fails late or not at all
HOLDING = {
    ("pal", True): nonpalindrome_window_dfa(2),
    # exactly one a: never a proper power
    ("primitive", False): Dfa(AB, 3, [[1, 0], [2, 1], [2, 2]], 0, {1}),
}


def _at_least(alphabet, length):
    """The words of at least the given length."""
    delta = [[min(q + 1, length)] * len(alphabet) for q in range(length + 1)]
    return Dfa(alphabet, length + 1, delta, 0, {length})


@st.composite
def small_dfas(draw, alphabet):
    n = draw(st.integers(1, 6))
    delta = [[draw(st.integers(0, n - 1)) for _ in alphabet] for _ in range(n)]
    return Dfa(alphabet, n, delta, 0, draw(st.sets(st.integers(0, n - 1))))


@st.composite
def thin_cases(draw):
    name = draw(st.sampled_from(sorted(ORACLES)))
    negate = draw(st.booleans())
    oracle = ORACLES[name].complement() if negate else ORACLES[name]
    holding = HOLDING.get((name, negate))

    def machine(direction):
        drawn = draw(small_dfas(oracle.alphabet))
        if holding is not None and direction == "inner" and draw(st.booleans()):
            drawn = holding.intersection(drawn)
        # settle every word shorter than a floor, so counterexamples come later
        floor = _at_least(oracle.alphabet, draw(st.integers(0, 7)))
        if direction == "inner":
            return drawn.intersection(floor)
        return drawn.union(floor.complement())

    n_ks = draw(st.integers(1, 3))
    machines = {d: [machine(d) for _ in range(n_ks)] for d in ("inner", "outer")}
    inner = machines["inner"].__getitem__ if draw(st.booleans()) else None
    outer = machines["outer"].__getitem__ if inner is None or draw(st.booleans()) else None
    fam = ApproxFamily("case", oracle, inner=inner, outer=outer)
    max_length = draw(st.integers(0, 8 if len(oracle.alphabet) > 2 else 11))
    return fam, machines, list(range(n_ks)), max_length


@settings(max_examples=200, deadline=None)
@given(thin_cases())
def test_thin_path_equals_the_word_reader(case):
    fam, machines, ks, max_length = case
    oracle = fam.target
    words = membership_only(oracle)
    assert census_by_enumeration(oracle, max_length) == census_by_enumeration(words, max_length)
    for direction in ("inner", "outer"):  # one sparse, one thick
        for machine in machines[direction]:
            assert verify_containment(machine, oracle, direction, max_length) == (
                verify_containment(machine, words, direction, max_length)
            )
    # the thick checks of a report ask a thin target about each word once
    asked = []

    def member(word):
        asked.append(word)
        return oracle.membership(word)

    recorded = LanguageOracle(oracle.name, oracle.alphabet, member, thin=oracle.thin)
    report = gap_report(dataclasses.replace(fam, target=recorded), ks, max_length)
    assert report == gap_report(dataclasses.replace(fam, target=words), ks, max_length)
    assert len(asked) == len(set(asked))
