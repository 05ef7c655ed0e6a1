"""Tests for alphabets, shortlex enumeration, and exact censuses."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from regdensity import (
    Alphabet,
    BudgetExceededError,
    LengthCensus,
    census_by_enumeration,
    enumerate_words,
    ratio_and_cesaro,
)
from regdensity.core import Stepper, layers, reader
from regdensity.languages import (
    DiagonalLanguage,
    kemp,
    majority,
    o3,
    palindromes,
    primitive,
    semi_dyck,
)


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet("")
    with pytest.raises(ValueError):
        Alphabet("aba")
    with pytest.raises(ValueError):
        Alphabet(["ab"])
    a = Alphabet("ba")
    assert a.rank("b") == 0 and a.rank("a") == 1 and a.ranks("ab") == (1, 0)
    # a symbol outside raises rank's ValueError from every lookup by rank,
    # and from the diagonal language, which compares shortlex keys
    for call in (a.rank, a.ranks, a.shortlex_key, DiagonalLanguage().membership):
        with pytest.raises(ValueError, match="'c' not in"):
            call("c")


def test_shortlex_uses_declaration_order_not_ascii():
    a = Alphabet("ba")
    words = sorted(["a", "b", "aa", "ba"], key=a.shortlex_key)
    assert words == ["b", "a", "ba", "aa"]


def test_enumerate_words_examples():
    ab = Alphabet("ab")
    assert enumerate_words(ab, 2) == ["aa", "ab", "ba", "bb"]
    assert enumerate_words(ab, 0) == [""]
    assert enumerate_words(Alphabet("abc"), 1) == ["a", "b", "c"]


def test_enumerate_words_count_distinct_sorted():
    abc = Alphabet("abc")
    for n in range(5):
        words = enumerate_words(abc, n)
        assert len(words) == 3 ** n
        assert len(set(words)) == len(words)
        assert words == sorted(words, key=abc.shortlex_key)
        assert sorted(words, key=abc.shortlex_key) == words  # idempotent


def test_census_validation():
    with pytest.raises(ValueError):
        LengthCensus(2, [1, 3])
    with pytest.raises(ValueError):
        LengthCensus(0, [1])
    LengthCensus(2, [1, 2, 4])


def test_ratio_and_cesaro_even_lengths():
    census = LengthCensus(2, [1, 0, 4, 0, 16])
    ratios, cesaro = ratio_and_cesaro(census)
    assert ratios == [1, 0, 1, 0, 1]
    assert cesaro[0] is None
    assert cesaro[4] == Fraction(1, 2)


def test_ratio_and_cesaro_empty_language():
    ratios, cesaro = ratio_and_cesaro(LengthCensus(2, [0] * 6))
    assert all(r == 0 for r in ratios)
    assert all(c == 0 for c in cesaro[1:])


def test_ratio_and_cesaro_first_letter_language():
    counts = [0] + [2 ** (n - 1) for n in range(1, 9)]
    ratios, cesaro = ratio_and_cesaro(LengthCensus(2, counts))
    assert ratios[1:] == [Fraction(1, 2)] * 8
    assert cesaro[8] == Fraction(7, 16)


def test_cesaro_is_exact_prefix_mean():
    rng = random.Random(7)
    counts = [rng.randint(0, 2 ** n) for n in range(10)]
    census = LengthCensus(2, counts)
    ratios, cesaro = ratio_and_cesaro(census)
    for n in range(1, len(ratios)):
        assert n * cesaro[n] == sum(ratios[:n])
        assert 0 <= ratios[n] <= 1
        assert 0 <= cesaro[n] <= 1


def test_census_by_enumeration_examples():
    assert census_by_enumeration(semi_dyck(), 4).counts[4] == 2
    assert census_by_enumeration(primitive(), 4).counts[4] == 12
    assert census_by_enumeration(majority(1), 3).counts[3] == 4


def test_census_by_enumeration_deterministic():
    first = census_by_enumeration(semi_dyck(), 8)
    second = census_by_enumeration(semi_dyck(), 8)
    assert first == second


def test_census_budget_guard():
    with pytest.raises(BudgetExceededError):
        census_by_enumeration(semi_dyck(), 30)
    with pytest.raises(BudgetExceededError):
        census_by_enumeration(semi_dyck(), 8, budget=100)


@pytest.mark.parametrize(
    "oracle, max_length",
    [(semi_dyck(), 10), (majority(2), 10), (o3(), 6), (kemp(), 7), (palindromes(), 8)],
    ids=lambda case: getattr(case, "name", str(case)),
)
def test_layers_step_each_state_once_per_letter_and_count_every_word(oracle, max_length):
    steps = []
    start, step, accepting = reader(oracle)

    def counted(state, ch):
        steps.append((state, ch))
        return step(state, ch)

    symbols = oracle.alphabet.symbols
    walk = layers(Stepper(start, counted, accepting), symbols, max_length)
    for length, layer in enumerate(walk):
        # a layer is stepped before it is yielded, the last one not at all
        leaf = length == max_length
        assert Counter(steps) == Counter((s, ch) for s in layer for ch in symbols if not leaf)
        for s, (_, children) in layer.items():
            assert children == (() if leaf else tuple(step(s, ch) for ch in symbols))
        assert sum(m for m, _ in layer.values()) == len(symbols) ** length
        del steps[:]
    assert length == max_length
