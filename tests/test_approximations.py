"""Tests for the approximation families, containment checks, and gap reports."""

import itertools
import random
from fractions import Fraction

import pytest

from regdensity import (
    Alphabet,
    ApproxFamily,
    BudgetExceededError,
    Dfa,
    LanguageOracle,
    count_eq,
    density,
    family,
    gap_report,
    goldstine,
    infix_extension_family,
    is_subset,
    majority_escape_witness,
    mod_counter_dfa,
    prefix_extension_family,
    random_dfa,
    semi_dyck,
    suffix_extension_family,
    verify_containment,
)
from regdensity.approximations import (
    contains_factor_dfa,
    ends_with_letter_dfa,
    goldstine_inner_dfa,
    nonpalindrome_window_dfa,
    suffix_inner_dfa,
    suffix_outer_dfa,
)
from regdensity.languages import kemp_base

AB = Alphabet("ab")


def test_modk_family_claims():
    fam = family("modk")
    for k in (3, 5, 7):
        outer = fam.outer(k)
        assert density(outer) == fam.outer_claim(k) == Fraction(1, k)
    assert fam.outer_claim(4) is None
    # densities still computable for even parameters
    assert density(mod_counter_dfa(2)) == Fraction(1, 2)
    assert density(mod_counter_dfa(4)) == Fraction(3, 4)


def test_pal_family_claims():
    fam = family("pal")
    for k in (1, 2, 3, 4):
        assert density(fam.inner(k)) == fam.inner_claim(k) == 1 - Fraction(1, 2 ** k)


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


def test_goldstine_family_claims():
    fam = family("goldstine")
    for k in (1, 2, 5):
        assert density(fam.inner(k)) == fam.inner_claim(k)
        assert density(fam.outer(k)) == Fraction(1, 2)


def test_goldstine_inner_language_matches_definition():
    from regdensity.languages import staircase_word_prefix

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
        assert di == fam.inner_claim(n)
        assert do == fam.outer_claim(n)
        assert do - di == Fraction(2, 3) ** n


@pytest.mark.parametrize("build", [suffix_extension_family, prefix_extension_family])
def test_extension_family_claims_from_zero(build):
    # at n=0 no cylinder is picked: inner is empty, outer is every word
    fam = build(semi_dyck(), "c")
    for n in range(5):
        inner, outer = fam.inner(n), fam.outer(n)
        assert density(inner) == fam.inner_claim(n)
        assert density(outer) == fam.outer_claim(n)
        assert is_subset(inner, outer)
    assert density(fam.inner(0)) == 0 and density(fam.outer(0)) == 1


def test_suffix_family_respects_target():
    fam = suffix_extension_family(kemp_base(), "c")
    for n in (1, 3, 5):
        assert verify_containment(fam.inner(n), fam.target, "inner", 8) is None
        assert verify_containment(fam.outer(n), fam.target, "outer", 8) is None


def test_prefix_family_by_reversal():
    base = LanguageOracle("ends-a", AB, lambda w: w.endswith("a"))
    fam = prefix_extension_family(base, "c")
    assert density(fam.inner(3)) == fam.inner_claim(3) == Fraction(5, 27)
    assert density(fam.outer(3)) == fam.outer_claim(3) == Fraction(13, 27)
    for n in (1, 2, 4):
        assert verify_containment(fam.inner(n), fam.target, "inner", 7) is None
        assert verify_containment(fam.outer(n), fam.target, "outer", 7) is None


def test_infix_family():
    unary = LanguageOracle("a-star", Alphabet("a"), lambda w: True)
    fam = infix_extension_family(unary, "c")
    assert density(fam.inner(1)) == 1
    assert fam.outer is None
    assert verify_containment(fam.inner(1), fam.target, "inner", 8) is None
    empty = LanguageOracle("nothing", AB, lambda w: False)
    fam = infix_extension_family(empty, "c", member_search_length=5)
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
        verify_containment(mod_counter_dfa(3, loops=("c",)), semi_dyck(), "inner", 4)
    with pytest.raises(BudgetExceededError):
        verify_containment(mod_counter_dfa(3), semi_dyck(), "inner", 30)


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


def test_suffix_trie_budget():
    with pytest.raises(BudgetExceededError):
        suffix_inner_dfa(semi_dyck(), "c", 10, state_budget=100)
    with pytest.raises(BudgetExceededError):
        suffix_outer_dfa(semi_dyck(), "c", 10, state_budget=100)


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
