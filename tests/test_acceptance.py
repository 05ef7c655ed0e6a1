"""Acceptance suite: runs every verification criterion at its stated
tolerance and prints one pass/fail line per criterion.

Two spot checks are knowingly unattainable at their stated cutoffs and are
kept faithful rather than loosened; exact values appear in their failure
messages (see also the README's verification notes):

* o3-null-spotcheck-n18 — the length-18 acceptance ratio of the o3 language
  is 23717494/129140163 ~ 0.1837, which is not below 1/10.
* majority2-ratio-24 — the length-24 acceptance ratio of majority:2 is
  536155/16777216 ~ 0.0320, which is not below 1/50.
"""

import pytest

from regdensity import Alphabet, DiagonalLanguage, LanguageOracle, Stepper, enumerate_words
from regdensity.checks import AB, CRITERIA, _disagreement
from regdensity.languages import goldstine, is_primitive, semi_dyck, staircase_word_prefix

_FUNCTIONS = {name: function for name, _tags, function in CRITERIA}
_ORDER = [name for name, _tags, _fn in CRITERIA]


@pytest.mark.parametrize("criterion", _ORDER)
def test_acceptance(criterion):
    items = _FUNCTIONS[criterion]()
    failures = [item for item in items if not item.passed]
    status = "PASS" if not failures else "FAIL"
    print("ACCEPTANCE %s: %s (%d checks)" % (criterion, status, len(items)))
    for item in items:
        print("  [%s] %s %s" % ("ok" if item.passed else "FAIL", item.label, item.detail))
    assert not failures, "; ".join(
        "%s [%s]" % (item.label, item.detail) for item in failures
    )


def disagreement_word_by_word(first, second, max_length):
    """``_disagreement`` asking both predicates about each word in turn."""
    for n in range(max_length + 1):
        for word in enumerate_words(AB, n):
            if first(word) != second(word):
                return word
    return None


def test_disagreement_steps_an_oracle_once_per_word(monkeypatch):
    # the coprefix identity of the goldstine check, then with one word
    # flipped: the stepped oracle is read by its states alone, never asked
    # about a word, and the flipped word is found on either side
    prefixes = {staircase_word_prefix(12)[:i] for i in range(13)}

    def identity(word):
        return word not in prefixes and word.endswith("b")

    def flipped(word):
        return identity(word) != (word == "aabab")

    target = goldstine()
    with monkeypatch.context() as patch:
        patch.setattr(LanguageOracle, "__call__", None)
        assert _disagreement(identity, target, 12) is None
        assert _disagreement(flipped, target, 12) == "aabab"
        assert _disagreement(target, flipped, 12) == "aabab"
        assert _disagreement(target, target, 8) is None
    assert disagreement_word_by_word(flipped, target, 12) == "aabab"


@pytest.mark.parametrize(
    "first, second, max_length",
    [
        (lambda w: w.count("a") % 3 != 2, lambda w: "aba" not in w, 7),
        (lambda w: len(w) % 2 == 0, lambda w: w == w[::-1] or len(w) % 2 == 0, 6),
        (semi_dyck(), lambda w: w.count("a") == w.count("b"), 8),
        (semi_dyck(), semi_dyck().membership, 8),
        (
            lambda w: any(is_primitive(w[:i]) and is_primitive(w[i:]) for i in range(1, len(w))),
            lambda w: len(w) == 2 if len(set(w)) == 1 else len(w) >= 2,
            10,
        ),
    ],
)
def test_disagreement_matches_the_word_by_word_search(first, second, max_length):
    assert _disagreement(first, second, max_length) == disagreement_word_by_word(
        first, second, max_length
    )


def test_disagreement_of_the_diagonal_pair():
    program = DiagonalLanguage()
    accepted = program.accepted_words_up_to(5)
    assert _disagreement(program.membership, accepted.__contains__, 5) is None
    assert _disagreement(program.membership, accepted[1:].__contains__, 5) == accepted[0]


def test_disagreement_asks_an_oracle_over_other_letters_about_words():
    # the stepper of an oracle over a alone never sees b: the oracle itself
    # is asked, and refuses the first word with a b
    only_a = LanguageOracle("a*", Alphabet("a"), stepper=Stepper(0, lambda q, a: q, bool))
    with pytest.raises(ValueError, match="outside"):
        _disagreement(only_a, lambda w: False, 2)
