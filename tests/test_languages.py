"""Tests for the concrete language oracles and their counters."""

import hashlib
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regdensity import (
    Alphabet,
    BudgetExceededError,
    DiagonalLanguage,
    Morphism,
    census_by_enumeration,
    coprefix,
    count_eq,
    goldstine,
    infix_extension,
    is_primitive,
    kemp,
    kemp_base,
    majority,
    o3,
    o4,
    palindromes,
    prefix_extension,
    primitive,
    semi_dyck,
    suffix_extension,
)
from regdensity import languages
from reference_languages import is_primitive as is_primitive_by_divisors, o4_count
from regdensity.cli import load_family, load_oracle
from regdensity.languages import (
    dyck_count,
    majority_count,
    o3_count,
    primitive_count,
    staircase_word_prefix,
)

AB = Alphabet("ab")


def words_up_to(alphabet, max_length):
    for n in range(max_length + 1):
        for tup in itertools.product(alphabet.symbols, repeat=n):
            yield "".join(tup)


def test_semi_dyck_examples():
    d = semi_dyck()
    assert d("abab") and d("aabb") and d("")
    assert not d("ba") and not d("a") and not d("abb")


def test_count_eq():
    eq = count_eq()
    assert eq("") and eq("ab") and eq("baba")
    assert not eq("a") and not eq("aab")


def test_goldstine_examples():
    g = goldstine()
    assert g("b")
    assert not g("ab")
    assert not g("abaab")
    assert g("abab")
    assert not g("") and not g("a") and not g("aba")


def test_goldstine_reference_parser_agrees():
    g = goldstine()

    def reference(word):
        # slow two-pointer re-derivation: split into maximal a-blocks ending in b
        if not word.endswith("b"):
            return False
        blocks = word.split("b")[:-1]
        if any("b" in b for b in blocks):  # impossible by construction
            return False
        return any(len(block) != i for i, block in enumerate(blocks, start=1))

    for word in words_up_to(AB, 12):
        assert g(word) == reference(word)


def test_goldstine_coprefix_identity():
    g = goldstine()
    staircase = staircase_word_prefix(12)
    prefixes = {staircase[:i] for i in range(13)}
    for word in words_up_to(AB, 12):
        assert g(word) == (word not in prefixes and word.endswith("b"))


def test_kemp_membership():
    k = kemp()
    assert k("ac")
    assert k("abac")  # aba in S1
    assert k("abbaac")  # abbaa in S2
    assert not k("c") and not k("") and not k("bc")
    assert k("acba")  # tail after c is free


def test_kemp_sub_oracles():
    s1, s2 = languages._KEMP_S1.run, languages._KEMP_S2.run
    assert s1("a") and s2("a")
    assert s1("aba") and not s2("aba")
    assert s2("abba") and not s1("abba")
    assert s1("ababa") and s1("abbaa")
    assert s2("aabbbba") and not s2("aabbb")
    assert not s1("ab") and not s2("ab")
    base = kemp_base()
    counts = [sum(base(w) for w in ("".join(t) for t in itertools.product("ab", repeat=n))) for n in range(4)]
    assert counts == [0, 1, 1, 2]


def test_palindromes():
    p = palindromes()
    assert p("") and p("a") and p("abba") and p("aba")
    assert not p("ab")


def test_o3_o4_membership():
    assert o3()("b") and o3()("c") and not o3()("a")
    assert o3()("abc") and o3()("")
    assert o4()("x") and o4()("y")  # the other pair is balanced at zero
    assert not o4()("xy") and not o4()("xxyy")
    assert o4()("xXyy") and o4()("xxyY")


def test_primitivity():
    assert not is_primitive("")
    assert not is_primitive("aa") and is_primitive("ab")
    assert not is_primitive("abab") and is_primitive("aab")
    assert is_primitive("aabab")


@pytest.mark.parametrize("letters, bound", [("ab", 14), ("abc", 9)])
def test_primitivity_matches_prime_divisor_oracle(letters, bound):
    for word in words_up_to(Alphabet(letters), bound):
        assert is_primitive(word) == is_primitive_by_divisors(word), word


def test_counters_match_brute_force_binary():
    for oracle, counter, bound in (
        (semi_dyck(), dyck_count, 14),
        (primitive(), primitive_count, 14),
        (majority(1), lambda n: majority_count(n, 1), 14),
        (majority(2), lambda n: majority_count(n, 2), 12),
    ):
        census = census_by_enumeration(oracle, bound)
        assert census.counts == [counter(n) for n in range(bound + 1)]


def test_primitive_count_sums_to_every_word_over_the_divisors():
    # every non-empty word is a power of exactly one primitive root, whose
    # length divides the word's: Σ_{d | n} primitive_count(d) = 2^n
    assert primitive_count(0) == 0
    for n in range(1, 401):
        assert sum(primitive_count(d) for d in range(1, n + 1) if n % d == 0) == 2 ** n, n


def test_counters_match_brute_force_bigger_alphabets():
    census = census_by_enumeration(o3(), 9)
    assert census.counts == [o3_count(n) for n in range(10)]
    census = census_by_enumeration(o4(), 7)
    assert census.counts == [o4_count(n) for n in range(8)]


def test_majority_monotone():
    m1, m2 = majority(1), majority(2)
    for word in words_up_to(AB, 12):
        if m2(word):
            assert m1(word)


def test_primitive_square_identity():
    for length in range(1, 9):
        for tup in itertools.product("ab", repeat=length):
            word = "".join(tup)
            product_of_two = any(
                is_primitive(word[:i]) and is_primitive(word[i:])
                for i in range(1, length)
            )
            if len(set(word)) == 1:
                assert product_of_two == (length == 2)
            else:
                assert product_of_two


def test_morphism_validation():
    with pytest.raises(ValueError):
        Morphism(AB, {"a": "ab"})
    with pytest.raises(ValueError):
        Morphism(AB, {"a": "ab", "b": "a", "c": "a"})
    with pytest.raises(ValueError):
        Morphism(AB, {"a": "ax", "b": "a"})


def test_coprefix_oracle():
    fib = Morphism(AB, {"a": "ab", "b": "a"})
    oracle = coprefix(fib, "a")
    assert not oracle("") and not oracle("abaab")
    assert oracle("b") and oracle("aa")
    rejected = {w for w in words_up_to(AB, 5) if not oracle(w)}
    assert rejected == {"", "a", "ab", "aba", "abaa", "abaab"}


def test_coprefix_rejects_bad_morphisms():
    with pytest.raises(ValueError):
        coprefix(Morphism(AB, {"a": "b", "b": "a"}), "a")
    # b is mortal (its image is empty), and c is too (its image is b), so
    # each fixed point below is finite and the morphism is refused up front
    for images in ({"a": "ab", "b": ""}, {"a": "abc", "b": "", "c": "b"}):
        alphabet = Alphabet("".join(images))
        with pytest.raises(ValueError, match="finite"):
            coprefix(Morphism(alphabet, images), "a")


def test_coprefix_with_a_mortal_letter_and_an_infinite_fixed_point():
    # c is mortal but b is not: the fixed point is a b c (b c)^ω
    oracle = coprefix(Morphism(Alphabet("abc"), {"a": "abc", "b": "bc", "c": ""}), "a")
    assert not oracle("abcbcbcbc")
    assert oracle("abcbb") and oracle("abcc")


@settings(max_examples=200, deadline=None)
@given(st.text("ab", max_size=3), st.text("ab", max_size=3))
def test_coprefix_refuses_exactly_the_finite_fixed_points(tail, b_image):
    morphism = Morphism(AB, {"a": "a" + tail, "b": b_image})
    # iterating from a, the length stops growing within |A| + 1 rounds or
    # grows forever
    word = "a"
    for _ in range(4):
        word = morphism(word)
    finite = len(morphism(word)) == len(word)
    if not tail or finite:
        with pytest.raises(ValueError):
            coprefix(morphism, "a")
        return
    oracle = coprefix(morphism, "a")
    fixed_point = word
    while len(fixed_point) < 12:
        fixed_point = morphism(fixed_point)
    for n in range(12):
        assert not oracle(fixed_point[:n])


def test_extension_oracles():
    base = semi_dyck()
    suff = suffix_extension(base, "c")
    assert suff("abc") and suff("abcba") and suff("c")
    assert not suff("ab") and not suff("bac") and not suff("bca")
    pref = prefix_extension(base, "c")
    assert pref("cab") and pref("bacab") and pref("abc")
    assert not pref("ab") and not pref("cba")
    infix = infix_extension(base, "c")
    assert infix("cabc") and infix("bcabcb") and infix("cc")
    assert not infix("cab") and not infix("abc") and not infix("cbac")


def test_extension_letter_validation():
    with pytest.raises(ValueError):
        suffix_extension(semi_dyck(), "a")
    with pytest.raises(ValueError):
        suffix_extension(semi_dyck(), "cd")


@settings(max_examples=80, deadline=None)
@given(st.text(alphabet="abc", max_size=12))
def test_suffix_extension_against_direct_definition(word):
    base = semi_dyck()
    suff = suffix_extension(base, "c")
    direct = any(
        word[i] == "c" and "c" not in word[:i] and base(word[:i])
        for i in range(len(word))
    )
    assert suff(word) == direct


@settings(max_examples=80, deadline=None)
@given(st.text(alphabet="abc", max_size=12))
def test_prefix_extension_against_direct_definition(word):
    base = semi_dyck()
    pref = prefix_extension(base, "c")
    direct = any(
        word[i] == "c" and "c" not in word[i + 1 :] and base(word[i + 1 :])
        for i in range(len(word))
    )
    assert pref(word) == direct


def test_diagonal_language_properties():
    program = DiagonalLanguage()
    accepted = program.accepted_words_up_to(5)
    lengths = [len(w) for w in accepted]
    assert lengths == sorted(set(lengths))
    assert not program.membership("")
    first = accepted[0]
    assert first == "a"
    machine = program.escaped_machine(0)
    assert not machine.accepts(first)


def _digest(value):
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def test_diagonal_picks_and_escaped_machines_are_pinned():
    # the picks through length 255, the machines examined and every escaped
    # machine as (states, delta, accepting), pinned as digests
    program = DiagonalLanguage()
    words = program.accepted_words_up_to(255)
    escaped = [
        [m.n_states, [list(row) for row in m.delta], sorted(m.accepting)]
        for m in program._escaped_machines
    ]
    assert program._machines_examined == 278 and len(escaped) == 256
    assert [len(w) for w in words] == list(range(1, 256))
    assert words[28] == "b" * 29 and escaped[28] == [2, [[1, 0], [1, 1]], [1]]
    assert _digest(words) == "06cca95d2aaa0fc44ab3f59a410b1438dad8b77caf98f2e5e558c7713b80e77b"
    assert _digest(escaped) == "6dc6e333d178db3372a011b1590d1115bbd8560c23bf43329dc1e3ab57f4e6f9"


def test_diagonal_budget_errors(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(languages, "DIAGONAL_MAX_MACHINES", 0)
        with pytest.raises(BudgetExceededError):
            DiagonalLanguage().membership("a")
    with monkeypatch.context() as patch:
        patch.setattr(languages, "DIAGONAL_MAX_WORD_LENGTH", 0)
        with pytest.raises(BudgetExceededError):
            DiagonalLanguage().membership("a")


def test_module_counter_and_oracle_complement():
    assert dyck_count(6) == 5
    assert not hasattr(semi_dyck(), "counts")
    negated = semi_dyck().complement()
    assert negated("ba") and not negated("ab")


CLI_ORACLES = (
    "dyck", "counteq:a,b", "pal", "o3", "o4", "goldstine", "kemp", "majority:2",
    "primitive", "coprefix:a=ab,b=a", "suffix-ext:dyck:c", "diagonal",
)


@pytest.mark.parametrize(
    "kind, spec",
    [("oracle", spec) for spec in CLI_ORACLES]
    + [("family", spec) for spec in (
        "modk", "pal", "goldstine", "o3", "o4",
        "suffix-ext:dyck:c", "prefix-ext:dyck:c", "infix-ext:dyck:c",
    )],
)
def test_membership_answers_exact_bools(kind, spec):
    # censuses sum membership answers and containment checks compare them
    # with >, so every oracle must answer exactly True or False
    oracle = load_oracle(spec) if kind == "oracle" else load_family(spec).target
    max_length = 6 if len(oracle.alphabet) <= 3 else 4
    for word in words_up_to(oracle.alphabet, max_length):
        assert type(oracle.membership(word)) is bool, word


@pytest.mark.parametrize("spec", CLI_ORACLES + ("prefix-ext:primitive:c",))
def test_words_with_foreign_letters_are_refused(spec):
    # a stepper or a word predicate reads an unknown letter as some other
    # one, or fails on it with a KeyError: the oracle refuses the word first
    oracle = load_family(spec).target if spec.startswith("prefix") else load_oracle(spec)
    first = oracle.alphabet.symbols[0]
    foreign = next(ch for ch in "cz" if ch not in oracle.alphabet)
    assert type(oracle(first * 2)) is bool
    for word in (foreign, first + foreign, foreign * 2 + first):
        with pytest.raises(ValueError, match="outside"):
            oracle(word)
