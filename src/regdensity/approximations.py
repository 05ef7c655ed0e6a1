"""Parameterized regular approximation families with exact densities,
containment verification against membership oracles, and gap reports.

Each family pairs a target oracle with inner (subset) and/or outer
(superset) DFA generators.  A missing inner generator contributes density 0
(the empty language) and a missing outer generator density 1 (all words);
claimed densities, where a closed form exists, must match the engine's
exact value with zero tolerance.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress
from math import isqrt
from operator import gt
from typing import Callable, Optional

from .automata import STATE_BUDGET, Dfa, build_dfa, least_word, mod_counter_dfa, reverse
from .core import (
    Alphabet,
    BudgetExceededError,
    LengthCensus,
    check_enumeration_budget,
    count_by_states,
    count_members,
    enumerate_words,
    ratio_and_cesaro,
)
from .density import density
from .languages import (
    LanguageOracle,
    count_eq,
    goldstine,
    infix_extension,
    o3,
    o4,
    palindromes,
    prefix_extension,
    reader,
    suffix_extension,
)
from .monoid import transition_monoid

MEMBER_SEARCH_LENGTH = 12  # longest base word the infix family looks for


@dataclass(frozen=True)
class ApproxFamily:
    """Inner/outer DFA generators converging to a target oracle."""

    name: str
    target: LanguageOracle
    inner: Optional[Callable[[int], Dfa]] = None
    outer: Optional[Callable[[int], Dfa]] = None
    inner_claim: Optional[Callable[[int], Optional[Fraction]]] = None
    outer_claim: Optional[Callable[[int], Optional[Fraction]]] = None


@dataclass(frozen=True)
class GapRow:
    k: int
    inner_density: Fraction
    outer_density: Fraction
    gap: Fraction
    inner_counterexample: Optional[str]
    outer_counterexample: Optional[str]

    @property
    def containment_ok(self):
        return self.inner_counterexample is None and self.outer_counterexample is None


@dataclass(frozen=True)
class GapReport:
    family: str
    rows: tuple
    target_cesaro: tuple


# -- generators ---------------------------------------------------------------

def ends_with_letter_dfa(letter, alphabet):
    """Words whose last letter is the given one: the state is whether the
    last letter read was it."""
    return build_dfa(alphabet, False, lambda last: [ch == letter for ch in alphabet], bool)


def empty_language_dfa(alphabet):
    return build_dfa(alphabet, 0, lambda q: [q] * len(alphabet), bool)


def _matcher_rows(pattern, symbols):
    """Knuth-Morris-Pratt matcher: row j (j pattern letters matched) gives,
    per letter, the length of the longest pattern prefix that ends the text
    read so far.  Row len(pattern) continues past a full match."""
    rank = {ch: a for a, ch in enumerate(symbols)}
    rows = []
    restart = 0  # the row of the longest proper border of pattern[:j]
    for j in range(len(pattern) + 1):
        row = list(rows[restart]) if j else [0] * len(symbols)
        if j < len(pattern):
            a = rank[pattern[j]]
            row[a] = j + 1
            if j:
                restart = rows[restart][a]
        rows.append(row)
    return rows


def contains_factor_dfa(pattern, alphabet):
    """Words containing the pattern as a factor (the Knuth-Morris-Pratt
    matcher, absorbing once the pattern is found)."""
    m = len(pattern)
    rows = _matcher_rows(pattern, alphabet.symbols)
    rows[m] = [m] * len(alphabet)
    return build_dfa(alphabet, 0, rows.__getitem__, lambda j: j == m)


def _staircase_letter(j):
    """Letter j (from 0) of the staircase word a b aa b aaa b ...: block i
    ends with its b at position i(i+3)/2 - 1, that is where 8j + 17 is a
    square."""
    d = 8 * j + 17
    return "b" if isqrt(d) ** 2 == d else "a"


def goldstine_inner_dfa(k):
    """Words of the block language whose first k letters already diverge
    from the staircase word and whose last letter is b.

    The state is (letters read, diverged) while at most k letters are read,
    then the last letter read, or ``None`` (dead) once the first k letters
    were the staircase prefix.
    """
    if k < 1:
        raise ValueError("prefix length must be at least 1")

    def successors(state):
        if type(state) is not tuple:
            return ("a", "b") if state else (None, None)
        j, diverged = state
        if j == k:
            return ("a", "b")
        row = [(j + 1, diverged or ch != _staircase_letter(j)) for ch in "ab"]
        return [None if t == (k, False) else t for t in row]

    return build_dfa(Alphabet("ab"), (0, False), successors, lambda state: state == "b")


def nonpalindrome_window_dfa(k):
    """Words over {a, b} of length >= 2k whose last k letters do not mirror
    the first k.

    Realised as a memory of the prefix read so far and then, once it has k
    letters p, a state (p, e, j): e letters read beyond p (saturating at k)
    and the Knuth-Morris-Pratt matcher state j of those letters against
    reverse(p); the result is minimized.  The budget bounds the equivalent
    sliding-window machine (prefix memory, window of the last k letters and
    counter), decided without computing its size once 2^k alone is past it.
    """
    if k < 1:
        raise ValueError("window length must be at least 1")
    if k >= STATE_BUDGET.bit_length() or 2 ** k - 1 + 4 ** k * (k + 1) > STATE_BUDGET:
        raise BudgetExceededError(
            "window automaton for k=%d needs more than %d states" % (k, STATE_BUDGET)
        )
    matchers = {}

    def successors(state):
        if type(state) is str:
            return [(w, 0, 0) if len(w) == k else w for w in (state + "a", state + "b")]
        p, e, j = state
        if p not in matchers:
            matchers[p] = _matcher_rows(p[::-1], "ab")
        after = min(e + 1, k)
        return [(p, after, t) for t in matchers[p][j]]

    def accepting(state):
        return type(state) is tuple and state[1] == k and state[2] < k

    return build_dfa(Alphabet("ab"), "", successors, accepting).minimized()


def _check_bound(n):
    if n < 0:
        raise ValueError("the parameter must be non-negative, got %d" % n)


def _cylinder_trie_dfa(base, letter, n, outer):
    """The machine behind both suffix sandwiches: a trie of the base words w
    shorter than n, where w·letter leads to the absorbing state True (free)
    if w is a base member and to the absorbing state False (dead) if not.
    A word that outgrows the trie is not decided by it: the outer machine
    sends it to free and also accepts inside the trie, the inner one sends
    it to dead and accepts only free."""
    _check_bound(n)
    alphabet = Alphabet(base.alphabet.symbols + (letter,))

    def successors(state):
        if type(state) is bool:
            return [state] * len(alphabet)
        grown = [state + ch if len(state) + 1 < n else outer for ch in base.alphabet]
        return grown + [base(state)]

    def accepting(state):
        return state is True or (outer and type(state) is str)

    return build_dfa(alphabet, "" if n > 0 else outer, successors, accepting)


def suffix_inner_dfa(base, letter, n):
    """Union of the cylinders w·letter·B* over base members w shorter than n."""
    return _cylinder_trie_dfa(base, letter, n, outer=False)


def suffix_outer_dfa(base, letter, n):
    """All words except the cylinders of base non-members shorter than n."""
    return _cylinder_trie_dfa(base, letter, n, outer=True)


def _cylinder_mass(base, letter, n, members):
    """Exact density sum of the cylinders picked below length n."""
    size = len(base.alphabet) + 1
    total = Fraction(0)
    for length in range(n):
        hits = sum(
            base(word) == members for word in enumerate_words(base.alphabet, length)
        )
        total += Fraction(hits, size ** (length + 1))
    return total


def suffix_extension_family(base, letter):
    """Sandwich approximations of the suffix extension of a base language."""
    target = suffix_extension(base, letter)
    return ApproxFamily(
        name="suffix-ext:%s:%s" % (base.name, letter),
        target=target,
        inner=lambda n: suffix_inner_dfa(base, letter, n),
        outer=lambda n: suffix_outer_dfa(base, letter, n),
        inner_claim=lambda n: _cylinder_mass(base, letter, n, True),
        outer_claim=lambda n: 1 - _cylinder_mass(base, letter, n, False),
    )


def prefix_extension_family(base, letter):
    """Same sandwich for the prefix extension, obtained by reversal."""
    reversed_base = LanguageOracle(
        base.name + "-reversed", base.alphabet, lambda w: base(w[::-1])
    )

    def reversed_machines(build):
        return lambda n: reverse(build(reversed_base, letter, n)).determinize().minimized()

    target = prefix_extension(base, letter)
    return ApproxFamily(
        name="prefix-ext:%s:%s" % (base.name, letter),
        target=target,
        inner=reversed_machines(suffix_inner_dfa),
        outer=reversed_machines(suffix_outer_dfa),
        inner_claim=lambda n: _cylinder_mass(base, letter, n, True),
        outer_claim=lambda n: 1 - _cylinder_mass(base, letter, n, False),
    )


def infix_extension_family(base, letter):
    """Bracketed-infix approximations: empty if the base has no member of
    length at most ``MEMBER_SEARCH_LENGTH``, otherwise the words containing
    letter·w·letter for the shortlex-least base member w.  The parameter is
    not used, but must be non-negative."""
    target = infix_extension(base, letter)
    alphabet = Alphabet(base.alphabet.symbols + (letter,))
    start, step, accepting = reader(base)
    symbols = base.alphabet.symbols
    member = least_word(
        start,
        lambda s: [step(s, ch) for ch in symbols],
        symbols,
        accepting,
        MEMBER_SEARCH_LENGTH,
    )

    def empty(n):
        _check_bound(n)
        return empty_language_dfa(alphabet)

    def containing(n):
        _check_bound(n)
        return contains_factor_dfa(letter + member + letter, alphabet)

    if member is None:
        return ApproxFamily(
            name="infix-ext:%s:%s" % (base.name, letter),
            target=target,
            inner=empty,
            outer=empty,
            inner_claim=lambda n: Fraction(0),
            outer_claim=lambda n: Fraction(0),
        )
    return ApproxFamily(
        name="infix-ext:%s:%s" % (base.name, letter),
        target=target,
        inner=containing,
        outer=None,
        inner_claim=lambda n: Fraction(1),
        outer_claim=None,
    )


def family(name):
    """Named approximation family used by the command-line surface."""
    if name == "modk":
        return ApproxFamily(
            name="modk",
            target=count_eq(),
            inner=None,
            outer=lambda k: mod_counter_dfa(k).complement(),
            inner_claim=None,
            outer_claim=lambda k: Fraction(1, k) if k % 2 == 1 else None,
        )
    if name == "pal":
        return ApproxFamily(
            name="pal",
            target=palindromes().complement(),
            inner=lambda k: nonpalindrome_window_dfa(k),
            outer=None,
            inner_claim=lambda k: 1 - Fraction(1, 2 ** k),
            outer_claim=None,
        )
    if name == "goldstine":
        return ApproxFamily(
            name="goldstine",
            target=goldstine(),
            inner=goldstine_inner_dfa,
            outer=lambda k: ends_with_letter_dfa("b", Alphabet("ab")),
            inner_claim=lambda k: Fraction(1, 2) - Fraction(1, 2 ** (k + 1)),
            outer_claim=lambda k: Fraction(1, 2),
        )
    if name == "o3":
        outer = _pair_counters_outer(Alphabet("abc"), "ab", "ac")
        return ApproxFamily(name="o3", target=o3(), outer=outer)
    if name == "o4":
        outer = _pair_counters_outer(Alphabet("xXyY"), "xX", "yY")
        return ApproxFamily(name="o4", target=o4(), outer=outer)
    raise ValueError("unknown approximation family %r" % name)


def _pair_counters_outer(alphabet, *pairs):
    """k -> the words in which, for one of the two letter pairs, both
    letters occur equally often modulo k: the state is the pair of count
    differences modulo k, so k² must stay within the state budget."""
    # per letter, its effect on the two count differences
    moves = [tuple((ch == a) - (ch == b) for a, b in pairs) for ch in alphabet.symbols]

    def outer(k):
        if k < 1:
            raise ValueError("modulus must be at least 1")
        if k * k > STATE_BUDGET:
            raise BudgetExceededError(
                "the residue pairs mod %d need %d states, budget is %d"
                % (k, k * k, STATE_BUDGET)
            )
        return build_dfa(
            alphabet,
            (0, 0),
            lambda rs: [((rs[0] + x) % k, (rs[1] + y) % k) for x, y in moves],
            lambda rs: 0 in rs,
        )

    return outer


# -- verification --------------------------------------------------------------

class _Check:
    """One containment claim and, once found, its counterexample.  The word
    walk keeps the automaton's state after each word of the current length
    (dropped once the counterexample is found)."""

    __slots__ = ("dfa", "inner", "states", "counterexample")

    def __init__(self, dfa, direction):
        self.dfa = dfa
        self.inner = direction == "inner"
        self.states = [dfa.initial]
        self.counterexample = None


def _guard_walk(dfa, oracle, max_length, budget):
    if dfa.alphabet != oracle.alphabet:
        raise ValueError("automaton and oracle alphabets differ")
    check_enumeration_budget(len(dfa.alphabet), max_length, budget, "containment tests")


def _walk(checks, oracle, max_length, census=False):
    """Fill each check's shortlex-least counterexample up to ``max_length``;
    return the per-length member counts when ``census`` is set, else None.

    A stepped oracle is read over its states: a pair search per check and a
    census by states.  Otherwise all words up to ``max_length`` are walked in
    shortlex order once: the oracle is asked about every word of a length
    while some check is still live, and the verdicts serve the census and
    every check.  Once every check has its counterexample, the remaining
    lengths of the census are streamed.
    """
    stepper = oracle.stepper
    if stepper is not None:
        # a pair search per check over (automaton state, oracle state): a
        # word's verdict depends only on its pair
        start, step, accepting = stepper
        symbols = oracle.alphabet.symbols
        for c in checks:
            delta, final = c.dfa.delta, c.dfa.accepting
            # (accepted by the automaton, member) of a counterexample
            bad = (True, False) if c.inner else (False, True)
            c.counterexample = least_word(
                (c.dfa.initial, start),
                lambda qs: [(t, step(qs[1], ch)) for t, ch in zip(delta[qs[0]], symbols)],
                symbols,
                lambda qs: (qs[0] in final, accepting(qs[1])) == bad,
                max_length,
            )
        return count_by_states(stepper, symbols, max_length) if census else None
    membership = oracle.membership
    symbols = oracle.alphabet.symbols
    counts = [] if census else None
    words = [""]
    for length in range(max_length + 1):
        live = [c for c in checks if c.counterexample is None]
        if not live:
            if census:
                counts.extend(count_members(oracle, range(length, max_length + 1)))
            break
        verdicts = list(map(membership, words))
        if census:
            counts.append(sum(verdicts))
        for c in live:
            acc = map(c.dfa.accepting.__contains__, c.states)
            bad = map(gt, acc, verdicts) if c.inner else map(gt, verdicts, acc)
            c.counterexample = next(compress(words, bad), None)
        if length == max_length:
            break
        words = [w + ch for w in words for ch in symbols]
        for c in live:
            if c.counterexample is None:
                c.states = list(chain.from_iterable(map(c.dfa.delta.__getitem__, c.states)))
            else:
                c.states = None
    return counts


def verify_containment(dfa, oracle, direction, max_length, budget=None):
    """Check an inclusion claim on all words up to a length.

    ``inner`` checks L(dfa) ⊆ oracle, ``outer`` checks oracle ⊆ L(dfa).
    Returns None when the inclusion holds, else the shortlex-least
    counterexample.  A stepped oracle is searched over (automaton state,
    oracle state) pairs; otherwise the words are walked.  The oracle's
    ``membership`` must return exactly True or False.
    """
    if direction not in ("inner", "outer"):
        raise ValueError("direction must be 'inner' or 'outer'")
    _guard_walk(dfa, oracle, max_length, budget)
    check = _Check(dfa, direction)
    _walk([check], oracle, max_length)
    return check.counterexample


def gap_report(fam, ks, max_length, budget=None):
    """Exact inner/outer densities, gaps and containment verdicts per k.

    One walk over the words checks every k's containments and takes the
    target's census: the oracle is asked about each word at most once.  A
    stepped target is read over its states instead (see
    ``verify_containment``).  The target's ``membership`` must return
    exactly True or False.
    """
    built = []
    checks = []
    for k in ks:
        inner_dfa = fam.inner(k) if fam.inner is not None else None
        outer_dfa = fam.outer(k) if fam.outer is not None else None
        inner_d = density(inner_dfa) if inner_dfa is not None else Fraction(0)
        outer_d = density(outer_dfa) if outer_dfa is not None else Fraction(1)
        pair = []
        for dfa, direction in ((inner_dfa, "inner"), (outer_dfa, "outer")):
            check = None
            if dfa is not None:
                _guard_walk(dfa, fam.target, max_length, budget)
                check = _Check(dfa, direction)
                checks.append(check)
            pair.append(check)
        built.append((k, inner_d, outer_d, pair))
    target = fam.target
    check_enumeration_budget(len(target.alphabet), max_length, budget, "membership tests")
    counts = _walk(checks, target, max_length, census=True)
    rows = tuple(
        GapRow(
            k=k,
            inner_density=inner_d,
            outer_density=outer_d,
            gap=outer_d - inner_d,
            inner_counterexample=None if inner is None else inner.counterexample,
            outer_counterexample=None if outer is None else outer.counterexample,
        )
        for k, inner_d, outer_d, (inner, outer) in built
    )
    _, cesaro = ratio_and_cesaro(LengthCensus(len(target.alphabet), counts))
    return GapReport(family=fam.name, rows=rows, target_cesaro=tuple(cesaro))


def majority_escape_witness(dfa, m=1):
    """A member of L(dfa) with at most m times as many a's as b's.

    Exists for every non-null language: density forces the all-b block of
    twice the monoid's witness radius to occur inside some member, and that
    member cannot satisfy the strict majority constraint.  Deterministic:
    monoid elements are scanned in shortlex-witness order.
    """
    if m < 1:
        raise ValueError("majority factor must be at least 1")
    if "a" not in dfa.alphabet or "b" not in dfa.alphabet:
        raise ValueError("escape witness needs letters 'a' and 'b' in the alphabet")
    if density(dfa) == 0:
        raise ValueError("no guarantee for null languages")
    monoid, accept = transition_monoid(dfa)
    radius = max(len(w) for w in monoid.witnesses)
    block = "b" * (2 * radius)
    blocked = monoid.element_of_word(block)
    size = len(monoid.elements)
    for x in range(size):
        xb = monoid.compose(x, blocked)
        for y in range(size):
            if monoid.compose(xb, y) in accept.elements:
                witness = monoid.witnesses[x] + block + monoid.witnesses[y]
                if not dfa.accepts(witness):
                    raise AssertionError("escape witness rejected by the automaton")
                if witness.count("a") > m * witness.count("b"):
                    raise AssertionError("escape witness fails the count bound")
                if len(witness) > 4 * radius:
                    raise AssertionError("escape witness exceeds the length bound")
                return witness
    raise AssertionError("dense language must absorb an all-b block")
