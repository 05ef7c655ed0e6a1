"""Parameterized regular approximation families with exact densities,
containment verification against membership oracles, and gap reports.

Each family pairs a target oracle with inner (subset) and/or outer
(superset) DFA generators.  A missing inner generator contributes density 0
(the empty language) and a missing outer generator density 1 (all words).
A family holds machines, not densities: the engine computes each side's
density exactly, and the closed forms live where they are asserted, in
``check`` and in the tests.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain
from typing import Callable, Optional

from .automata import STATE_BUDGET, Dfa, build_dfa, least_word, mod_counter_dfa
from .core import (
    Alphabet,
    BudgetExceededError,
    census_by_enumeration,
    check_enumeration_budget,
    layers,
    ratio_and_cesaro,
    reader,
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
    staircase_word_prefix,
    suffix_extension,
)
from .monoid import transition_monoid

MEMBER_SEARCH_LENGTH = 12  # longest base word the infix family looks for


@dataclass(frozen=True)
class ApproxFamily:
    """Inner/outer DFA generators converging to a target oracle, without density claims."""

    name: str
    target: LanguageOracle
    inner: Optional[Callable[[int], Dfa]] = None
    outer: Optional[Callable[[int], Dfa]] = None


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


def goldstine_inner_dfa(k):
    """Words of the block language whose first k letters already diverge
    from the staircase word and whose last letter is b.

    The state is (letters read, diverged) while at most k letters are read,
    then the last letter read, or ``None`` (dead) once the first k letters
    were the staircase prefix.
    """
    if k < 1:
        raise ValueError("prefix length must be at least 1")
    # the explorer stops before the letters read reach the state budget
    prefix = staircase_word_prefix(min(k, STATE_BUDGET))

    def successors(state):
        if type(state) is not tuple:
            return ("a", "b") if state else (None, None)
        j, diverged = state
        if j == k:
            return ("a", "b")
        row = [(j + 1, diverged or ch != prefix[j]) for ch in "ab"]
        return [None if t == (k, False) else t for t in row]

    return build_dfa(Alphabet("ab"), (0, False), successors, lambda state: state == "b")


def nonpalindrome_window_dfa(k):
    """Words over {a, b} of length >= 2k whose last k letters do not mirror
    the first k.

    Realised as a memory of the prefix read so far and then, once it has k
    letters p, a state (p, e, j): e letters read beyond p (saturating at k)
    and the Knuth-Morris-Pratt matcher state j of those letters against
    reverse(p).  The machine is minimal as built: its one mergeable pair per
    p, the rejecting full match (p, k, k) and (p, k - 1, b) for the longest
    proper border b of reverse(p), have the same row, so a completed match
    goes straight to (p, k - 1, b).  The budget bounds the equivalent
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
            rows = _matcher_rows(p[::-1], "ab")
            matchers[p] = rows, rows.index(rows[k])  # row k repeats the border's row
        rows, border = matchers[p]
        after = min(e + 1, k)
        return [(p, k - 1, border) if t == k else (p, after, t) for t in rows[j]]

    def accepting(state):
        return type(state) is tuple and state[1] == k and state[2] < k

    return build_dfa(Alphabet("ab"), "", successors, accepting)


def _check_bound(n):
    if n < 0:
        raise ValueError("the parameter must be non-negative, got %d" % n)


def _trie_alphabet(base, letter, n):
    """The extension alphabet of a trie over the base words shorter than n,
    and the states of its raw machine, the trie words and the one state
    ``outer`` that the words outgrowing the trie reach.  Both sandwiches
    hold these states, so the budget is checked on them before the base is
    asked about any word."""
    _check_bound(n)
    states = 1
    for i in range(n):
        states += len(base.alphabet) ** i
        if states > STATE_BUDGET:
            raise BudgetExceededError("automaton exceeds %d reachable states" % STATE_BUDGET)
    return Alphabet(base.alphabet.symbols + (letter,)), states


def _extension_trie_dfa(base, letter, n, outer, suffix):
    """The machine behind every extension sandwich, built minimal from a
    trie of the base words shorter than n.  The trie's nodes, the base
    reader's ``layers`` up to depth n - 1, are asked in shortlex order of
    first words and classed from the leaves up (Revuz 1992) by (acceptance,
    child classes, fresh-letter class).  A word that outgrows the trie reaches
    class 0, the one state ``outer``, which is its own verdict, and a node
    keyed as class 0 joins it.

    In a ``suffix`` trie w·letter decides the word for good: it leads to
    class 0 if w's verdict is ``outer`` and else to class 1, the other
    absorbing state, and a trie node accepts as ``outer`` does.  The machine
    starts at the root's class.  Otherwise the fresh letter restarts the
    trie at the root, so it is left out of the keys; a node accepts iff it
    is a base member, and class 0 also stands for the words before the
    first fresh letter, where the machine starts.

    Once some verdict reaches class 1, the raw suffix machine holds it
    besides the states that ``_trie_alphabet`` counts, so the budget is
    checked again after the walk and raises where that exploration did."""
    alphabet, states = _trie_alphabet(base, letter, n)
    stepper = reader(base)
    # per depth, reader state -> (verdict, children; none at a leaf)
    trie = [
        {s: (stepper.accepting(s), children) for s, (_, children) in layer.items()}
        for layer in layers(stepper, base.alphabet.symbols, n - 1)
    ]
    outgrown = (0,) * len(base.alphabet)  # a leaf's base letters lead to outer
    if suffix:
        keys = {(outer,) + outgrown + (0,): 0, (not outer,) + (1,) * len(alphabet): 1}
        if states == STATE_BUDGET and any(
            verdict != outer for layer in trie for verdict, _ in layer.values()
        ):
            raise BudgetExceededError("automaton exceeds %d reachable states" % STATE_BUDGET)
    else:
        keys = {(outer,) + outgrown: 0}
    below = {}
    for layer in reversed(trie):
        classes = {}
        for s, (verdict, children) in layer.items():
            grown = tuple(below[t] for t in children) or outgrown
            key = (outer,) + grown + (int(verdict != outer),) if suffix else (verdict,) + grown
            classes[s] = keys.setdefault(key, len(keys))
        below = classes
    root = below[stepper.start] if n > 0 else 0
    fresh = () if suffix else (root,)
    keys = list(keys)
    return build_dfa(
        alphabet, root if suffix else 0, lambda c: keys[c][1:] + fresh, lambda c: keys[c][0]
    )


def suffix_inner_dfa(base, letter, n):
    """Union of the cylinders w·letter·B* over base members w shorter than n."""
    return _extension_trie_dfa(base, letter, n, outer=False, suffix=True)


def suffix_outer_dfa(base, letter, n):
    """All words except the cylinders of base non-members shorter than n."""
    return _extension_trie_dfa(base, letter, n, outer=True, suffix=True)


def suffix_extension_family(base, letter):
    """Sandwich approximations of the suffix extension of a base language."""
    target = suffix_extension(base, letter)
    return ApproxFamily(
        name="suffix-ext:%s:%s" % (base.name, letter),
        target=target,
        inner=lambda n: suffix_inner_dfa(base, letter, n),
        outer=lambda n: suffix_outer_dfa(base, letter, n),
    )


def prefix_extension_family(base, letter):
    """Same sandwich for the prefix extension, from tries of the base word
    after the last fresh letter (see ``_extension_trie_dfa``)."""
    return ApproxFamily(
        name="prefix-ext:%s:%s" % (base.name, letter),
        target=prefix_extension(base, letter),
        inner=lambda n: _extension_trie_dfa(base, letter, n, outer=False, suffix=False),
        outer=lambda n: _extension_trie_dfa(base, letter, n, outer=True, suffix=False),
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
    empty = member is None

    def machine(n):
        _check_bound(n)
        if empty:
            return empty_language_dfa(alphabet)
        return contains_factor_dfa(letter + member + letter, alphabet)

    return ApproxFamily(
        name="infix-ext:%s:%s" % (base.name, letter),
        target=target,
        inner=machine,
        outer=machine if empty else None,
    )


def family(name):
    """Named approximation family used by the command-line surface."""
    if name == "modk":
        return ApproxFamily(
            name="modk",
            target=count_eq(),
            outer=lambda k: mod_counter_dfa(k).complement(),
        )
    if name == "pal":
        return ApproxFamily(
            name="pal",
            target=palindromes().complement(),
            inner=lambda k: nonpalindrome_window_dfa(k),
        )
    if name == "goldstine":
        return ApproxFamily(
            name="goldstine",
            target=goldstine(),
            inner=goldstine_inner_dfa,
            outer=lambda k: ends_with_letter_dfa("b", Alphabet("ab")),
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

def verify_containment(dfa, oracle, direction, max_length, budget=None):
    """Check an inclusion claim on all words up to a length.

    ``inner`` checks L(dfa) ⊆ oracle, ``outer`` checks oracle ⊆ L(dfa).
    Returns None when the inclusion holds, else the shortlex-least
    counterexample.  When the oracle's thin side holds every counterexample
    (its non-members for an inner claim, its members for an outer one), the
    automaton reads the thin words in shortlex order.  Otherwise the search
    runs over (automaton state, reader state) pairs, one length at a time:
    a word's verdict depends only on its pair, and a membership-only
    oracle's reader state is the word, so it is asked about each word at
    most once.  The oracle's ``membership`` must return exactly True or
    False.
    """
    if direction not in ("inner", "outer"):
        raise ValueError("direction must be 'inner' or 'outer'")
    if dfa.alphabet != oracle.alphabet:
        raise ValueError("automaton and oracle alphabets differ")
    check_enumeration_budget(len(dfa.alphabet), max_length, budget, "containment tests")
    inner = direction == "inner"
    thin = oracle.thin
    if thin is not None and thin.members != inner:
        words = chain.from_iterable(map(thin.words, range(max_length + 1)))
        return next((w for w in words if dfa.accepts(w) == inner), None)
    start, step, accepting = reader(oracle)
    symbols = oracle.alphabet.symbols
    delta, final = dfa.delta, dfa.accepting
    # (accepted by the automaton, member) of a counterexample
    bad = (True, False) if inner else (False, True)
    return least_word(
        (dfa.initial, start),
        lambda qs: [(t, step(qs[1], ch)) for t, ch in zip(delta[qs[0]], symbols)],
        symbols,
        lambda qs: (qs[0] in final, accepting(qs[1])) == bad,
        max_length,
    )


def gap_report(fam, ks, max_length, budget=None):
    """Exact inner/outer densities, gaps and containment verdicts per k.

    For each k, each side is built, its density taken and its claim checked
    by ``verify_containment``; a missing inner side is empty (density 0) and
    a missing outer side is every word (density 1).  Then the target is
    censused once by ``census_by_enumeration``.  A membership-only target's
    verdicts are memoised for the call, so the checks and the census ask it
    about each word at most once.  The target's ``membership`` must return
    exactly True or False.
    """
    target = fam.target
    if target.stepper is None:
        target = LanguageOracle(
            target.name, target.alphabet, cache(target.membership), thin=target.thin
        )

    def side(build, k, empty_density, direction):
        if build is None:
            return empty_density, None
        dfa = build(k)
        return density(dfa), verify_containment(dfa, target, direction, max_length, budget)

    rows = []
    for k in ks:
        inner_d, inner_cex = side(fam.inner, k, Fraction(0), "inner")
        outer_d, outer_cex = side(fam.outer, k, Fraction(1), "outer")
        rows.append(GapRow(k, inner_d, outer_d, outer_d - inner_d, inner_cex, outer_cex))
    _, cesaro = ratio_and_cesaro(census_by_enumeration(target, max_length, budget))
    return GapReport(family=fam.name, rows=tuple(rows), target_cesaro=tuple(cesaro))


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
    radius = len(monoid.witness(len(monoid) - 1))  # BFS order is shortlex
    block = "b" * (2 * radius)
    found = monoid.bracket(monoid.element_of_word(block), accept)
    if found is None:
        raise AssertionError("dense language must absorb an all-b block")
    x, y = found
    witness = monoid.witness(x) + block + monoid.witness(y)
    if not dfa.accepts(witness):
        raise AssertionError("escape witness rejected by the automaton")
    if witness.count("a") > m * witness.count("b"):
        raise AssertionError("escape witness fails the count bound")
    if len(witness) > 4 * radius:
        raise AssertionError("escape witness exceeds the length bound")
    return witness
