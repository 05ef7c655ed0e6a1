"""Alphabets, shortlex word enumeration, exact length censuses, and the
Möbius terms that count primitive words and split residue limits.

Words are plain Python strings; every count is an ``int`` and every ratio a
``fractions.Fraction`` in lowest terms.  No floating point is used anywhere
in this package.
"""

import itertools
from fractions import Fraction
from functools import reduce
from operator import add
from typing import Callable, Hashable, NamedTuple

DEFAULT_ENUMERATION_BUDGET = 2 ** 26


class BudgetExceededError(RuntimeError):
    """Raised when a computation would exceed its configured resource budget."""


class Alphabet:
    """Ordered alphabet of distinct single-character symbols.

    Declaration order fixes the letter order used by every shortlex
    comparison in this package; it is not necessarily ASCII order.
    """

    __slots__ = ("symbols", "_rank")

    def __init__(self, symbols):
        syms = tuple(symbols)
        if not syms:
            raise ValueError("alphabet must not be empty")
        if any(not isinstance(s, str) or len(s) != 1 for s in syms):
            raise ValueError("alphabet symbols must be single characters")
        if len(set(syms)) != len(syms):
            raise ValueError("alphabet symbols must be distinct")
        self.symbols = syms
        self._rank = {s: i for i, s in enumerate(syms)}

    def __len__(self):
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __contains__(self, symbol):
        return symbol in self._rank

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.symbols == other.symbols

    def __hash__(self):
        return hash(self.symbols)

    def __repr__(self):
        return "Alphabet(%r)" % ("".join(self.symbols),)

    def rank(self, symbol):
        """Position of ``symbol`` in the declared letter order."""
        try:
            return self._rank[symbol]
        except KeyError:
            raise ValueError("symbol %r not in %r" % (symbol, self)) from None

    def ranks(self, word):
        try:
            return tuple(self._rank[ch] for ch in word)
        except KeyError as missing:
            self.rank(missing.args[0])  # a symbol outside raises rank's ValueError

    def shortlex_key(self, word):
        """Sort key realising shortlex order: length first, then letter ranks."""
        return (len(word), self.ranks(word))


def enumerate_words(alphabet, length):
    """All words of the given length, in shortlex order."""
    if length < 0:
        raise ValueError("length must be non-negative")
    return ["".join(p) for p in itertools.product(alphabet.symbols, repeat=length)]


class LengthCensus:
    """Exact per-length word counts of a language, lengths 0..N."""

    __slots__ = ("alphabet_size", "counts")

    def __init__(self, alphabet_size, counts):
        if alphabet_size < 1:
            raise ValueError("alphabet size must be positive")
        counts = list(counts)
        for n, c in enumerate(counts):
            if not 0 <= c <= alphabet_size ** n:
                raise ValueError(
                    "count %d at length %d exceeds %d^%d" % (c, n, alphabet_size, n)
                )
        self.alphabet_size = alphabet_size
        self.counts = counts

    def __len__(self):
        return len(self.counts)

    def __eq__(self, other):
        return (
            isinstance(other, LengthCensus)
            and self.alphabet_size == other.alphabet_size
            and self.counts == other.counts
        )

    def __repr__(self):
        return "LengthCensus(%d, %r)" % (self.alphabet_size, self.counts)


def ratio_and_cesaro(census):
    """Per-length acceptance ratios and their running Cesàro means, exactly.

    Returns ``(ratios, cesaro)`` where ``ratios[n] = counts[n] / s**n`` and,
    for ``n >= 1``, ``cesaro[n] = (1/n) * sum(ratios[:n])``.  There is no
    Cesàro mean of an empty prefix, so ``cesaro[0] is None``.
    """
    s = census.alphabet_size
    ratios = [Fraction(c, s ** n) for n, c in enumerate(census.counts)]
    cesaro = [None]
    acc = Fraction(0)
    for n in range(1, len(ratios)):
        acc += ratios[n - 1]
        cesaro.append(Fraction(acc, n))
    return ratios, cesaro


def format_fraction(value):
    """``p/q``, an integer plainly, and ``BOT`` for None (no value)."""
    if value is None:
        return "BOT"
    if value.denominator == 1:
        return str(value.numerator)
    return "%d/%d" % (value.numerator, value.denominator)


def moebius_terms(d):
    """(e, μ(d/e)) for each divisor e of d with d/e squarefree."""
    terms, n, r = [(d, 1)], d, 2
    while n > 1:
        if r * r > n:
            r = n
        if n % r == 0:
            terms += [(e // r, -m) for e, m in terms]
            while n % r == 0:
                n //= r
        r += 1
    return terms


def check_enumeration_budget(alphabet_size, max_length, budget, what):
    """Refuse to enumerate ``alphabet_size ** max_length`` words past the
    budget (default: the enumeration budget); the power is not computed
    once max_length alone shows it past the budget."""
    if max_length < 0:
        raise ValueError("max_length must be non-negative")
    if budget is None:
        budget = DEFAULT_ENUMERATION_BUDGET
    past = alphabet_size > 1 and max_length >= budget.bit_length()
    if past or alphabet_size ** max_length > budget:
        raise BudgetExceededError(
            "%d^%d %s exceed budget %d" % (alphabet_size, max_length, what, budget)
        )


class Stepper(NamedTuple):
    """A deterministic left-to-right reader of a language.

    ``step(state, letter)`` moves from state to state, starting at
    ``start``; a word is a member iff ``accepting`` holds of the state it
    reaches.  States are hashable and equal states have equal futures, so
    words that reach the same state can be counted and checked together.
    ``accepting`` must return exactly True or False.
    """

    start: Hashable
    step: Callable
    accepting: Callable

    def run(self, word):
        return self.accepting(reduce(self.step, word, self.start))


class ThinSide(NamedTuple):
    """The sparse side of a language: its members if ``members`` is set,
    else its non-members.  ``words(n)`` yields that side's words of length
    n in shortlex order of the declared alphabet."""

    members: bool
    words: Callable


def reader(oracle):
    """The oracle's stepper, or else its word reader: the state is the word
    read so far, so equal states trivially have equal futures."""
    if oracle.stepper is not None:
        return oracle.stepper
    return Stepper("", add, oracle.membership)


def census_by_enumeration(oracle, max_length, budget=None):
    """Census a language oracle up to a length (see ``member_counts``).

    Guarded: ``|A| ** max_length`` may not exceed the enumeration budget,
    which also bounds the reader's states and the thin words per length.
    """
    alphabet = oracle.alphabet
    check_enumeration_budget(len(alphabet), max_length, budget, "membership tests")
    return LengthCensus(len(alphabet), member_counts(oracle, max_length))


def member_counts(oracle, max_length):
    """Members of each length 0..max_length.  A thin oracle counts its thin
    words, |thin_n| or |A|^n - |thin_n|; any other sums acceptance over its
    reader's ``layers``, which ask a word reader about each word once, in
    shortlex order.  Unguarded: callers check the budget."""
    thin = oracle.thin
    if thin is None:
        stepper = reader(oracle)
        return [
            sum(m for state, (m, _) in layer.items() if stepper.accepting(state))
            for layer in layers(stepper, oracle.alphabet.symbols, max_length)
        ]
    size = len(oracle.alphabet)
    counts = [sum(1 for _ in thin.words(n)) for n in range(max_length + 1)]
    return counts if thin.members else [size ** n - c for n, c in enumerate(counts)]


def layers(stepper, symbols, max_length):
    """The stepper's states, length by length for lengths 0..max_length.

    Each length yields a dict from every state that some word of that
    length reaches to (the number of such words, its successors per letter
    of ``symbols``); the states at max_length are not stepped and have no
    successors.  Each state of a layer is stepped once per letter, and a
    layer lists its states in shortlex order of their first words.
    Unguarded: callers check the budget."""
    start, step, _ = stepper
    layer = {start: 1}
    for length in range(max_length + 1):
        leaf = length == max_length
        stepped = {state: (m, () if leaf else tuple([step(state, ch) for ch in symbols]))
                   for state, m in layer.items()}
        yield stepped
        layer = {}
        for m, children in stepped.values():
            for after in children:
                layer[after] = layer.get(after, 0) + m
