"""Membership oracles and closed-form counters for the concrete languages
studied by this workbench: balanced-prefix words, letter-count constraints,
palindromes, block languages, primitive words, coprefix languages of
morphic words, alphabet extensions, and a staircase diagonal language that
escapes every co-infinite machine of a pinned enumeration.
"""

import itertools
from math import comb, factorial
from operator import add

from .automata import Dfa, shortlex_least_member
from .core import Alphabet, BudgetExceededError, Stepper, ThinSide, moebius_terms, reader

# how far the diagonal language may go: machines enumerated, and the length
# of the longest picked word
DIAGONAL_MAX_MACHINES = 200_000
DIAGONAL_MAX_WORD_LENGTH = 256


class LanguageOracle:
    """Named total membership predicate.

    An oracle is given either by ``membership`` or by a ``stepper``, whose
    run over a word is then the membership predicate; censuses and
    containment checks read a stepped oracle's states, not its words.  A
    membership oracle may also have a ``thin`` side (see ``ThinSide``),
    which censuses count and containment checks read where every
    counterexample lies on it.  ``membership`` must return exactly True or
    False: containment checks compare its results with True and False, so
    a merely truthy value such as a count gives wrong answers.  Called on a
    word, an oracle raises ValueError if the word has a letter outside its
    alphabet.
    """

    __slots__ = ("name", "alphabet", "membership", "stepper", "thin", "_letters")

    def __init__(self, name, alphabet, membership=None, stepper=None, thin=None):
        if (membership is None) == (stepper is None):
            raise ValueError("an oracle needs exactly one of membership and stepper")
        self.name = name
        self.alphabet = alphabet
        self.membership = stepper.run if membership is None else membership
        self.stepper = stepper
        self.thin = thin
        self._letters = frozenset(alphabet.symbols)

    def __call__(self, word):
        if not self._letters.issuperset(word):
            raise ValueError("word %r has letters outside %r" % (word, self.alphabet))
        return self.membership(word)

    def __repr__(self):
        return "LanguageOracle(%r, %r)" % (self.name, self.alphabet)

    def complement(self):
        name = "not-" + self.name
        if self.stepper is not None:
            start, step, accepting = self.stepper
            return LanguageOracle(
                name, self.alphabet, stepper=Stepper(start, step, lambda s: not accepting(s))
            )
        membership, thin = self.membership, self.thin
        if thin is not None:
            thin = ThinSide(not thin.members, thin.words)
        return LanguageOracle(name, self.alphabet, lambda w: not membership(w), thin=thin)


class Morphism:
    """Letter-to-word substitution over a fixed alphabet."""

    __slots__ = ("alphabet", "images")

    def __init__(self, alphabet, images):
        for letter in alphabet:
            if letter not in images:
                raise ValueError("morphism missing image for %r" % letter)
        for letter, image in images.items():
            if letter not in alphabet:
                raise ValueError("morphism maps foreign letter %r" % letter)
            if any(ch not in alphabet for ch in image):
                raise ValueError("image %r uses letters outside %r" % (image, alphabet))
        self.alphabet = alphabet
        self.images = dict(images)

    def __call__(self, word):
        return "".join(self.images[ch] for ch in word)

    def is_prolongable_on(self, seed):
        image = self.images.get(seed, "")
        return image.startswith(seed) and len(image) >= 2


# -- word combinatorics ------------------------------------------------------

def is_primitive(word):
    """True iff the word is non-empty and not a proper power u**k, k >= 2.

    A word w is a proper power iff it occurs in ww at some position strictly
    between 0 and |w|, so one substring search decides it.
    """
    return word != "" and (word + word).find(word, 1) == len(word)


def primitive_count(length):
    """Number of primitive binary words of length n: Σ_{e | n} μ(n/e)·2^e."""
    if length == 0:
        return 0
    return sum(m * 2 ** e for e, m in moebius_terms(length))


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def dyck_count(length):
    return catalan(length // 2) if length % 2 == 0 else 0


def majority_count(length, m=1):
    """Words over {a, b} with strictly more than m times as many a's as b's."""
    return sum(comb(length, j) for j in range(length + 1) if length - j > m * j)


def _multinomial3(i, j, k):
    return factorial(i + j + k) // (factorial(i) * factorial(j) * factorial(k))


def o3_count(length):
    """Words over a 3-letter alphabet whose first letter count matches the
    second or the third."""
    eq_pairs = sum(
        _multinomial3(i, i, length - 2 * i) for i in range(length // 2 + 1)
    )
    center = _multinomial3(length // 3, length // 3, length // 3) if length % 3 == 0 else 0
    return 2 * eq_pairs - center


# -- concrete oracles --------------------------------------------------------

def _difference_stepper(moves, accepting):
    """Stepper whose state is a vector of letter-count differences: each
    letter adds its increment vector ``moves[letter]``."""
    def step(state, letter):
        return tuple(map(add, state, moves[letter]))

    width = len(next(iter(moves.values())))
    return Stepper((0,) * width, step, accepting)


def semi_dyck():
    """Balanced words over {a, b} whose every prefix has at least as many
    a's as b's; counted by the Catalan numbers."""
    def step(depth, letter):
        # depth -1 is dead: some prefix has more b's than a's
        if depth < 0:
            return depth
        return depth + 1 if letter == "a" else depth - 1

    return LanguageOracle(
        "dyck",
        Alphabet("ab"),
        stepper=Stepper(0, step, lambda depth: depth == 0),
    )


def count_eq(a="a", b="b"):
    """Words with equally many a's and b's."""
    alphabet = Alphabet((a, b))
    moves = {ch: ((ch == a) - (ch == b),) for ch in alphabet}
    return LanguageOracle(
        "counteq:%s,%s" % (a, b),
        alphabet,
        stepper=_difference_stepper(moves, lambda state: state == (0,)),
    )


def palindrome_words(alphabet):
    """n -> the palindromes of length n in shortlex order: each is decided,
    and ordered, by its first ceil(n/2) letters."""
    def words(n):
        for half in itertools.product(alphabet.symbols, repeat=(n + 1) // 2):
            head = "".join(half)
            yield head + head[: n // 2][::-1]

    return words


def palindromes():
    alphabet = Alphabet("ab")
    thin = ThinSide(True, palindrome_words(alphabet))
    return LanguageOracle("pal", alphabet, lambda w: w == w[::-1], thin=thin)


def o3():
    """Words over {a, b, c} with as many a's as b's or as many a's as c's;
    the state is (#a - #b, #a - #c)."""
    moves = {"a": (1, 1), "b": (-1, 0), "c": (0, -1)}
    return LanguageOracle(
        "o3",
        Alphabet("abc"),
        stepper=_difference_stepper(moves, lambda state: 0 in state),
    )


def o4():
    """Words over {x, X, y, Y} with as many x's as X's or as many y's as
    Y's; the state is (#x - #X, #y - #Y)."""
    moves = {"x": (1, 0), "X": (-1, 0), "y": (0, 1), "Y": (0, -1)}
    return LanguageOracle(
        "o4",
        Alphabet("xXyY"),
        stepper=_difference_stepper(moves, lambda state: 0 in state),
    )


def goldstine():
    """Block words a^{n_1} b ... a^{n_p} b (p >= 1) where some block length
    n_i differs from its index i."""
    # (i, r): in block i with r a's read, every earlier block j of length j;
    # "a" / "b": some block has diverged, and the last letter read
    def step(state, letter):
        if type(state) is str:
            return letter
        i, r = state
        if letter == "a":
            return (i, r + 1) if r < i else "a"
        return (i + 1, 0) if r == i else "b"

    return LanguageOracle(
        "goldstine", Alphabet("ab"), stepper=Stepper((1, 0), step, lambda state: state == "b")
    )


def staircase_word_prefix(length):
    """Prefix of the infinite block word a b aa b aaa b ... (blocks grow by
    one ``a`` between consecutive b's)."""
    parts = []
    total = 0
    i = 1
    while total < length:
        parts.append("a" * i)
        parts.append("b")
        total += i + 1
        i += 1
    return "".join(parts)[:length]


def _s1_step(state, letter):
    # a (b^i a^i)*: ("b", i) after a run of i b's, ("a", r) with r a's still
    # owed, from one a owed at the start; None once dead
    if state is None:
        return None
    run, k = state
    if letter == "a":
        return ("a", k - 1) if run == "b" or k else None
    return ("b", k + 1) if run == "b" or not k else None


def _s2_step(state, letter):
    # (a^i b^2i)* a^+: ("a", j) after a run of j a's, ("b", r) with r b's
    # still owed, 2j - 1 after the first b; None once dead
    if state is None:
        return None
    run, k = state
    if letter == "a":
        return ("a", k + 1) if run == "a" or not k else None
    return ("b", k - 1 if run == "b" else 2 * k - 1) if k else None


_KEMP_S1 = Stepper(("a", 1), _s1_step, lambda state: state == ("a", 0))
_KEMP_S2 = Stepper(
    ("a", 0), _s2_step, lambda state: state is not None and state[0] == "a" and state[1] > 0
)


def kemp_base():
    """Union of the two run-length block languages behind the kemp oracle,
    S1 = a (b^i a^i)* and S2 = (a^i b^2i)* a^+ for i >= 1, read side by
    side: 2d + 1 reader states at each depth d >= 6."""
    s1, s2 = _KEMP_S1, _KEMP_S2
    both = Stepper(
        (s1.start, s2.start),
        lambda state, letter: (s1.step(state[0], letter), s2.step(state[1], letter)),
        lambda state: s1.accepting(state[0]) or s2.accepting(state[1]),
    )
    return LanguageOracle("kemp-base", Alphabet("ab"), stepper=both)


def kemp():
    oracle = suffix_extension(kemp_base(), "c")
    return LanguageOracle("kemp", oracle.alphabet, stepper=oracle.stepper)


def majority(m=1):
    if m < 1:
        raise ValueError("majority factor must be at least 1")
    return LanguageOracle(
        "majority:%d" % m,
        Alphabet("ab"),
        stepper=_difference_stepper({"a": (1,), "b": (-m,)}, lambda state: state[0] > 0),
    )


def proper_powers(alphabet):
    """n -> the words of length n that are not primitive, in shortlex order:
    the powers u^(n/d) for each divisor d < n of n, and the empty word."""
    def words(n):
        powers = {
            "".join(u) * (n // d)
            for d in range(1, n)
            if n % d == 0
            for u in itertools.product(alphabet.symbols, repeat=d)
        }
        return [""] if n == 0 else sorted(powers, key=alphabet.ranks)

    return words


def primitive():
    alphabet = Alphabet("ab")
    thin = ThinSide(False, proper_powers(alphabet))
    return LanguageOracle("primitive", alphabet, is_primitive, thin=thin)


def coprefix(morphism, seed):
    """Complement of the prefix set of the morphic fixed point.

    The fixed point is infinite iff the tail of the seed's image has a
    letter that is not mortal, where a letter is mortal if some iterate of
    its image is empty; then every iteration grows the prefix.
    """
    if not morphism.is_prolongable_on(seed):
        raise ValueError("morphism is not prolongable on %r" % seed)
    mortal = set()
    for _ in morphism.images:  # the mortal letters are all found in |A| rounds
        mortal = {ch for ch, image in morphism.images.items() if mortal.issuperset(image)}
    if mortal.issuperset(morphism.images[seed][1:]):
        raise ValueError("the fixed point of the morphism on %r is finite" % seed)
    cache = [seed]

    def prefix_of(length):
        while len(cache[0]) < length:
            cache[0] = morphism(cache[0])
        return cache[0][:length]

    # the thin side is the non-members: the one fixed-point prefix per length
    return LanguageOracle(
        "coprefix",
        morphism.alphabet,
        lambda w: w != prefix_of(len(w)),
        thin=ThinSide(False, lambda n: [prefix_of(n)]),
    )


def suffix_extension(base, letter):
    """Members of the base language followed by a fresh letter and any tail."""
    return _extension("suffix", base, letter, _suffix_reader)


def prefix_extension(base, letter):
    """Any head, then a fresh letter, then a member of the base language."""
    return _extension("prefix", base, letter, _prefix_reader)


def infix_extension(base, letter):
    """Words containing a fresh-letter pair that brackets a base member."""
    return _extension("infix", base, letter, _infix_reader)


def _extension(kind, base, letter, build):
    """The extension oracle, stepped by ``build`` over the base's reader."""
    _check_extension_letter(base, letter)
    alphabet = Alphabet(base.alphabet.symbols + (letter,))
    name = "%s-ext:%s:%s" % (kind, base.name, letter)
    return LanguageOracle(name, alphabet, stepper=build(reader(base), letter))


def _suffix_reader(base, letter):
    """(False, s): base state s before the first fresh letter; (True, v):
    the base verdict v frozen there."""
    start, step, accepting = base

    def next_state(state, ch):
        frozen, s = state
        if frozen:
            return state
        if ch == letter:
            return (True, accepting(s))
        return (False, step(s, ch))

    return Stepper((False, start), next_state, lambda state: state[0] and state[1])


def _prefix_reader(base, letter):
    """(): no fresh letter yet; (s,): base state s since the last one."""
    start, step, accepting = base

    def next_state(state, ch):
        if ch == letter:
            return (start,)
        return state and (step(state[0], ch),)

    return Stepper((), next_state, lambda state: bool(state) and accepting(state[0]))


def _infix_reader(base, letter):
    """(): no fresh letter yet; (s,): base state s since the last one;
    True: two fresh letters have bracketed a base member."""
    start, step, accepting = base

    def next_state(state, ch):
        if state is True:
            return state
        if ch == letter:
            return True if state and accepting(state[0]) else (start,)
        return state and (step(state[0], ch),)

    return Stepper((), next_state, lambda state: state is True)


def _check_extension_letter(base, letter):
    if len(letter) != 1:
        raise ValueError("extension letter must be a single character")
    if letter in base.alphabet:
        raise ValueError("extension letter %r already occurs in the base alphabet" % letter)


# -- the diagonal language ---------------------------------------------------

class DiagonalLanguage:
    """Recursive language accepting at most one word per length while escaping
    every co-infinite machine of a pinned DFA enumeration.

    Machines over {a, b} are enumerated by state count s = 1, 2, ...;
    for fixed s every (accepting-set, transition-table) pair appears in
    lexicographic order of its flat encoding — the accepting bitmask (state 0
    first) followed by the row-major transition table — and state 0 is always
    initial.  Walking this list and skipping co-finite machines, the
    procedure repeatedly picks the shortlex-least word that is strictly
    longer than the previously picked one and rejected by the current
    machine.  An input is accepted iff it equals one of the picked words, so
    picked-word lengths strictly increase and each picked word witnesses
    non-containment in the machine it escaped.
    """

    def __init__(self):
        self.alphabet = Alphabet("ab")
        self._stream = self._machine_stream()
        self._machines_examined = 0
        self._picks = []
        self._escaped_machines = []

    def _machine_stream(self):
        letters = len(self.alphabet)
        states = 1
        while True:
            for acc_bits in itertools.product((0, 1), repeat=states):
                accepting = frozenset(q for q, bit in enumerate(acc_bits) if bit)
                for flat in itertools.product(range(states), repeat=states * letters):
                    delta = [
                        flat[q * letters : (q + 1) * letters] for q in range(states)
                    ]
                    yield Dfa(self.alphabet, states, delta, 0, accepting)
            states += 1

    def _extend_picks(self):
        floor = len(self._picks[-1]) if self._picks else 0
        if floor >= DIAGONAL_MAX_WORD_LENGTH:
            raise BudgetExceededError(
                "diagonal-language words beyond length %d exceed the budget"
                % DIAGONAL_MAX_WORD_LENGTH
            )
        while True:
            if self._machines_examined >= DIAGONAL_MAX_MACHINES:
                raise BudgetExceededError(
                    "diagonal-language enumeration exceeded %d machines"
                    % DIAGONAL_MAX_MACHINES
                )
            machine = next(self._stream)
            self._machines_examined += 1
            rejected = machine.complement()
            # an n-state machine rejects infinitely many words iff it rejects
            # one of at least n letters, whose run repeats a state
            if shortlex_least_member(rejected, min_length=machine.n_states - 1) is None:
                continue
            pick = shortlex_least_member(rejected, min_length=floor)
            if pick is None:
                raise AssertionError("co-infinite machine must reject a longer word")
            self._picks.append(pick)
            self._escaped_machines.append(machine)
            return

    def accepted_words_up_to(self, length):
        """All accepted words of length <= the bound, in shortlex order."""
        while not self._picks or len(self._picks[-1]) <= length:
            self._extend_picks()
        return [w for w in self._picks if len(w) <= length]

    def escaped_machine(self, index):
        """The pinned-enumeration machine escaped by the index-th pick."""
        while len(self._picks) <= index:
            self._extend_picks()
        return self._escaped_machines[index]

    def membership(self, word):
        key = self.alphabet.shortlex_key(word)
        while not self._picks or self.alphabet.shortlex_key(self._picks[-1]) < key:
            self._extend_picks()
        return word in self._picks


def diagonal():
    program = DiagonalLanguage()
    picks = ThinSide(True, lambda n: [w for w in program.accepted_words_up_to(n) if len(w) == n])
    return LanguageOracle("diagonal", program.alphabet, program.membership, thin=picks)
