"""Word-at-a-time definitions of the stepped languages, kept as test oracles.

The library defines dyck, counteq, majority, o3, o4, goldstine, the kemp
base and every alphabet extension by their steppers; the predicates below
define the same languages directly on words, independently of those
steppers.  ``o4_count`` counts the o4 words of a length in closed form.
``is_primitive`` decides primitivity from the prime divisors of the
length, independently of the library's substring search.
``raw_window_dfa`` is the sliding-window machine that the non-palindrome
window family minimizes to.  ``dfa_to_json`` writes a machine as the JSON
interchange document that ``dfa_from_json`` and the CLI's ``--dfa`` read.

The hand-indexed machines at the end number their states with their own
index arithmetic instead of exploring a successor function; the library
builds the same languages by exploration, and the tests compare the two
after minimization.  ``prefix_trie_by_reversal`` builds the prefix
extension's sandwich machines the long way round: the suffix machine of
the reversed base, reversed into an NFA, determinized and minimized.
``tail_trie_dfa`` builds them as a raw trie of the tail words, each decided
from the base's start, and minimizes it.  ``cylinder_mass`` is the closed
form of the extension sandwiches' densities, summed from the base's census.  ``forbidden_word_by_factor_nfa``
finds a forbidden word the long way round too: it determinizes the factor
language's NFA and searches the complement.

``tuple_transition_monoid`` is the transition monoid on tuple state maps
composed by ``itemgetter``, with an eager list of witness words, its right
Cayley rows and ``bracket`` composing one pair at a time; the library's
monoid on bytes elements with BFS parents and per-letter Cayley columns is
compared against it.

``stationary_by_pinned_solve`` solves a closed class's balance equations as
one system, the first state's equation replaced by the pin π = 1; the
library extends the law from the state of most predecessors along the
class's in-edge graph, component by component.

``natural_density_by_c_step`` computes the residue limits on the c-step
count chain: the harmonic extension of the phase masses under the c-th
power of the letter-count chain, read off along the first c steps of the
initial state's count vector.  ``natural_density_by_phase_product``
extends the phase masses over the (state, phase) product of the one-step
chain, n·c unknowns.  The library solves one block per cyclotomic factor
of x^c − 1 instead.

``residue_limits_by_berlekamp_massey`` reads the residue limits off
``count_words`` alone: it recovers the rational generating function of each
decimated ratio sequence b_{cm+r} by Berlekamp-Massey and takes its limit
at x = 1, sharing no code with the density engine.

``count_words_by_push`` counts accepted words forwards, pushing the number
of words that reach each state along every edge, one length at a time; the
library counts backwards from the accepting states by per-letter gathers.
"""

import re
from fractions import Fraction
from math import factorial, lcm
from operator import itemgetter

from regdensity import (
    Alphabet,
    BudgetExceededError,
    Dfa,
    DensityReport,
    LanguageOracle,
    LengthCensus,
    Nfa,
    enumerate_words,
    shortlex_least_member,
)
from regdensity.approximations import _matcher_rows, _trie_alphabet
from regdensity.automata import build_dfa, explore, strongly_connected_components
from regdensity.core import member_counts
from regdensity.density import (
    _analyse,
    _class_period_and_levels,
    _limit_vector,
    _weighted_sum,
    solve_exact,
)
from regdensity.languages import _multinomial3, staircase_word_prefix
from regdensity.monoid import DEFAULT_MONOID_BUDGET


def dyck(word):
    depth = 0
    for ch in word:
        depth += 1 if ch == "a" else -1
        if depth < 0:
            return False
    return depth == 0


def counteq(a="a", b="b"):
    return lambda w: w.count(a) == w.count(b)


def majority(m):
    return lambda w: w.count("a") > m * w.count("b")


def o3(w):
    return w.count("a") == w.count("b") or w.count("a") == w.count("c")


def o4(w):
    return w.count("x") == w.count("X") or w.count("y") == w.count("Y")


def o4_count(length):
    """Words over a 4-letter alphabet where one designated pair of letters
    (or the other) occurs equally often."""
    eq_one = 0
    for i in range(length // 2 + 1):
        rest = length - 2 * i
        eq_one += _multinomial3(i, i, rest) * 2 ** rest
    both = 0
    if length % 2 == 0:
        for i in range(length // 2 + 1):
            k = length // 2 - i
            both += factorial(length) // (
                factorial(i) ** 2 * factorial(k) ** 2
            )
    return 2 * eq_one - both


def goldstine(word):
    if not word or word[-1] != "b":
        return False
    blocks = []
    run = 0
    for ch in word:
        if ch == "a":
            run += 1
        else:
            blocks.append(run)
            run = 0
    return any(n != i for i, n in enumerate(blocks, start=1))


def pal(word):
    return word == word[::-1]


def kemp_base(word):
    """a (b^i a^i)* or (a^i b^2i)* a^+, i >= 1, matched by regular
    expressions and then checked block by block."""
    if re.fullmatch(r"a(b+a+)*", word):
        pairs = re.findall(r"(b+)(a+)", word[1:])
        if all(len(bs) == len(as_) for bs, as_ in pairs):
            return True
    if re.fullmatch(r"(a+b+)*a+", word):
        pairs = re.findall(r"(a+)(b+)", word)
        if all(len(bs) == 2 * len(as_) for as_, bs in pairs):
            return True
    return False


def suffix_ext(base, letter):
    def member(word):
        i = word.find(letter)
        return i >= 0 and base(word[:i])

    return member


def prefix_ext(base, letter):
    def member(word):
        i = word.rfind(letter)
        return i >= 0 and base(word[i + 1 :])

    return member


def infix_ext(base, letter):
    def member(word):
        positions = [i for i, ch in enumerate(word) if ch == letter]
        return any(base(word[i + 1 : j]) for i, j in zip(positions, positions[1:]))

    return member


def is_primitive(word):
    """Non-empty and not u**p for any prime p dividing |w|: a proper power
    u**k is also (u**(k/p))**p for each prime p dividing k."""
    n = len(word)
    if n == 0:
        return False
    for p in _prime_divisors(n):
        if word == word[: n // p] * p:
            return False
    return True


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# command-line oracle name -> reference predicate
BY_SPEC = {
    "dyck": dyck,
    "counteq:a,b": counteq(),
    "majority:1": majority(1),
    "majority:3": majority(3),
    "o3": o3,
    "o4": o4,
    "goldstine": goldstine,
    "suffix-ext:dyck:c": suffix_ext(dyck, "c"),
    "prefix-ext:dyck:c": prefix_ext(dyck, "c"),
    "infix-ext:dyck:c": infix_ext(dyck, "c"),
    "suffix-ext:goldstine:c": suffix_ext(goldstine, "c"),
    "infix-ext:majority:1:c": infix_ext(majority(1), "c"),
    "prefix-ext:suffix-ext:dyck:c:d": prefix_ext(suffix_ext(dyck, "c"), "d"),
    "suffix-ext:pal:c": suffix_ext(pal, "c"),
    "prefix-ext:primitive:c": prefix_ext(is_primitive, "c"),
    "infix-ext:pal:c": infix_ext(pal, "c"),
    "kemp": suffix_ext(kemp_base, "c"),
}


def dfa_to_json(dfa):
    """The JSON interchange dict of a DFA."""
    return {
        "alphabet": list(dfa.alphabet.symbols),
        "states": dfa.n_states,
        "initial": dfa.initial,
        "accepting": sorted(dfa.accepting),
        "delta": [list(row) for row in dfa.delta],
    }


def raw_window_dfa(k):
    """Words over {a, b} of length >= 2k whose last k letters do not mirror
    the first k, as a k-letter prefix memory, a sliding window of the last
    k letters and a saturating counter of letters read beyond the prefix
    (not minimized: (2^(2k+1) - 1) reachable states)."""
    alphabet = Alphabet("ab")
    s = len(alphabet)
    index = {}
    delta = []
    accepting = set()

    def state_id(key):
        if key not in index:
            index[key] = len(delta)
            delta.append([None] * s)
        return index[key]

    start = state_id(("p", ""))
    pending = [("p", "")]
    seen = {("p", "")}
    while pending:
        key = pending.pop()
        sid = index[key]
        if key[0] == "p":
            prefix = key[1]
            for a, ch in enumerate(alphabet.symbols):
                grown = prefix + ch
                nxt = ("m", grown, grown, 0) if len(grown) == k else ("p", grown)
                delta[sid][a] = state_id(nxt)
                if nxt not in seen:
                    seen.add(nxt)
                    pending.append(nxt)
        else:
            _, first, window, extra = key
            if extra == k and window != first[::-1]:
                accepting.add(sid)
            for a, ch in enumerate(alphabet.symbols):
                nxt = ("m", first, window[1:] + ch, min(extra + 1, k))
                delta[sid][a] = state_id(nxt)
                if nxt not in seen:
                    seen.add(nxt)
                    pending.append(nxt)
    return Dfa(alphabet, len(delta), delta, start, accepting)


# -- hand-indexed machines ------------------------------------------------------

def mod_counter_dfa(k, a="a", b="b", loops=(), alphabet=None):
    """Words whose a-count and b-count differ modulo k; state i holds
    (count of a) - (count of b) mod k and letters in ``loops`` act as the
    identity."""
    if alphabet is None:
        alphabet = Alphabet((a, b) + tuple(loops))
    delta = []
    for i in range(k):
        row = []
        for ch in alphabet.symbols:
            if ch == a:
                row.append((i + 1) % k)
            elif ch == b:
                row.append((i - 1) % k)
            else:
                row.append(i)
        delta.append(row)
    return Dfa(alphabet, k, delta, 0, frozenset(range(1, k)))


def pair_counters_union(alphabet, pairs, k):
    """The o3/o4 outer machine as the union of two complemented counters,
    each looping on the letters outside its pair."""
    counters = []
    for a, b in pairs:
        loops = [ch for ch in alphabet.symbols if ch not in (a, b)]
        counters.append(mod_counter_dfa(k, a, b, loops, alphabet).complement())
    return counters[0].union(counters[1])


def goldstine_inner_dfa(k):
    """States j < k: j letters read, all matching the staircase prefix;
    div[j]: j letters read, already diverged; then a 2-state last-letter
    tail and a dead sink for words that completed the staircase prefix."""
    prefix = staircase_word_prefix(k)
    div = {j: k + j - 1 for j in range(1, k + 1)}
    tail_a, tail_b, dead = 2 * k, 2 * k + 1, 2 * k + 2
    delta = [[0, 0] for _ in range(2 * k + 3)]
    for j in range(k):
        for a, ch in enumerate("ab"):
            matches = ch == prefix[j]
            if j < k - 1:
                delta[j][a] = j + 1 if matches else div[j + 1]
            else:
                delta[j][a] = dead if matches else div[k]
    for j in range(1, k):
        delta[div[j]] = [div[j + 1], div[j + 1]]
    delta[div[k]] = [tail_a, tail_b]
    delta[tail_a] = delta[tail_b] = [tail_a, tail_b]
    delta[dead] = [dead, dead]
    return Dfa(Alphabet("ab"), 2 * k + 3, delta, 0, {tail_b})


def _word_trie_states(alphabet, max_exclusive):
    order = []
    for length in range(max_exclusive):
        order.extend(enumerate_words(alphabet, length))
    return {w: i for i, w in enumerate(order)}, order


def window_dfa(k):
    """The non-palindrome window machine before minimization: a trie of the
    prefixes shorter than k, then per k-letter prefix p a block of
    (k + 1)² states (e, j), unreachable ones included."""
    alphabet = Alphabet("ab")
    symbols = alphabet.symbols
    index, words = _word_trie_states(alphabet, k)
    width = (k + 1) * (k + 1)
    prefixes = enumerate_words(alphabet, k)
    index.update((p, len(words) + i * width) for i, p in enumerate(prefixes))
    delta = [[index[w + ch] for ch in symbols] for w in words]
    accepting = []
    for p in prefixes:
        block = index[p]
        matcher = _matcher_rows(p[::-1], symbols)
        for e in range(k + 1):
            after = block + min(e + 1, k) * (k + 1)
            delta.extend([after + j for j in row] for row in matcher)
        accepting.extend(block + k * (k + 1) + j for j in range(k))
    return Dfa(alphabet, len(delta), delta, 0, accepting)


def cylinder_trie_dfa(base, letter, n, outer):
    """The suffix sandwich machine as a shortlex-numbered trie of the base
    words shorter than n, then the absorbing free and dead states."""
    alphabet = Alphabet(base.alphabet.symbols + (letter,))
    s = len(base.alphabet)
    index, order = _word_trie_states(base.alphabet, n)
    free, dead = len(order), len(order) + 1
    beyond = free if outer else dead
    delta = [
        [index.get(word + ch, beyond) for ch in base.alphabet.symbols]
        + [free if base(word) else dead]
        for word in order
    ]
    delta.append([free] * (s + 1))
    delta.append([dead] * (s + 1))
    accepting = {free, *range(len(order))} if outer else {free}
    return Dfa(alphabet, len(order) + 2, delta, index.get("", beyond), accepting)


def cylinder_mass(base, n, members):
    """The density of the cylinders w·letter·B* over the base words w shorter
    than n that are members (non-members if ``members`` is false), for one
    fresh letter: a word of length l and the letter after it pick a cylinder
    of mass 1/(|A| + 1)^(l + 1).  Summed from ``member_counts``, which is
    unguarded, so a stepped base answers far past the enumeration budget
    (n = 200).  The inner extension sandwich below n has the members' mass,
    the outer one 1 minus the non-members' mass."""
    size = len(base.alphabet)
    total = Fraction(0)
    for length, count in enumerate(member_counts(base, n - 1)):
        hits = count if members else size ** length - count
        total += Fraction(hits, (size + 1) ** (length + 1))
    return total


def reverse(dfa):
    """NFA for the reversed language: every edge turned round, the accepting
    states initial and the initial state accepting."""
    transitions = {}
    for q, row in enumerate(dfa.delta):
        for a, t in enumerate(row):
            transitions.setdefault((t, a), set()).add(q)
    return Nfa(dfa.alphabet, dfa.n_states, transitions, dfa.accepting, {dfa.initial})


def prefix_trie_by_reversal(base, letter, n, outer):
    """The prefix sandwich machine (inner or ``outer``) as the reversal of
    the suffix machine over the reversed base, determinized and minimized:
    the prefix extension of B is the reversal of the suffix extension of
    B reversed."""
    reversed_base = LanguageOracle(
        base.name + "-reversed", base.alphabet, lambda w: base(w[::-1])
    )
    return reverse(cylinder_trie_dfa(reversed_base, letter, n, outer)).determinize().minimized()


def tail_trie_dfa(base, letter, n, outer):
    """The prefix sandwich machine as a raw trie of the words read since
    the last fresh letter, each decided by ``base(word)`` from the base's
    start, then minimized by Moore refinement: the state is the tail while
    it is shorter than n, the fresh letter restarts it at the empty word,
    and the one state ``outer`` stands for the words before the first fresh
    letter and for those whose tail outgrew the trie."""
    alphabet, _ = _trie_alphabet(base, letter, n)
    restart = "" if n > 0 else outer

    def successors(state):
        if type(state) is bool:
            return [state] * len(base.alphabet) + [restart]
        return [state + ch if len(state) + 1 < n else outer for ch in base.alphabet] + [restart]

    def accepting(state):
        return state if type(state) is bool else base(state)

    return build_dfa(alphabet, outer, successors, accepting).minimized()


def forbidden_word_by_factor_nfa(dfa):
    """Shortest, then shortlex-least, word that is a factor of no member:
    the least word outside the factor language, whose NFA has the useful
    states, all initial and all accepting, and the transitions among them."""
    useful = dfa.useful_states()
    transitions = {}
    for q in useful:
        for a, t in enumerate(dfa.delta[q]):
            if t in useful:
                transitions.setdefault((q, a), set()).add(t)
    factors = Nfa(dfa.alphabet, dfa.n_states, transitions, useful, useful).determinize()
    return shortlex_least_member(factors.complement())


def language_infinite(dfa):
    """True iff the language is infinite: a useful state lies on a cycle,
    read off the strongly connected components."""
    useful = dfa.useful_states()
    for comp in strongly_connected_components(dfa.delta):
        q = comp[0]
        if any(p in useful for p in comp) and (len(comp) > 1 or q in dfa.delta[q]):
            return True
    return False


def _then(first):
    """The map t -> 'apply first, then t' on transformation tuples."""
    if len(first) == 1:
        # one state: (0,) is the only transformation, and itemgetter of one
        # index would return a scalar instead of a 1-tuple
        return lambda t: t
    return itemgetter(*first)


class TupleMonoid:
    """Transition monoid of a minimal DFA, with witnesses and its right Cayley
    graph."""

    __slots__ = (
        "alphabet",
        "elements",
        "index",
        "identity",
        "generators",
        "witnesses",
        "minimal_dfa",
        "_right",
    )

    def __init__(self, alphabet, elements, index, identity, generators, witnesses, minimal_dfa,
                 right):
        self.alphabet = alphabet
        self.elements = elements
        self.index = index
        self.identity = identity
        self.generators = generators
        self.witnesses = witnesses
        self.minimal_dfa = minimal_dfa
        self._right = right

    def __len__(self):
        return len(self.elements)

    def compose(self, i, j):
        """Index of the transformation 'apply element i, then element j'."""
        return self.index[_then(self.elements[i])(self.elements[j])]

    def bracket(self, middle, goal):
        """The first (x, y) in index order with x·middle·y in ``goal``, or
        None."""
        size = len(self.elements)
        for x in range(size):
            left = self.compose(x, middle)
            for y in range(size):
                if self.compose(left, y) in goal:
                    return x, y
        return None

    def right_cayley(self):
        """right_cayley()[i][g] = index of element_i · generator_g."""
        return self._right

    def element_of_word(self, word):
        e = self.identity
        for ch in word:
            e = self._right[e][self.alphabet.rank(ch)]
        return e


def tuple_transition_monoid(dfa, budget=DEFAULT_MONOID_BUDGET):
    """Monoid of the minimal DFA plus its accept set.

    Elements are discovered breadth-first with letters in alphabet order, so
    each element's recorded witness is its shortlex-least word, and element
    indices increase in shortlex order of the witnesses.  Row i of the right
    Cayley graph is recorded when element i leaves the frontier.
    """
    minimal = dfa.minimized()
    n = minimal.n_states
    symbols = minimal.alphabet.symbols
    identity = tuple(range(n))
    elements = [identity]
    index = {identity: 0}
    witnesses = [""]
    right = []
    letter_maps = [
        tuple(minimal.delta[q][a] for q in range(n))
        for a in range(len(minimal.alphabet))
    ]
    frontier = 0
    while frontier < len(elements):
        then = _then(elements[frontier])
        word = witnesses[frontier]
        row = []
        for a, letter_map in enumerate(letter_maps):
            composed = then(letter_map)
            target = index.get(composed)
            if target is None:
                if len(elements) >= budget:
                    raise BudgetExceededError(
                        "transition monoid exceeds %d elements" % budget
                    )
                target = len(elements)
                index[composed] = target
                elements.append(composed)
                witnesses.append(word + symbols[a])
            row.append(target)
        right.append(tuple(row))  # tuples of ints drop out of the cycle collector
        frontier += 1
    monoid = TupleMonoid(
        minimal.alphabet,
        elements,
        index,
        0,
        list(right[0]),
        witnesses,
        minimal,
        right,
    )
    accept = frozenset(
        i for i, el in enumerate(elements) if el[minimal.initial] in minimal.accepting
    )
    return monoid, accept


def _step_counts(count_rows, vec):
    """One step of the count chain: the words of vec, each extended by a letter."""
    nxt = {}
    for q, w in vec.items():
        for t, c in count_rows[q].items():
            nxt[t] = nxt.get(t, 0) + w * c
    return nxt


def stationary_by_pinned_solve(comp, count_rows, s):
    """A closed class's stationary law as integer weights and their total,
    from one exact solve of all its balance equations Σ_p c_pq·π_p = s·π_q
    with the first state's equation replaced by the pin π_root = 1; the
    weights are the solution times its denominators' lcm."""
    pos = {q: i for i, q in enumerate(comp)}
    rows = [{i: -s} for i in range(len(comp))]
    for p in comp:
        for q, c in count_rows[p].items():
            row = rows[pos[q]]
            row[pos[p]] = row.get(pos[p], 0) + c
    rows[0] = {0: 1}
    solution = solve_exact(rows, [1] + [0] * (len(comp) - 1))
    scale = lcm(*(d for _, d in solution))
    weights = {q: n * (scale // d) for q, (n, d) in zip(comp, solution)}
    return weights, sum(weights.values())


def _phase_masses(chain, classes):
    """The lcm c of the class periods and, for each recurrent state, its
    class's limit of acceptance per phase, as reduced pairs, and its level:
    p times the accepting stationary mass of each phase, for period p.  A
    class given no law by the analysis takes it from the pinned solve."""
    phases = {}
    periods = []
    for comp, weights, total in classes:
        if weights is None:
            weights, total = stationary_by_pinned_solve(
                comp, chain.count_rows, chain.alphabet_size
            )
        period, level = _class_period_and_levels(comp, chain.count_rows)
        periods.append(period)
        accepting_by_phase = [[] for _ in range(period)]
        for q in comp:
            if q in chain.accepting:
                accepting_by_phase[level[q] % period].append((period * weights[q], (1, total)))
        masses = [_weighted_sum(terms) for terms in accepting_by_phase]
        for q in comp:
            phases[q] = masses, level[q]
    return lcm(*periods), phases


def natural_density_by_c_step(dfa):
    """``natural_density`` computed on the c-step count chain.

    A recurrent state is fixed at the accepting mass of its own phase; a
    transient state p solves s^c·f_p = Σ_q (P^c counts)_pq·f_q; the limit at
    residue k is Σ_q (P^k counts)_{initial, q}·f_q / s^k.
    """
    chain, classes, f_cesaro = _analyse(dfa)
    s = chain.alphabet_size
    dens = f_cesaro[chain.initial]
    c, phases = _phase_masses(chain, classes)
    phase_fixed = {q: masses[level % len(masses)] for q, (masses, level) in phases.items()}
    step_rows = []
    for p in range(chain.n):
        vec = {}
        if p not in phase_fixed:
            vec = {p: 1}
            for _ in range(c):
                vec = _step_counts(chain.count_rows, vec)
        step_rows.append(vec)
    sccs = strongly_connected_components([list(row) for row in step_rows])
    f_phase = _limit_vector(step_rows, s ** c, phase_fixed, sccs)
    vec = {chain.initial: 1}
    limits = []
    for k in range(c):
        limits.append(Fraction(*_weighted_sum((w, f_phase[q]) for q, w in vec.items())) / s ** k)
        vec = _step_counts(chain.count_rows, vec)
    return DensityReport(
        density=Fraction(*dens),
        natural_density=limits[0] if len(set(limits)) == 1 else None,
        modulus=c,
        accumulation_points=tuple(limits),
    )


def natural_density_by_phase_product(dfa):
    """``natural_density`` computed on the (state, phase) product of the
    one-step chain: node (q, j) holds the limit of acceptance along lengths
    ≡ j (mod c) from q, a letter takes it to (t, j − 1 mod c), and a
    recurrent q is fixed at the accepting mass of the phase its class
    reaches after j letters; the limits are the nodes (initial, j)."""
    chain, classes, f_cesaro = _analyse(dfa)
    dens = f_cesaro[chain.initial]
    c, phases = _phase_masses(chain, classes)

    def step(node):
        q, j = node
        if q in phases:
            return ()
        return [(t, (j - 1) % c) for t in chain.count_rows[q]]

    order, rows = explore([(chain.initial, j) for j in range(c)], step)
    step_rows = []
    fixed = {}
    for i, ((q, j), row) in enumerate(zip(order, rows)):
        # row lists the successors in count_rows[q]'s key order
        step_rows.append(dict(zip(row, chain.count_rows[q].values())))
        if q in phases:
            masses, phase = phases[q]
            fixed[i] = masses[(phase + j) % len(masses)]
    f = _limit_vector(step_rows, chain.alphabet_size, fixed, strongly_connected_components(rows))
    limits = [Fraction(*f[j]) for j in range(c)]
    return DensityReport(
        density=Fraction(*dens),
        natural_density=limits[0] if len(set(limits)) == 1 else None,
        modulus=c,
        accumulation_points=tuple(limits),
    )


def _berlekamp_massey(seq):
    """The shortest connection polynomial C, C[0] = 1, with Σ_i C[i]·seq[k − i]
    = 0 for every k ≥ deg C (Massey, 1969), over the rationals."""
    conn, prev = [Fraction(1)], [Fraction(1)]
    length, gap, last = 0, 1, Fraction(1)
    for k, value in enumerate(seq):
        discrepancy = value + sum(conn[i] * seq[k - i] for i in range(1, length + 1))
        if discrepancy == 0:
            gap += 1
            continue
        update = conn + [Fraction(0)] * max(0, len(prev) + gap - len(conn))
        for i, v in enumerate(prev):
            update[i + gap] -= discrepancy / last * v
        if 2 * length <= k:
            prev, length, last, gap = conn, k + 1 - length, discrepancy, 1
        else:
            gap += 1
        conn = update
    return conn[: length + 1] + [Fraction(0)] * (length + 1 - len(conn))


def _limit_by_rational_reconstruction(seq):
    """lim seq, for a convergent linearly recurrent sequence given by at
    least twice its order of terms: its generating function is P/Q with
    Q = C from Berlekamp-Massey, and the limit is lim_{x→1} (1 − x)·P/Q,
    which is 0 unless Q = (1 − x)·R, and P(1)/R(1) if it is."""
    conn = _berlekamp_massey(seq)
    order = len(conn) - 1
    numerator = [sum(conn[i] * seq[k - i] for i in range(k + 1)) for k in range(order)]
    if sum(conn) != 0:
        return Fraction(0)
    # R's coefficients are the prefix sums of Q's
    quotient, running = [], Fraction(0)
    for v in conn[:order]:
        running += v
        quotient.append(running)
    return sum(numerator) / sum(quotient)


def residue_limits_by_berlekamp_massey(dfa, modulus):
    """The limits of the acceptance ratios along each residue class of
    lengths mod ``modulus``, from ``Dfa.count_words`` alone.

    With n states the ratios b_k satisfy a linear recurrence of order at
    most n, and so does each decimated sequence b_{cm+r}; for a modulus
    that every recurrent class's period divides, each converges.  Each
    limit is read off the rational generating function that
    Berlekamp-Massey recovers from 2n + 2 terms of the decimated sequence.
    """
    terms = 2 * dfa.n_states + 2
    census = dfa.count_words(modulus * terms)
    ratios = [Fraction(count, census.alphabet_size ** k) for k, count in enumerate(census.counts)]
    return tuple(
        _limit_by_rational_reconstruction(ratios[r::modulus][:terms]) for r in range(modulus)
    )


def count_words_by_push(dfa, max_length):
    """``Dfa.count_words`` computed forwards over every state: the number of
    words of each length reaching each state, pushed along every edge."""
    if max_length < 0:
        raise ValueError("max_length must be non-negative")
    delta = dfa.delta
    vec = [0] * dfa.n_states
    vec[dfa.initial] = 1
    counts = [sum(vec[q] for q in dfa.accepting)]
    for _ in range(max_length):
        nxt = [0] * dfa.n_states
        for p, x in enumerate(vec):
            if x:
                for t in delta[p]:
                    nxt[t] += x
        vec = nxt
        counts.append(sum(vec[q] for q in dfa.accepting))
    return LengthCensus(len(dfa.alphabet), counts)
