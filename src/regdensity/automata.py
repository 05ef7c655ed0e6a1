"""Total DFAs and NFAs: Boolean algebra, minimization, exact word counting,
forbidden-word detection, and the two searches behind them: a breadth-first
explorer and a shortlex-least word search.

DFAs are always total (every state has a transition on every letter).
Every machine the package constructs comes from ``build_dfa``: the states
reachable from a start state under a successor function, numbered in BFS
discovery order with letters taken in alphabet order.  All operations are
pure and return such canonical machines, so structurally equal results are
language-equal and vice versa after minimization.  The explorer, and any
least-word search not bounded by length, refuses to discover more than
``STATE_BUDGET`` states, which bounds every automaton built or searched.
"""

import json
from itertools import chain
from operator import add, ne

from .core import Alphabet, BudgetExceededError, LengthCensus

STATE_BUDGET = 200_000  # states one exploration may discover


class Dfa:
    """A total deterministic finite automaton over an ordered alphabet."""

    __slots__ = ("alphabet", "n_states", "delta", "initial", "accepting")

    def __init__(self, alphabet, n_states, delta, initial, accepting):
        if n_states < 1:
            raise ValueError("a total DFA needs at least one state")
        delta = tuple(map(tuple, delta))
        if len(delta) != n_states:
            raise ValueError("transition table must have one row per state")
        targets = set(chain.from_iterable(delta))
        if (
            set(map(len, delta)) != {len(alphabet)}
            or not targets.issubset(range(n_states))
            # every target's type: in the set, a 1.0 may hide behind an int 1
            or set(map(type, chain.from_iterable(delta))) != {int}
        ):
            # some row is bad: walk them in order to name the first
            for q, row in enumerate(delta):
                if len(row) != len(alphabet):
                    raise ValueError("state %d: need one target per letter" % q)
                if any(not 0 <= t < n_states for t in row):
                    raise ValueError("state %d: transition target out of range" % q)
                if set(map(type, row)) - {int}:
                    bad = next(t for t in row if type(t) is not int)
                    raise ValueError("state %d: transition target %r is not an integer" % (q, bad))
        if not 0 <= initial < n_states:
            raise ValueError("initial state out of range")
        if type(initial) is not int:
            raise ValueError("initial state %r is not an integer" % (initial,))
        accepting = frozenset(accepting)
        if any(not 0 <= q < n_states for q in accepting):
            raise ValueError("accepting state out of range")
        if set(map(type, accepting)) - {int}:
            bad = next(q for q in accepting if type(q) is not int)
            raise ValueError("accepting state %r is not an integer" % (bad,))
        self.alphabet = alphabet
        self.n_states = n_states
        self.delta = delta
        self.initial = initial
        self.accepting = accepting

    def __eq__(self, other):
        return (
            isinstance(other, Dfa)
            and self.alphabet == other.alphabet
            and self.n_states == other.n_states
            and self.delta == other.delta
            and self.initial == other.initial
            and self.accepting == other.accepting
        )

    def __hash__(self):
        return hash((self.alphabet, self.delta, self.initial, self.accepting))

    def __repr__(self):
        return "Dfa(%r, states=%d, accepting=%s)" % (
            self.alphabet,
            self.n_states,
            sorted(self.accepting),
        )

    def run(self, word):
        """State reached from the initial state after reading ``word``."""
        q = self.initial
        delta = self.delta
        rank = self.alphabet.rank
        for ch in word:
            q = delta[q][rank(ch)]
        return q

    def accepts(self, word):
        return self.run(word) in self.accepting

    __call__ = accepts

    # -- Boolean algebra ---------------------------------------------------

    def complement(self):
        """DFA for the complement language (accepting set flipped)."""
        return Dfa(
            self.alphabet,
            self.n_states,
            self.delta,
            self.initial,
            frozenset(range(self.n_states)) - self.accepting,
        )

    def _product(self, other, keep):
        if self.alphabet != other.alphabet:
            raise ValueError("alphabet mismatch: %r vs %r" % (self.alphabet, other.alphabet))
        return build_dfa(
            self.alphabet,
            (self.initial, other.initial),
            _pair_successors(self, other),
            lambda pq: keep(pq[0] in self.accepting, pq[1] in other.accepting),
        )

    def union(self, other):
        return self._product(other, lambda x, y: x or y)

    def intersection(self, other):
        return self._product(other, lambda x, y: x and y)

    def difference(self, other):
        return self._product(other, lambda x, y: x and not y)

    # -- State-space structure ----------------------------------------------

    def reachable_states(self):
        return set(explore([self.initial], self.delta.__getitem__)[0])

    def useful_states(self):
        """Reachable states from which some accepting state can be reached."""
        rev = [[] for _ in range(self.n_states)]
        for q, row in enumerate(self.delta):
            for t in row:
                rev[t].append(q)
        return self.reachable_states() & set(explore(self.accepting, rev.__getitem__)[0])

    def minimized(self):
        """The unique minimal DFA, states renumbered canonically.

        Moore refinement in ``explore``'s order: each round keys a state by
        its block and its successors' blocks, read through one successor
        column per letter, and numbers the keys by first occurrence.
        """
        order, rows = explore([self.initial], self.delta.__getitem__)
        cols = list(zip(*rows))
        block = [1 if q in self.accepting else 0 for q in order]
        n_blocks = len(set(block))
        while True:
            sigs = {}
            number = sigs.setdefault
            block = [
                number(key, len(sigs))
                for key in zip(block, *[map(block.__getitem__, col) for col in cols])
            ]
            if len(sigs) == n_blocks:
                break
            n_blocks = len(sigs)
        rep = dict(zip(block, range(len(block))))  # one state of each block
        return build_dfa(
            self.alphabet,
            rep[block[0]],
            lambda i: [rep[block[j]] for j in rows[i]],
            lambda i: order[i] in self.accepting,
        )

    # -- Counting ------------------------------------------------------------

    def count_words(self, max_length):
        """Exact number of accepted words at each length 0..max_length,
        counted backwards: a_n(q), the accepted words of length n read from
        a reachable state q, starts at the acceptance indicator, a_{n+1}(q) =
        Σ_a a_n(δ(q, a)) is one gather per letter, and counts[n] = a_n(q_0)."""
        if max_length < 0:
            raise ValueError("max_length must be non-negative")
        order, rows = explore([self.initial], self.delta.__getitem__)
        first, *rest = zip(*rows)
        vec = [int(q in self.accepting) for q in order]
        counts = [vec[0]]
        for _ in range(max_length):
            get = vec.__getitem__
            nxt = map(get, first)
            for column in rest:
                nxt = map(add, nxt, map(get, column))
            vec = list(nxt)
            counts.append(vec[0])
        return LengthCensus(len(self.alphabet), counts)


class Nfa:
    """Nondeterministic automaton.

    ``transitions`` maps ``(state, letter_rank)`` to a set of states and may
    be sparse.
    """

    __slots__ = ("alphabet", "n_states", "transitions", "initials", "accepting")

    def __init__(self, alphabet, n_states, transitions, initials, accepting):
        self.alphabet = alphabet
        self.n_states = n_states
        self.transitions = {k: frozenset(v) for k, v in transitions.items()}
        self.initials = frozenset(initials)
        self.accepting = frozenset(accepting)
        limit = range(n_states)
        refs = set(self.initials) | set(self.accepting)
        for (q, a), targets in self.transitions.items():
            if not 0 <= a < len(alphabet):
                raise ValueError("letter rank %d out of range" % a)
            refs.add(q)
            refs.update(targets)
        if any(q not in limit for q in refs):
            raise ValueError("referenced state out of range")

    def determinize(self):
        """Equivalent total DFA via subset construction (canonical numbering)."""
        transitions = self.transitions

        def successors(subset):
            return [
                frozenset(t for q in subset for t in transitions.get((q, a), ()))
                for a in range(len(self.alphabet))
            ]

        return build_dfa(
            self.alphabet,
            self.initials,
            successors,
            lambda subset: not self.accepting.isdisjoint(subset),
        )


def explore(starts, successors):
    """Breadth-first search from the start states.

    Returns the states in discovery order and, for each of them, the
    discovery indices of ``successors(state)`` in the order listed (letter
    order for automata).  States must be hashable.  Raises
    BudgetExceededError rather than discover more than ``STATE_BUDGET``
    states.
    """
    order = list(dict.fromkeys(starts))
    index = {q: i for i, q in enumerate(order)}
    rows = []
    for q in order:
        row = []
        for t in successors(q):
            i = index.get(t)
            if i is None:
                if len(order) >= STATE_BUDGET:
                    raise BudgetExceededError(
                        "automaton exceeds %d reachable states" % STATE_BUDGET
                    )
                i = index[t] = len(order)
                order.append(t)
            row.append(i)
        rows.append(row)
    return order, rows


def build_dfa(alphabet, start, successors, accepting):
    """The DFA of the states reachable from ``start``, numbered in BFS
    discovery order.  ``successors(state)`` lists one successor per letter,
    in alphabet order, and ``accepting(state)`` decides each state."""
    order, delta = explore([start], successors)
    final = [i for i, q in enumerate(order) if accepting(q)]
    return Dfa(alphabet, len(order), delta, 0, final)


def least_word(start, successors, symbols, goal, max_length):
    """Shortlex-least word leading from ``start`` to a state that satisfies
    ``goal``, or None; only words up to ``max_length`` count unless it is None.

    ``successors(state)`` lists one successor per letter of ``symbols``, in
    order.  The search is layered by length, and a state's first word is its
    least one, so each state is expanded at most once.  Unbounded by length,
    it stops at ``STATE_BUDGET`` states as ``explore`` does.
    """
    limit = STATE_BUDGET if max_length is None else float("inf")
    seen = {start}
    layer = [(start, "")]
    length = 0
    while layer:
        for state, word in layer:
            if goal(state):
                return word
        if length == max_length:
            break
        grown = []
        for state, word in layer:
            for ch, t in zip(symbols, successors(state)):
                if t not in seen:
                    if len(seen) >= limit:
                        raise BudgetExceededError("automaton exceeds %d reachable states" % limit)
                    seen.add(t)
                    grown.append((t, word + ch))
        layer = grown
        length += 1
    return None


def _pair_successors(x, y):
    """Successors, letter by letter, of a state pair of two DFAs."""
    dx, dy = x.delta, y.delta
    return lambda pq: zip(dx[pq[0]], dy[pq[1]])


def equivalent(x, y):
    """Language equality of two DFAs over the same alphabet."""
    return find_difference_witness(x, y) is None


def _product_search(x, y, bad):
    """Shortlex-least word that takes the two DFAs to a state pair whose
    verdicts (in x, in y) are ``bad``, or None."""
    if x.alphabet != y.alphabet:
        raise ValueError("alphabet mismatch")
    return least_word(
        (x.initial, y.initial),
        _pair_successors(x, y),
        x.alphabet.symbols,
        lambda pq: bad(pq[0] in x.accepting, pq[1] in y.accepting),
        None,
    )


def find_difference_witness(x, y):
    """Shortlex-least word accepted by exactly one of the two DFAs, if any."""
    return _product_search(x, y, ne)


def is_subset(x, y):
    """Does L(x) ⊆ L(y) hold?  Decided on the reachable product only."""
    return _product_search(x, y, lambda in_x, in_y: in_x and not in_y) is None


def shortlex_least_member(dfa, min_length=-1):
    """Shortlex-least accepted word of length > ``min_length``, or None.

    States are paired with the number of letters still required, so each
    (state, need) pair is expanded at most once.
    """
    delta = dfa.delta
    return least_word(
        (dfa.initial, max(0, min_length + 1)),
        lambda qn: [(t, max(0, qn[1] - 1)) for t in delta[qn[0]]],
        dfa.alphabet.symbols,
        lambda qn: qn[1] == 0 and qn[0] in dfa.accepting,
        None,
    )


def has_forbidden_word(dfa):
    """Shortest (then shortlex-least) word w with L ∩ A*wA* = ∅, or None.

    None means the language is dense: every word occurs as a factor of some
    member.  Along a factor of a member every state is useful, so w is the
    least word that takes the set of useful states to the empty set in
    their subset machine, where a letter keeps only the useful targets.
    """
    useful = frozenset(dfa.useful_states())
    delta = dfa.delta
    letters = range(len(dfa.alphabet))
    return least_word(
        useful,
        lambda subset: [frozenset([delta[q][a] for q in subset]) & useful for a in letters],
        dfa.alphabet.symbols,
        lambda subset: not subset,
        None,
    )


def strongly_connected_components(successors):
    """Tarjan's algorithm, iterative.  Returns SCCs in reverse topological
    order (every component precedes the components that can reach it)."""
    n = len(successors)
    index = [0] * n  # 0 until visited
    low = [0] * n
    on_stack = [False] * n
    stack = []
    sccs = []
    counter = 1
    for root in range(n):
        if index[root]:
            continue
        work = [(root, iter(successors[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            for w in it:
                if not index[w]:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(successors[w])))
                    break
                elif on_stack[w]:
                    if index[w] < low[v]:
                        low[v] = index[w]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    sccs.append(comp)
    return sccs


def mod_counter_dfa(k):
    """DFA over {a, b} accepting words whose a-count and b-count differ
    modulo k: the state is (count of a) - (count of b) mod k."""
    if k < 1:
        raise ValueError("modulus must be at least 1")
    return build_dfa(Alphabet("ab"), 0, lambda i: ((i + 1) % k, (i - 1) % k), bool)


def even_length_dfa(alphabet):
    """Words of even length."""
    return build_dfa(alphabet, 0, lambda q: [1 - q] * len(alphabet), lambda q: q == 0)


def starts_with_dfa(letter, alphabet):
    """Words whose first letter is the given one: the state is None before
    the first letter, then whether it was the given one."""
    return build_dfa(
        alphabet,
        None,
        lambda first: [ch == letter if first is None else first for ch in alphabet],
        lambda first: first is True,
    )


def random_dfa(rng, n_states, alphabet):
    """Uniformly random total DFA, each state accepting with probability
    1/2; deterministic given the rng state."""
    delta = [
        [rng.randrange(n_states) for _ in range(len(alphabet))]
        for _ in range(n_states)
    ]
    accepting = frozenset(q for q in range(n_states) if rng.random() < 0.5)
    return Dfa(alphabet, n_states, delta, 0, accepting)


# -- JSON interchange -------------------------------------------------------

def _json_int(value, what):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError("%s must be an integer, got %r" % (what, value))
    return value


def _json_list(value, what):
    if not isinstance(value, list):
        raise ValueError("%s must be a list, got %r" % (what, value))
    return value


def dfa_from_json(document):
    """Build a DFA from the JSON interchange dict (or a JSON string).

    The document must be an object whose alphabet, accepting set, delta and
    delta rows are lists, and whose counts, indices and targets are integers
    (booleans are rejected).
    """
    if isinstance(document, str):
        document = json.loads(document)
    if not isinstance(document, dict):
        raise ValueError(
            "DFA document must be a JSON object, got %s" % type(document).__name__
        )
    try:
        alphabet = Alphabet(_json_list(document["alphabet"], "alphabet"))
        n_states = _json_int(document["states"], "states")
        initial = _json_int(document["initial"], "initial")
        accepting = [
            _json_int(q, "accepting state")
            for q in _json_list(document["accepting"], "accepting")
        ]
        delta = [
            [_json_int(t, "transition target") for t in _json_list(row, "delta row")]
            for row in _json_list(document["delta"], "delta")
        ]
    except KeyError as exc:
        raise ValueError("DFA document missing field %s" % exc) from None
    return Dfa(alphabet, n_states, delta, initial, accepting)
