"""Total DFAs and NFAs: Boolean algebra, minimization, exact word counting,
and forbidden-word / forbidden-prefix detection.

DFAs are always total (every state has a transition on every letter); input
constructors add a rejecting sink when needed.  All operations are pure and
return fresh automata with canonical state numbering (BFS discovery order,
letters taken in alphabet order), so structurally equal results are
language-equal and vice versa after minimization.
"""

import json
from collections import deque

from .core import Alphabet, LengthCensus


class Dfa:
    """A total deterministic finite automaton over an ordered alphabet."""

    __slots__ = ("alphabet", "n_states", "delta", "initial", "accepting")

    def __init__(self, alphabet, n_states, delta, initial, accepting):
        if n_states < 1:
            raise ValueError("a total DFA needs at least one state")
        delta = tuple(tuple(row) for row in delta)
        if len(delta) != n_states:
            raise ValueError("transition table must have one row per state")
        for q, row in enumerate(delta):
            if len(row) != len(alphabet):
                raise ValueError("state %d: need one target per letter" % q)
            if any(not 0 <= t < n_states for t in row):
                raise ValueError("state %d: transition target out of range" % q)
        if not 0 <= initial < n_states:
            raise ValueError("initial state out of range")
        accepting = frozenset(accepting)
        if any(not 0 <= q < n_states for q in accepting):
            raise ValueError("accepting state out of range")
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

    def step(self, state, symbol):
        return self.delta[state][self.alphabet.rank(symbol)]

    def run(self, word, state=None):
        """State reached from ``state`` (default: initial) after reading ``word``."""
        q = self.initial if state is None else state
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
        n_letters = len(self.alphabet)
        start = (self.initial, other.initial)
        index = {start: 0}
        order = [start]
        delta = []
        queue = deque([start])
        while queue:
            p, q = queue.popleft()
            row = []
            for a in range(n_letters):
                t = (self.delta[p][a], other.delta[q][a])
                if t not in index:
                    index[t] = len(order)
                    order.append(t)
                    queue.append(t)
                row.append(index[t])
            delta.append(row)
        accepting = frozenset(
            i
            for i, (p, q) in enumerate(order)
            if keep(p in self.accepting, q in other.accepting)
        )
        return Dfa(self.alphabet, len(order), delta, 0, accepting)

    def union(self, other):
        return self._product(other, lambda x, y: x or y)

    def intersection(self, other):
        return self._product(other, lambda x, y: x and y)

    def difference(self, other):
        return self._product(other, lambda x, y: x and not y)

    # -- State-space structure ----------------------------------------------

    def reachable_states(self):
        seen = {self.initial}
        queue = deque([self.initial])
        while queue:
            q = queue.popleft()
            for t in self.delta[q]:
                if t not in seen:
                    seen.add(t)
                    queue.append(t)
        return seen

    def coaccessible_states(self):
        """States from which some accepting state can be reached."""
        rev = [[] for _ in range(self.n_states)]
        for q, row in enumerate(self.delta):
            for t in row:
                rev[t].append(q)
        seen = set(self.accepting)
        queue = deque(seen)
        while queue:
            q = queue.popleft()
            for p in rev[q]:
                if p not in seen:
                    seen.add(p)
                    queue.append(p)
        return seen

    def useful_states(self):
        return self.reachable_states() & self.coaccessible_states()

    def is_empty(self):
        return not (self.reachable_states() & self.accepting)

    def minimized(self):
        """The unique minimal DFA, states renumbered canonically.

        Moore refinement over the reachable states: each round keys a state
        by its block and its successors' blocks, read through one successor
        column per letter, and numbers the keys by first occurrence.
        """
        reach = sorted(self.reachable_states())
        pos = {q: i for i, q in enumerate(reach)}
        rows = [self.delta[q] for q in reach]
        cols = [[pos[row[a]] for row in rows] for a in range(len(self.alphabet))]
        block = [1 if q in self.accepting else 0 for q in reach]
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
        rep_delta = {}
        for i in range(len(reach)):
            if block[i] not in rep_delta:
                rep_delta[block[i]] = [block[col[i]] for col in cols]
        init_block = block[pos[self.initial]]
        acc_blocks = frozenset(block[pos[q]] for q in reach if q in self.accepting)
        quotient = Dfa(
            self.alphabet,
            len(rep_delta),
            [rep_delta[b] for b in range(len(rep_delta))],
            init_block,
            acc_blocks,
        )
        return _renumber_bfs(quotient)

    # -- Counting ------------------------------------------------------------

    def count_words(self, max_length):
        """Exact number of accepted words at each length 0..max_length."""
        if max_length < 0:
            raise ValueError("max_length must be non-negative")
        delta = self.delta
        vec = [0] * self.n_states
        vec[self.initial] = 1
        counts = [sum(vec[q] for q in self.accepting)]
        for _ in range(max_length):
            nxt = [0] * self.n_states
            for p, x in enumerate(vec):
                if x:
                    for t in delta[p]:
                        nxt[t] += x
            vec = nxt
            counts.append(sum(vec[q] for q in self.accepting))
        return LengthCensus(len(self.alphabet), counts)


def combine(x, y, op):
    """Boolean combination of two DFAs: ``union``, ``intersection`` or ``difference``."""
    try:
        method = {"union": Dfa.union, "intersection": Dfa.intersection,
                  "difference": Dfa.difference}[op]
    except KeyError:
        raise ValueError("unknown combine op %r" % (op,)) from None
    return method(x, y)


class Nfa:
    """Nondeterministic automaton with optional epsilon edges.

    ``transitions`` maps ``(state, letter_rank)`` to a set of states and may
    be sparse; ``epsilon`` maps a state to a set of states.
    """

    __slots__ = ("alphabet", "n_states", "transitions", "epsilon", "initials", "accepting")

    def __init__(self, alphabet, n_states, transitions, initials, accepting, epsilon=None):
        self.alphabet = alphabet
        self.n_states = n_states
        self.transitions = {k: frozenset(v) for k, v in transitions.items()}
        self.epsilon = {k: frozenset(v) for k, v in (epsilon or {}).items()}
        self.initials = frozenset(initials)
        self.accepting = frozenset(accepting)
        limit = range(n_states)
        refs = set(self.initials) | set(self.accepting)
        for (q, a), targets in self.transitions.items():
            if not 0 <= a < len(alphabet):
                raise ValueError("letter rank %d out of range" % a)
            refs.add(q)
            refs.update(targets)
        for q, targets in self.epsilon.items():
            refs.add(q)
            refs.update(targets)
        if any(q not in limit for q in refs):
            raise ValueError("referenced state out of range")

    def _closure(self, states):
        result = set(states)
        queue = deque(result)
        while queue:
            q = queue.popleft()
            for t in self.epsilon.get(q, ()):
                if t not in result:
                    result.add(t)
                    queue.append(t)
        return frozenset(result)

    def determinize(self):
        """Equivalent total DFA via subset construction (canonical numbering)."""
        n_letters = len(self.alphabet)
        start = self._closure(self.initials)
        index = {start: 0}
        order = [start]
        delta = []
        queue = deque([start])
        while queue:
            subset = queue.popleft()
            row = []
            for a in range(n_letters):
                nxt = set()
                for q in subset:
                    nxt.update(self.transitions.get((q, a), ()))
                nxt = self._closure(nxt)
                if nxt not in index:
                    index[nxt] = len(order)
                    order.append(nxt)
                    queue.append(nxt)
                row.append(index[nxt])
            delta.append(row)
        accepting = frozenset(
            i for i, subset in enumerate(order) if subset & self.accepting
        )
        return Dfa(self.alphabet, len(order), delta, 0, accepting)


def determinize(nfa):
    return nfa.determinize()


def reverse(dfa):
    """NFA for the reversed language."""
    transitions = {}
    for q, row in enumerate(dfa.delta):
        for a, t in enumerate(row):
            transitions.setdefault((t, a), set()).add(q)
    return Nfa(dfa.alphabet, dfa.n_states, transitions, dfa.accepting, {dfa.initial})


def _renumber_bfs(dfa):
    """Renumber reachable states in BFS discovery order (letters in order)."""
    order = [dfa.initial]
    index = {dfa.initial: 0}
    queue = deque(order)
    while queue:
        q = queue.popleft()
        for t in dfa.delta[q]:
            if t not in index:
                index[t] = len(order)
                order.append(t)
                queue.append(t)
    delta = [[index[dfa.delta[q][a]] for a in range(len(dfa.alphabet))] for q in order]
    accepting = frozenset(index[q] for q in dfa.accepting if q in index)
    return Dfa(dfa.alphabet, len(order), delta, 0, accepting)


def equivalent(x, y):
    """Language equality of two DFAs over the same alphabet."""
    return find_difference_witness(x, y) is None


def find_difference_witness(x, y):
    """Shortlex-least word accepted by exactly one of the two DFAs, if any."""
    if x.alphabet != y.alphabet:
        raise ValueError("alphabet mismatch")
    start = (x.initial, y.initial)
    seen = {start}
    queue = deque([(start, "")])
    while queue:
        (p, q), word = queue.popleft()
        if (p in x.accepting) != (q in y.accepting):
            return word
        for a, ch in enumerate(x.alphabet.symbols):
            t = (x.delta[p][a], y.delta[q][a])
            if t not in seen:
                seen.add(t)
                queue.append((t, word + ch))
    return None


def is_subset(x, y):
    """Does L(x) ⊆ L(y) hold?  Decided on the reachable product only."""
    if x.alphabet != y.alphabet:
        raise ValueError("alphabet mismatch")
    start = (x.initial, y.initial)
    seen = {start}
    queue = deque([start])
    while queue:
        p, q = queue.popleft()
        if p in x.accepting and q not in y.accepting:
            return False
        for a in range(len(x.alphabet)):
            t = (x.delta[p][a], y.delta[q][a])
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return True


def shortlex_least_member(dfa, min_length=-1):
    """Shortlex-least accepted word of length > ``min_length``, or None.

    BFS layered by length with letters taken in alphabet order; states are
    paired with the number of letters still required, so each (state, need)
    pair is expanded at most once.
    """
    need = max(0, min_length + 1)
    start = (dfa.initial, need)
    seen = {start}
    queue = deque([(start, "")])
    while queue:
        (q, need), word = queue.popleft()
        if need == 0 and q in dfa.accepting:
            return word
        for a, ch in enumerate(dfa.alphabet.symbols):
            t = (dfa.delta[q][a], max(0, need - 1))
            if t not in seen:
                seen.add(t)
                queue.append((t, word + ch))
    return None


def _factor_language_dfa(dfa):
    """DFA of the factor language: all factors of all accepted words."""
    useful = dfa.useful_states()
    transitions = {}
    for q in useful:
        for a, t in enumerate(dfa.delta[q]):
            if t in useful:
                transitions.setdefault((q, a), set()).add(t)
    nfa = Nfa(dfa.alphabet, dfa.n_states, transitions, useful, useful)
    return nfa.determinize()


def _prefix_language_dfa(dfa):
    """DFA of the prefix language: all prefixes of all accepted words."""
    useful = dfa.useful_states()
    n = dfa.n_states
    sink = n
    delta = []
    for q in range(n):
        row = []
        for a in range(len(dfa.alphabet)):
            t = dfa.delta[q][a]
            row.append(t if (q in useful and t in useful) else sink)
        delta.append(row)
    delta.append([sink] * len(dfa.alphabet))
    initial = dfa.initial
    accepting = frozenset(useful)
    if initial not in useful:
        # language is empty; no word (not even epsilon) is a prefix
        accepting = frozenset()
    return Dfa(dfa.alphabet, n + 1, delta, initial, accepting)


def has_forbidden_word(dfa):
    """Shortest (then shortlex-least) word w with L ∩ A*wA* = ∅, or None.

    None means the language is dense: every word occurs as a factor of some
    member.
    """
    factors = _factor_language_dfa(dfa)
    return shortlex_least_member(factors.complement())


def has_forbidden_prefix(dfa):
    """Shortest (then shortlex-least) word w with L ∩ wA* = ∅, or None."""
    prefixes = _prefix_language_dfa(dfa)
    return shortlex_least_member(prefixes.complement())


def language_infinite(dfa):
    """True iff the language is infinite (a useful state lies on a cycle)."""
    useful = dfa.useful_states()
    sccs = strongly_connected_components(
        [[t for t in dfa.delta[q]] for q in range(dfa.n_states)]
    )
    for comp in sccs:
        comp_useful = [q for q in comp if q in useful]
        if not comp_useful:
            continue
        if len(comp) > 1:
            return True
        q = comp[0]
        if q in dfa.delta[q] and q in useful:
            return True
    return False


def is_coinfinite(dfa):
    return language_infinite(dfa.complement())


def strongly_connected_components(successors):
    """Tarjan's algorithm, iterative.  Returns SCCs in reverse topological
    order (every component precedes the components that can reach it)."""
    n = len(successors)
    index = [0] * n
    low = [0] * n
    on_stack = [False] * n
    visited = [False] * n
    stack = []
    sccs = []
    counter = [1]
    for root in range(n):
        if visited[root]:
            continue
        work = [(root, iter(successors[root]))]
        visited[root] = True
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if not visited[w]:
                    visited[w] = True
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(successors[w])))
                    advanced = True
                    break
                elif on_stack[w]:
                    if index[w] < low[v]:
                        low[v] = index[w]
            if advanced:
                continue
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


def mod_counter_dfa(k, a="a", b="b", loops=(), alphabet=None):
    """DFA accepting words whose a-count and b-count differ modulo k.

    State i holds (count of a) - (count of b) mod k; letters in ``loops`` act
    as the identity.  Accepting states are all nonzero residues.
    """
    if k < 1:
        raise ValueError("modulus must be at least 1")
    if a == b:
        raise ValueError("the two counted letters must differ")
    loops = tuple(loops)
    if a in loops or b in loops:
        raise ValueError("self-loop letters must be disjoint from the counted pair")
    if alphabet is None:
        alphabet = Alphabet((a, b) + loops)
    for ch in (a, b) + loops:
        if ch not in alphabet:
            raise ValueError("letter %r missing from alphabet %r" % (ch, alphabet))
    if set(alphabet.symbols) - set((a, b) + loops):
        raise ValueError("alphabet contains letters with no assigned action")
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


def random_dfa(rng, n_states, alphabet, accept_prob=0.5):
    """Uniformly random total DFA; deterministic given the rng state."""
    delta = [
        [rng.randrange(n_states) for _ in range(len(alphabet))]
        for _ in range(n_states)
    ]
    accepting = frozenset(q for q in range(n_states) if rng.random() < accept_prob)
    return Dfa(alphabet, n_states, delta, 0, accepting)


# -- JSON interchange -------------------------------------------------------

def dfa_to_json(dfa):
    """Serialise a DFA to the JSON interchange dict."""
    return {
        "alphabet": list(dfa.alphabet.symbols),
        "states": dfa.n_states,
        "initial": dfa.initial,
        "accepting": sorted(dfa.accepting),
        "delta": [list(row) for row in dfa.delta],
    }


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
