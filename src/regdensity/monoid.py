"""Transition monoids, Green's relations, and non-primitive-word witnesses.

The syntactic monoid of a regular language is realised concretely as the
transition monoid of its minimal DFA: elements are state transformations,
composition is left-to-right ("read u, then v").  The elements are
enumerated breadth-first, and each new element records its BFS parent, the
element and letter it was first reached from; its shortlex-least witness
word is read off that parent chain.  The right Cayley graph is recorded
while the elements are enumerated (Froidure & Pin), as one column per
letter: ``columns[a][i]`` is the index of element_i·a.

Green's relations need no pass of Tarjan's algorithm over the elements
(East, Egri-Nagy, Mitchell & Péresse, "Computing finite semigroups").
Images move along the orbit of the state set, im(x·a) = im(x)·a, and x R x·a
exactly when im(x·a) lies in the strongly connected component of im(x) in
that orbit: if im(x)·a·w = im(x), then s = a·w permutes im(x), so x·s^k = x
for some k.  Finite monoids are stable: a right edge x -> x·a that stays
in its J-class stays in its R-class, and a left edge x -> g·x that stays in
its J-class stays in its L-class.  So J = D is the SCCs of the small graph
of left edges on the R-classes.  Everything stays linear in the number of
monoid elements.

The class counts need no L-class of every element.  By Green's lemma
("On the structure of semigroups", 1951) every R-class of a D-class meets
every L-class of it, in H-classes of one size: that is the egg-box, and
|D| = #R(D)·#L(D)·|H|.  So one L-class L_x per J-class D, found by
composing its least member x on the left, gives #L(D) = |D| / |L_x| and
#H(D) = #R(D)·#L(D).  No element's own L- or H-class is computed.
"""

from collections import Counter
from dataclasses import dataclass
from itertools import compress, count
from operator import itemgetter

from .automata import explore, strongly_connected_components
from .core import BudgetExceededError
from .density import density
from .languages import is_primitive

DEFAULT_MONOID_BUDGET = 50_000
BYTE_STATES = 256  # a minimal DFA with at most this many states has bytes elements


def _transformation(images):
    """The state map q -> images[q]: ``bytes`` when every state fits in a
    byte, a tuple otherwise."""
    return bytes(images) if len(images) <= BYTE_STATES else tuple(images)


def _operand(second):
    """``second`` as ``_composition`` takes it: a bytes element padded to
    the 256-byte table of ``bytes.translate``."""
    return second.ljust(256, b"\0") if type(second) is bytes else second


def _composition(n):
    """The function (first, second) -> 'apply first, then second' on the
    elements of the monoid of an n-state DFA, for second given by
    ``_operand``: ``bytes.translate`` on bytes elements."""
    if n <= BYTE_STATES:
        return bytes.translate
    return lambda first, second: itemgetter(*first)(second)  # n > 256 indices: a tuple


class Monoid:
    """Transition monoid of a minimal DFA, with BFS parents and its right
    Cayley graph."""

    __slots__ = (
        "alphabet",
        "elements",
        "index",
        "identity",
        "generators",
        "minimal_dfa",
        "_compose",
        "_parent",
        "_letter",
        "_columns",
    )

    def __init__(self, alphabet, elements, index, minimal_dfa, parent, letter, columns, compose):
        self.alphabet = alphabet
        self.elements = elements
        self.index = index
        self.identity = 0
        self.generators = [column[0] for column in columns]
        self.minimal_dfa = minimal_dfa
        self._compose = compose
        self._parent = parent
        self._letter = letter
        self._columns = columns

    def __len__(self):
        return len(self.elements)

    def compose(self, i, j):
        """Index of the transformation 'apply element i, then element j'."""
        return self.index[self._compose(self.elements[i], _operand(self.elements[j]))]

    def witness(self, i):
        """The shortlex-least word evaluating to element i: the letters on
        its BFS parent chain, read from the identity down."""
        symbols = self.alphabet.symbols
        parent, letter = self._parent, self._letter
        word = []
        while i != self.identity:
            word.append(symbols[letter[i]])
            i = parent[i]
        return "".join(reversed(word))

    def bracket(self, middle, goal):
        """The first (x, y) in index order with x·middle·y in ``goal``, or
        None.  For each x, p·y with p = x·middle is read in index order as
        p·parent(y) followed by letter(y) on the right Cayley graph."""
        size = len(self.elements)
        parents, steps = self._parent[1:], [self._columns[a] for a in self._letter[1:]]
        products = [0] * size
        for x in range(size):
            p = self.compose(x, middle)
            if p in goal:
                return x, self.identity
            products[0] = p
            for y, j, step in zip(range(1, size), parents, steps):
                products[y] = py = step[products[j]]
                if py in goal:
                    return x, y
        return None

    def _along(self, first, columns):
        """Values down the BFS tree: value 0 is ``first``, and element
        i = j·a, with j its BFS parent and a its letter, takes
        columns[a][value j].  The columns are looked up once."""
        parents, steps = self._parent[1:], [columns[a] for a in self._letter[1:]]
        values = [first]
        append = values.append
        for j, step in zip(parents, steps):
            append(step[values[j]])
        return values

    def element_of_word(self, word):
        columns, rank = self._columns, self.alphabet.rank
        e = self.identity
        for ch in word:
            e = columns[rank(ch)][e]
        return e


def transition_monoid(dfa, budget=DEFAULT_MONOID_BUDGET):
    """Monoid of the minimal DFA plus its accept set: the frozenset of the
    indices of the elements that send the initial state into the accepting
    set, whose preimage under the evaluation morphism is the language.

    Elements are discovered breadth-first with letters in alphabet order, so
    the parent chain each element records, the element and letter it was
    first reached from, spells its shortlex-least witness, and element
    indices increase in shortlex order of the witnesses.  Entry i of each
    letter's right Cayley column is appended when element i leaves the
    frontier; the witnesses are read off the parents when asked for.
    Elements are ``bytes`` state maps, extended by a letter with one
    ``bytes.translate``, up to BYTE_STATES states, and tuples above.
    """
    minimal = dfa.minimized()
    n = minimal.n_states
    compose = _composition(n)
    identity = _transformation(range(n))
    elements = [identity]
    index = {identity: 0}
    parent = [0]  # the identity's parent and letter are never read
    letter = [0]
    columns = [[] for _ in minimal.alphabet.symbols]
    letter_maps = [
        (a, columns[a].append, _operand(_transformation([minimal.delta[q][a] for q in range(n)])))
        for a in range(len(minimal.alphabet))
    ]
    find = index.get
    new_element, new_parent, new_letter = elements.append, parent.append, letter.append
    for frontier, element in enumerate(elements):  # elements grows while it is read
        for a, record, letter_map in letter_maps:
            composed = compose(element, letter_map)
            target = find(composed)
            if target is None:
                target = len(elements)
                if target >= budget:
                    raise BudgetExceededError(
                        "transition monoid exceeds %d elements" % budget
                    )
                index[composed] = target
                new_element(composed)
                new_parent(frontier)
                new_letter(a)
            record(target)
    monoid = Monoid(minimal.alphabet, elements, index, minimal, parent, letter, columns, compose)
    images = map(itemgetter(minimal.initial), elements)  # of the initial state
    return monoid, frozenset(compress(count(), map(minimal.accepting.__contains__, images)))


@dataclass(frozen=True)
class GreenClasses:
    """Green's R and J classes of a monoid, one class id per element, plus
    the minimal J-class and the class counts.

    Ids are canonical: R and J classes are numbered by least member.
    ``j_minimal`` holds the one J-class id that is J-below every other, the
    monoid's minimal ideal.  ``counts`` is the number of (J, R, L, H)
    classes, from the egg-box: no element's own L- or H-class is kept.
    """

    r_class: tuple
    j_class: tuple
    j_minimal: tuple
    counts: tuple

    def in_minimal_ideal(self, elements):
        """The given elements that lie in the minimal ideal, in index order.
        A language is null exactly when none of its accept set does."""
        return sorted(i for i in elements if self.j_class[i] in self.j_minimal)


def _keyed_classes(columns, key):
    """Class ids by least member, and each class's least member, for a
    ``key`` that the edges of Cayley ``columns`` keep exactly inside a class:
    each class is a DFS from its least member along the edges keeping it."""
    assignment = [-1] * len(key)
    roots = []
    for root, k in enumerate(key):
        if assignment[root] < 0:
            assignment[root] = c = len(roots)
            roots.append(root)
            stack = [root]
            while stack:
                v = stack.pop()
                for column in columns:
                    t = column[v]
                    if assignment[t] < 0 and key[t] == k:
                        assignment[t] = c
                        stack.append(t)
    return assignment, roots


def _component_ids(successors):
    """Each node's SCC id, with components numbered by least member."""
    ids = [0] * len(successors)
    for c, comp in enumerate(sorted(strongly_connected_components(successors), key=min)):
        for v in comp:
            ids[v] = c
    return ids


def green_classes(monoid):
    """Green's classes of ``monoid`` from its image orbit, its right Cayley
    graph and left compositions at one element per R-class and per L_x."""
    delta, letters = monoid.minimal_dfa.delta, range(len(monoid.alphabet))
    _, steps = explore(
        [frozenset(range(monoid.minimal_dfa.n_states))],
        lambda subset: [frozenset([delta[q][a] for q in subset]) for a in letters],
    )
    image = monoid._along(0, list(zip(*steps)))  # im(p·a) = im(p)·a, down the BFS tree
    component = _component_ids(steps)
    r_class, r_roots = _keyed_classes(monoid._columns, [component[v] for v in image])

    # R is a left congruence, so g·x lands in one R-class for every x of an
    # R-class: the left edges of each least member span the R-quotient.
    # Right edges that leave an R-class leave its J-class (stability), so
    # the J-classes are the SCCs of this quotient.
    compose, generators = monoid.compose, monoid.generators
    quotient = [[r_class[compose(g, x)] for g in generators] for x in r_roots]
    j_of_r = _component_ids(quotient)
    j_class = [j_of_r[r] for r in r_class]

    # The egg-box: the left edges from D's least member x that keep D span
    # L_x (stability), and every L-class of D has |L_x| elements.
    size, r_count = Counter(j_class), Counter(j_of_r)
    least = {}
    for r, c in enumerate(j_of_r):
        least.setdefault(c, r_roots[r])
    l_total = h_total = 0
    for c, x in least.items():
        l_x, stack = {x}, [x]
        while stack:
            y = stack.pop()
            for g in generators:
                t = compose(g, y)
                if t not in l_x and j_class[t] == c:
                    l_x.add(t)
                    stack.append(t)
        l_count = size[c] // len(l_x)
        l_total += l_count
        h_total += r_count[c] * l_count

    # A finite monoid has exactly one minimal J-class, its minimal ideal K.
    # No generator leads out of K, as K is an ideal.  From x outside K,
    # k·x lies in K for every k in K, so the left Cayley graph leads out of
    # the class of x: K is the one class that no quotient edge leaves.
    exits = {j_of_r[r] for r, row in enumerate(quotient) for s in row if j_of_r[s] != j_of_r[r]}
    j_minimal = tuple(c for c in range(len(least)) if c not in exits)

    counts = (len(least), len(r_roots), l_total, h_total)
    return GreenClasses(tuple(r_class), tuple(j_class), j_minimal, counts)


def idempotent_power(monoid, element):
    """Least n >= 1 such that element**n is idempotent."""
    power = element
    for n in range(1, len(monoid.elements) + 2):
        if monoid.compose(power, power) == power:
            return n
        power = monoid.compose(power, element)
    raise AssertionError("finite monoid must reach an idempotent power")


def nonprimitive_witness(dfa):
    """A pair (w, n) with w**(m*n+1) accepted and non-primitive for all m >= 1.

    Requires a non-null language.  The word w evaluates to a J-minimal
    element t of the accept set (the shortlex-least such witness); n is the
    idempotent power of t.  Membership and non-primitivity of the first
    three powers are verified before returning.
    """
    if density(dfa) == 0:
        raise ValueError("language is null: no non-primitive member is guaranteed")
    monoid, accept = transition_monoid(dfa)
    return witness_in_monoid(dfa, monoid, green_classes(monoid).in_minimal_ideal(accept))


def witness_in_monoid(dfa, monoid, candidates):
    """``nonprimitive_witness`` for a non-null ``dfa`` from its transition
    monoid and the accept elements of its minimal ideal, ``candidates``."""
    if not candidates:
        raise AssertionError("non-null language must meet a J-minimal element")
    t = min(candidates)  # element indices follow the shortlex order of witnesses
    n = idempotent_power(monoid, t)
    word = monoid.witness(t)
    if word == "":
        # the J-minimal element is the identity; extend through a letter and
        # close the loop inside the same J-class
        letter = monoid.alphabet.symbols[0]
        found = monoid.bracket(monoid.compose(t, monoid.generators[0]), {t})
        if found is None:
            raise AssertionError("J-minimality must allow recovering the element")
        x, y = found
        word = monoid.witness(x) + letter + monoid.witness(y)
    for m in (1, 2, 3):
        power = word * (m * n + 1)
        if not dfa.accepts(power):
            raise AssertionError("witness power %r left the language" % power)
        if is_primitive(power):
            raise AssertionError("witness power %r is primitive" % power)
    return word, n
