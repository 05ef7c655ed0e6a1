"""Transition monoids, Green's relations, and non-primitive-word witnesses.

The syntactic monoid of a regular language is realised concretely as the
transition monoid of its minimal DFA: elements are state transformations,
composition is left-to-right ("read u, then v").  The elements are
enumerated breadth-first, and each new element records its BFS parent, the
element and letter it was first reached from; its shortlex-least witness
word is read off that parent chain.  The right Cayley graph is recorded
while the elements are enumerated (Froidure & Pin), and each left Cayley
row is derived from its parent's row through the right Cayley graph.

Green's relations need no pass of Tarjan's algorithm over the elements
(East, Egri-Nagy, Mitchell & Péresse, "Computing finite semigroups").
Images move along the orbit of the state set, im(x·a) = im(x)·a, and x R x·a
exactly when im(x·a) lies in the strongly connected component of im(x) in
that orbit: if im(x)·a·w = im(x), then s = a·w permutes im(x), so x·s^k = x
for some k.  Finite monoids are stable: an edge of either Cayley graph that
stays in its J-class stays in its R-class (right) or L-class (left).  So
J = D is the SCCs of the small graph of left edges on the R-classes, and the
L-classes are spanned by the left edges that keep the J-class.  Everything
stays linear in the number of monoid elements.
"""

from dataclasses import dataclass
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
    """``second`` in the form the maps from ``_then`` take: a bytes element
    padded to the 256-byte table of ``bytes.translate``."""
    return second.ljust(256, b"\0") if type(second) is bytes else second


def _then(first):
    """The map t -> 'apply first, then t', for t given by ``_operand``."""
    if type(first) is bytes:
        return first.translate
    return itemgetter(*first)  # more than BYTE_STATES states, so never one index


class Monoid:
    """Transition monoid of a minimal DFA, with BFS parents and Cayley graphs."""

    __slots__ = (
        "alphabet",
        "elements",
        "index",
        "identity",
        "generators",
        "minimal_dfa",
        "_parent",
        "_letter",
        "_right",
        "_left",
    )

    def __init__(self, alphabet, elements, index, identity, generators, minimal_dfa, parent,
                 letter, right):
        self.alphabet = alphabet
        self.elements = elements
        self.index = index
        self.identity = identity
        self.generators = generators
        self.minimal_dfa = minimal_dfa
        self._parent = parent
        self._letter = letter
        self._right = right
        self._left = None

    def __len__(self):
        return len(self.elements)

    def compose(self, i, j):
        """Index of the transformation 'apply element i, then element j'."""
        return self.index[_then(self.elements[i])(_operand(self.elements[j]))]

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
        right, parent, letter = self._right, self._parent, self._letter
        size = len(self.elements)
        products = [0] * size
        for x in range(size):
            p = self.compose(x, middle)
            if p in goal:
                return x, self.identity
            products[0] = p
            for y in range(1, size):
                products[y] = py = right[products[parent[y]]][letter[y]]
                if py in goal:
                    return x, y
        return None

    def right_cayley(self):
        """right_cayley()[i][g] = index of element_i · generator_g."""
        return self._right

    def left_cayley(self):
        """left_cayley()[i][g] = index of generator_g · element_i.

        Row i is derived from its BFS parent j, i = j·a, as
        g·i = (g·j)·a: one right Cayley step per generator."""
        if self._left is None:
            right = self._right
            left = [right[self.identity]]  # g·1 = g
            for j, a in zip(self._parent[1:], self._letter[1:]):
                left.append(tuple([right[gj][a] for gj in left[j]]))
            self._left = left
        return self._left

    def element_of_word(self, word):
        e = self.identity
        for ch in word:
            e = self._right[e][self.alphabet.rank(ch)]
        return e


@dataclass(frozen=True)
class AcceptSet:
    """Monoid elements whose transformation sends the initial state into the
    accepting set; their preimage under the evaluation morphism is the
    language itself."""

    elements: frozenset


def transition_monoid(dfa, budget=DEFAULT_MONOID_BUDGET):
    """Monoid of the minimal DFA plus its accept set.

    Elements are discovered breadth-first with letters in alphabet order, so
    the parent chain each element records, the element and letter it was
    first reached from, spells its shortlex-least witness, and element
    indices increase in shortlex order of the witnesses.  Row i of the right
    Cayley graph is recorded when element i leaves the frontier; left rows
    and witnesses are derived from the parents when asked for.  Elements are
    ``bytes`` state maps, extended by a letter with one ``bytes.translate``,
    up to BYTE_STATES states, and tuples above.
    """
    minimal = dfa.minimized()
    n = minimal.n_states
    identity = _transformation(range(n))
    elements = [identity]
    index = {identity: 0}
    parent = [0]  # the identity's parent and letter are never read
    letter = [0]
    right = []
    letter_maps = [
        (a, _operand(_transformation([minimal.delta[q][a] for q in range(n)])))
        for a in range(len(minimal.alphabet))
    ]
    find = index.get
    for frontier, element in enumerate(elements):  # elements grows while it is read
        then = _then(element)
        row = []
        for a, letter_map in letter_maps:
            composed = then(letter_map)
            target = find(composed)
            if target is None:
                if len(elements) >= budget:
                    raise BudgetExceededError(
                        "transition monoid exceeds %d elements" % budget
                    )
                target = len(elements)
                index[composed] = target
                elements.append(composed)
                parent.append(frontier)
                letter.append(a)
            row.append(target)
        right.append(tuple(row))  # tuples of ints drop out of the cycle collector
    monoid = Monoid(
        minimal.alphabet,
        elements,
        index,
        0,
        list(right[0]),
        minimal,
        parent,
        letter,
        right,
    )
    accept = AcceptSet(
        frozenset(
            i
            for i, el in enumerate(elements)
            if el[minimal.initial] in minimal.accepting
        )
    )
    return monoid, accept


@dataclass(frozen=True)
class GreenClasses:
    """Green's R, L, J and H classes of a monoid, one class id per element,
    plus the minimal J-class.

    Ids are canonical: R, L and J classes are numbered by least member, H
    classes by the first (R, L) pair in index order.  ``j_minimal`` holds
    the one J-class id that is J-below every other, the monoid's minimal
    ideal.  The ``*_classes`` properties group the members of each class.
    """

    r_class: tuple
    l_class: tuple
    j_class: tuple
    h_class: tuple
    j_minimal: tuple

    r_classes = property(lambda self: _members(self.r_class))
    l_classes = property(lambda self: _members(self.l_class))
    j_classes = property(lambda self: _members(self.j_class))
    h_classes = property(lambda self: _members(self.h_class))


def _members(assignment):
    groups = [[] for _ in range(max(assignment) + 1)]
    for i, c in enumerate(assignment):
        groups[c].append(i)
    return tuple(frozenset(g) for g in groups)


def _keyed_classes(edges, key):
    """Class ids by least member, and each class's least member, for a
    ``key`` that edges keep exactly inside a class: each class is a forward
    DFS from its least member along the edges that keep its key."""
    assignment = [-1] * len(edges)
    roots = []
    for root, k in enumerate(key):
        if assignment[root] < 0:
            assignment[root] = c = len(roots)
            roots.append(root)
            stack = [root]
            while stack:
                for t in edges[stack.pop()]:
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
    """Green's classes of ``monoid`` from its image orbit and Cayley graphs."""
    right, left = monoid.right_cayley(), monoid.left_cayley()
    delta, letters = monoid.minimal_dfa.delta, range(len(monoid.alphabet))
    _, steps = explore(
        [frozenset(range(monoid.minimal_dfa.n_states))],
        lambda subset: [frozenset([delta[q][a] for q in subset]) for a in letters],
    )
    image = [0]  # im(p·a) = im(p)·a, read along the BFS parents
    for p, a in zip(monoid._parent[1:], monoid._letter[1:]):
        image.append(steps[image[p]][a])
    component = _component_ids(steps)
    r_class, r_roots = _keyed_classes(right, [component[v] for v in image])

    # R is a left congruence, so g·x lands in one R-class for every x of an
    # R-class: the left edges of each least member span the R-quotient.
    # Right edges that leave an R-class leave its J-class (stability), so
    # the J-classes are the SCCs of this quotient.
    quotient = [[r_class[t] for t in left[x]] for x in r_roots]
    j_of_r = _component_ids(quotient)
    j_class = [j_of_r[r] for r in r_class]
    l_class, _ = _keyed_classes(left, j_class)  # stability again, on the left

    h_ids = {}
    h_class = [h_ids.setdefault(key, len(h_ids)) for key in zip(r_class, l_class)]

    # A finite monoid has exactly one minimal J-class, its minimal ideal K.
    # No generator leads out of K, as K is an ideal.  From x outside K,
    # k·x lies in K for every k in K, so the left Cayley graph leads out of
    # the class of x: K is the one class that no quotient edge leaves.
    exits = {j_of_r[r] for r, row in enumerate(quotient) for s in row if j_of_r[s] != j_of_r[r]}
    j_minimal = tuple(c for c in range(max(j_of_r) + 1) if c not in exits)

    return GreenClasses(tuple(r_class), tuple(l_class), tuple(j_class), tuple(h_class), j_minimal)


def idempotent_power(monoid, element):
    """Least n >= 1 such that element**n is idempotent."""
    power = element
    for n in range(1, len(monoid.elements) + 2):
        if monoid.compose(power, power) == power:
            return n
        power = monoid.compose(power, element)
    raise AssertionError("finite monoid must reach an idempotent power")


def nonprimitive_witness(dfa, budget=DEFAULT_MONOID_BUDGET):
    """A pair (w, n) with w**(m*n+1) accepted and non-primitive for all m >= 1.

    Requires a non-null language.  The word w evaluates to a J-minimal
    element t of the accept set (the shortlex-least such witness); n is the
    idempotent power of t.  Membership and non-primitivity of the first
    three powers are verified before returning.
    """
    if density(dfa) == 0:
        raise ValueError("language is null: no non-primitive member is guaranteed")
    monoid, accept = transition_monoid(dfa, budget=budget)
    return witness_in_monoid(dfa, monoid, accept, green_classes(monoid))


def witness_in_monoid(dfa, monoid, accept, greens):
    """``nonprimitive_witness`` for a non-null ``dfa`` whose transition
    monoid, accept set and Green classes are already built."""
    minimal_ids = set(greens.j_minimal)
    candidates = [
        i for i in accept.elements if greens.j_class[i] in minimal_ids
    ]
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
