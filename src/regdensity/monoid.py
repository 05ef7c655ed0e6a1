"""Transition monoids, Green's relations, and non-primitive-word witnesses.

The syntactic monoid of a regular language is realised concretely as the
transition monoid of its minimal DFA: elements are state transformations,
composition is left-to-right ("read u, then v").  The elements are
enumerated breadth-first, and each new element records its BFS parent, the
element and letter it was first reached from; its shortlex-least witness
word is read off that parent chain.  The right Cayley graph is recorded
while the elements are enumerated (Froidure & Pin), and each left Cayley
row is derived from its parent's row through the right Cayley graph.
Green's R and L classes are the strongly connected components of the right
and left Cayley graphs, and J = D = R ∨ L because the monoid is finite,
which keeps everything linear in the number of monoid elements.
"""

from dataclasses import dataclass
from operator import itemgetter

from .automata import strongly_connected_components
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
    """Partitions of a monoid into R, L, J and H classes plus the minimal
    J-class.

    Class ids are noncanonical ints; ``j_minimal`` holds the one J-class id
    that is J-below every other, the monoid's minimal ideal.
    """

    r_class: tuple
    l_class: tuple
    j_class: tuple
    h_class: tuple
    r_classes: tuple
    l_classes: tuple
    j_classes: tuple
    h_classes: tuple
    j_minimal: tuple


def _partition_from_sccs(n, successors):
    comps = strongly_connected_components(successors)
    comps = [sorted(c) for c in comps]
    comps.sort(key=lambda c: c[0])
    assignment = [0] * n
    for cid, comp in enumerate(comps):
        for q in comp:
            assignment[q] = cid
    return tuple(assignment), tuple(frozenset(c) for c in comps)


def green_classes(monoid):
    n = len(monoid.elements)
    right = monoid.right_cayley()
    left = monoid.left_cayley()
    r_class, r_classes = _partition_from_sccs(n, right)
    l_class, l_classes = _partition_from_sccs(n, left)

    # D = R∘L in a finite monoid, and J = D: the J-class of i is the union of
    # the L-classes that meet the R-class of i.  Scanning i upwards numbers
    # the J-classes by least member.
    j_class = [None] * n
    j_members = []
    for i in range(n):
        if j_class[i] is None:
            members = []
            for lc in {l_class[k] for k in r_classes[r_class[i]]}:
                members.extend(l_classes[lc])
            for k in members:
                j_class[k] = len(j_members)
            j_members.append(frozenset(members))

    h_ids = {}
    h_class = [h_ids.setdefault(key, len(h_ids)) for key in zip(r_class, l_class)]
    h_members = [set() for _ in range(len(h_ids))]
    for i, h in enumerate(h_class):
        h_members[h].add(i)

    # A finite monoid has exactly one minimal J-class, its minimal ideal K.
    # No generator leads out of K, as K is an ideal.  From x outside K,
    # x·k lies in K for every k in K, so the right Cayley graph leads out of
    # the class of x: K is the one class that no right edge leaves.
    exits = {c for c, row in zip(j_class, right) for t in row if j_class[t] != c}
    j_minimal = tuple(c for c in range(len(j_members)) if c not in exits)

    return GreenClasses(
        r_class=tuple(r_class),
        l_class=tuple(l_class),
        j_class=tuple(j_class),
        h_class=tuple(h_class),
        r_classes=r_classes,
        l_classes=l_classes,
        j_classes=tuple(j_members),
        h_classes=tuple(frozenset(s) for s in h_members),
        j_minimal=j_minimal,
    )


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
