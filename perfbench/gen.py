"""Seeded inputs for the regdensity benchmark, and independent reference
answers to check the program's outputs against.

Every draw comes from the caller's own ``random.Random(seed)``, never from
the program's ``random_dfa``, so a change to the program cannot silently
change a workload.  DFAs are plain JSON documents in the program's
interchange format; the reference algorithms below work on those documents
and share no code with the program.
"""

from fractions import Fraction
from math import comb, gcd

MONOID_BUDGET = 50_000  # the CLI's default element budget for `monoid`


def dfa_doc(delta, accepting):
    return {
        "alphabet": ["a", "b"],
        "states": len(delta),
        "initial": 0,
        "accepting": sorted(accepting),
        "delta": [list(row) for row in delta],
    }


def _cycle_map(rng, states):
    """A random cyclic permutation through all of ``states``."""
    order = list(states)
    rng.shuffle(order)
    return {q: order[(i + 1) % len(order)] for i, q in enumerate(order)}


def recurrent_dfa(rng, n):
    """Binary DFA whose n states form one recurrent class.

    Letter a follows a random n-cycle, so every state is reachable and the
    machine is strongly connected; letter b is a random map, so the chain is
    not doubly stochastic and the stationary law needs a full n-dimensional
    solve.
    """
    a = _cycle_map(rng, range(n))
    delta = [[a[q], rng.randrange(n)] for q in range(n)]
    accepting = [q for q in range(n) if rng.random() < 0.5]
    return dfa_doc(delta, accepting)


def transient_periodic_dfa(rng, n, c):
    """A random transient SCC of n states that drains into a c-cycle.

    Letter a follows a random n-cycle through the transient states; letter b
    is a random map into them, except on n // 10 states, where it exits to a
    random cycle state.  Both letters advance the cycle, so the only
    recurrent class has period c and a uniform stationary law.  Returns the
    document and the number of accepting cycle states (1..c-1).
    """
    a = _cycle_map(rng, range(n))
    exits = set(rng.sample(range(n), max(1, n // 10)))
    delta = [
        [a[q], n + rng.randrange(c) if q in exits else rng.randrange(n)]
        for q in range(n)
    ]
    delta += [[n + (i + 1) % c] * 2 for i in range(c)]
    cycle_accepting = rng.sample(range(n, n + c), rng.randint(1, c - 1))
    accepting = [q for q in range(n) if rng.random() < 0.5] + cycle_accepting
    return dfa_doc(delta, accepting), len(cycle_accepting)


def permutation_map_dfa(rng, n):
    """Binary DFA where a is a random permutation and b a random map."""
    perm = list(range(n))
    rng.shuffle(perm)
    delta = [[perm[q], rng.randrange(n)] for q in range(n)]
    accepting = [q for q in range(n) if rng.random() < 0.5]
    return dfa_doc(delta, accepting)


def monoid_dfas(rng, states, windows, draws):
    """Permutation/map DFAs with non-null languages, one list per
    ``(low, high, copies)`` window: ``copies`` machines whose minimal DFA has
    a transition monoid of low..high elements (``high=None``: more than the
    CLI budget), each with that size (None when over the budget).

    The windows share one stream of at least ``draws`` candidates, more only
    while a window is short, so the time this takes hardly depends on the
    seed."""
    found = [[] for _ in windows]
    cap = max(MONOID_BUDGET if high is None else high for _, high, _ in windows)
    tried = 0
    while tried < draws or any(len(f) < copies for f, (_, _, copies) in zip(found, windows)):
        tried += 1
        doc = permutation_map_dfa(rng, rng.choice(states))
        if not doc["accepting"] or not non_null(doc):
            continue
        size = monoid_size(doc, cap)
        for f, (low, high, copies) in zip(found, windows):
            fits = size is None if high is None else size is not None and low <= size <= high
            if fits and len(f) < copies:
                f.append((doc, size))
                break
    return found


# -- reference algorithms ---------------------------------------------------

def run_dfa(doc, word):
    q = doc["initial"]
    for ch in word:
        q = doc["delta"][q][doc["alphabet"].index(ch)]
    return q


def accepts(doc, word):
    return run_dfa(doc, word) in set(doc["accepting"])


def _reachable(doc, start):
    seen = {start}
    stack = [start]
    while stack:
        for t in doc["delta"][stack.pop()]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def non_null(doc):
    """Positive density: a reachable bottom class holds an accepting state
    (stationary laws of irreducible classes are strictly positive)."""
    for q in _reachable(doc, doc["initial"]) & set(doc["accepting"]):
        if all(q in _reachable(doc, t) for t in _reachable(doc, q)):
            return True
    return False


def minimal_letter_maps(doc):
    """Letter maps, initial block and accepting blocks of the minimal DFA
    (Moore refinement on the reachable states)."""
    reach = sorted(_reachable(doc, doc["initial"]))
    accepting = set(doc["accepting"])
    letters = range(len(doc["alphabet"]))
    block = {q: int(q in accepting) for q in reach}
    count = len(set(block.values()))
    while True:
        sigs = {}
        refined = {}
        for q in reach:
            sig = (block[q],) + tuple(block[doc["delta"][q][a]] for a in letters)
            refined[q] = sigs.setdefault(sig, len(sigs))
        block = refined
        if len(sigs) == count:
            break
        count = len(sigs)
    maps = []
    for a in letters:
        m = [0] * count
        for q in reach:
            m[block[q]] = block[doc["delta"][q][a]]
        maps.append(tuple(m))
    return maps, block[doc["initial"]], {block[q] for q in reach if q in accepting}


def monoid_size(doc, cap=MONOID_BUDGET):
    """Size of the transition monoid of the minimal DFA, or None above cap.

    Elements are state maps stored as bytes, so composing with a letter is
    one ``bytes.translate``.
    """
    maps, _, _ = minimal_letter_maps(doc)
    tables = [bytes(m) + bytes(256 - len(m)) for m in maps]
    identity = bytes(range(len(maps[0])))
    seen = {identity}
    frontier = [identity]
    while frontier:
        grown = []
        for element in frontier:
            for table in tables:
                composed = element.translate(table)
                if composed not in seen:
                    if len(seen) >= cap:
                        return None
                    seen.add(composed)
                    grown.append(composed)
        frontier = grown
    return len(seen)


def class_period(doc):
    """Period of a strongly connected DFA graph (gcd of BFS-level gaps)."""
    level = {doc["initial"]: 0}
    queue = [doc["initial"]]
    for q in queue:
        for t in doc["delta"][q]:
            if t not in level:
                level[t] = level[q] + 1
                queue.append(t)
    g = 0
    for q in level:
        for t in doc["delta"][q]:
            g = gcd(g, level[q] + 1 - level[t])
    return abs(g) or 1


def count_words(doc, max_length):
    """Accepted words per length 0..max_length, stepping the state vector."""
    accepting = doc["accepting"]
    vec = [0] * doc["states"]
    vec[doc["initial"]] = 1
    counts = [sum(vec[q] for q in accepting)]
    for _ in range(max_length):
        nxt = [0] * len(vec)
        for q, x in enumerate(vec):
            if x:
                for t in doc["delta"][q]:
                    nxt[t] += x
        vec = nxt
        counts.append(sum(vec[q] for q in accepting))
    return counts


def is_primitive(word):
    n = len(word)
    return n > 0 and all(
        word != word[:d] * (n // d) for d in range(1, n) if n % d == 0
    )


def dyck_count(n):
    return comb(n, n // 2) // (n // 2 + 1) if n % 2 == 0 else 0


def _mobius(n):
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def primitive_count(n):
    return sum(_mobius(d) * 2 ** (n // d) for d in range(1, n + 1) if n % d == 0)


def cylinder_mass(n, members):
    """Density of the cylinders w·c·{a,b,c}* over Dyck members (or
    non-members) w shorter than n."""
    total = Fraction(0)
    for length in range(n):
        hits = dyck_count(length) if members else 2 ** length - dyck_count(length)
        total += Fraction(hits, 3 ** (length + 1))
    return total
