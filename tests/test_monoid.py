"""Tests for transition monoids, Green's relations, and witnesses."""

import collections
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from regdensity import (
    Alphabet,
    BudgetExceededError,
    Dfa,
    density,
    green_classes,
    is_primitive,
    majority_escape_witness,
    mod_counter_dfa,
    nonprimitive_witness,
    random_dfa,
    transition_monoid,
)
from regdensity.automata import strongly_connected_components
from regdensity.cli import main
from regdensity import monoid as monoid_module
from regdensity.monoid import DEFAULT_MONOID_BUDGET, _size_lower_bound, idempotent_power

import reference_languages as ref
from reference_languages import dfa_to_json

AB = Alphabet("ab")


def evens():
    return Dfa(AB, 2, [[1, 1], [0, 0]], 0, {0})


def all_words():
    return Dfa(AB, 1, [[0, 0]], 0, {0})


def starts_with_a():
    return Dfa(AB, 3, [[1, 2], [1, 1], [2, 2]], 0, {1})


def test_transition_monoid_examples():
    monoid, accept = transition_monoid(evens())
    assert len(monoid) == 2
    assert accept == frozenset({monoid.identity})

    monoid, accept = transition_monoid(all_words())
    assert len(monoid) == 1
    assert accept == frozenset({0})

    monoid, accept = transition_monoid(mod_counter_dfa(3))
    assert len(monoid) == 3
    assert accept == frozenset({1, 2})
    g = monoid.generators[0]
    # cyclic of order three: g, g^2, g^3 = identity
    sq = monoid.compose(g, g)
    assert sq != g and monoid.compose(sq, g) == monoid.identity


def test_witnesses_are_shortlex_least():
    monoid, _ = transition_monoid(mod_counter_dfa(3))
    assert [monoid.witness(i) for i in range(len(monoid))] == ["", "a", "b"]
    monoid, _ = transition_monoid(starts_with_a())
    for i in range(len(monoid)):
        assert monoid.element_of_word(monoid.witness(i)) == i


def test_monoid_closure_and_morphism_property():
    monoid, _ = transition_monoid(starts_with_a())
    rng = random.Random(3)
    for _ in range(60):
        u = "".join(rng.choice("ab") for _ in range(rng.randint(0, 6)))
        v = "".join(rng.choice("ab") for _ in range(rng.randint(0, 6)))
        assert monoid.element_of_word(u + v) == monoid.compose(
            monoid.element_of_word(u), monoid.element_of_word(v)
        )


def test_monoid_budget():
    with pytest.raises(BudgetExceededError):
        transition_monoid(mod_counter_dfa(5), budget=3)


def test_accept_set_preimage_is_the_language():
    rng = random.Random(41)
    machines = [starts_with_a(), mod_counter_dfa(3)] + [
        random_dfa(rng, 4, AB) for _ in range(4)
    ]
    for machine in machines:
        monoid, accept = transition_monoid(machine)
        for n in range(7):
            for tup in itertools.product("ab", repeat=n):
                word = "".join(tup)
                assert machine.accepts(word) == (
                    monoid.element_of_word(word) in accept
                )


def test_j_order_is_a_partial_order():
    rng = random.Random(43)
    machines = [starts_with_a()] + [random_dfa(rng, 4, AB) for _ in range(4)]
    for machine in machines:
        monoid, _ = transition_monoid(machine)
        expected, _, _, j_below = green_classes_oracle(monoid)

        def j_leq(c1, c2):
            return c1 in j_below[c2]

        ids = range(len(expected.j_classes))
        for c1 in ids:
            assert j_leq(c1, c1)
            for c2 in ids:
                if j_leq(c1, c2) and j_leq(c2, c1):
                    assert c1 == c2
                for c3 in ids:
                    if j_leq(c1, c2) and j_leq(c2, c3):
                        assert j_leq(c1, c3)
        (minimal_id,) = expected.j_minimal
        assert all(j_leq(minimal_id, c) for c in ids)
        assert green_classes(monoid).j_minimal == expected.j_minimal


def test_green_classes_cyclic_group():
    monoid, _ = transition_monoid(mod_counter_dfa(3))
    greens = green_classes(monoid)
    assert greens.counts == (1, 1, 1, 1)  # (J, R, L, H)
    assert greens.j_minimal == (0,)


def test_green_classes_trivial():
    monoid, _ = transition_monoid(all_words())
    greens = green_classes(monoid)
    assert greens.counts[0] == 1 and greens.j_minimal == (0,)


def test_green_classes_first_letter_language():
    monoid, _ = transition_monoid(starts_with_a())
    greens = green_classes(monoid)
    expected, _, _, j_below = green_classes_oracle(monoid)
    assert greens.j_class == expected.j_class
    assert len(monoid) == 3
    ident_class = greens.j_class[monoid.identity]
    assert expected.j_classes[ident_class] == frozenset({monoid.identity})
    assert greens.counts[0] == 2
    assert ident_class not in greens.j_minimal
    (minimal_id,) = greens.j_minimal
    assert len(expected.j_classes[minimal_id]) == 2
    assert minimal_id in j_below[ident_class]
    assert ident_class not in j_below[minimal_id]


def test_h_class_with_idempotent_is_a_subgroup():
    machines = [evens(), all_words(), starts_with_a(), mod_counter_dfa(3)]
    rng = random.Random(17)
    machines += [random_dfa(rng, 4, AB) for _ in range(6)]
    for machine in machines:
        monoid, _ = transition_monoid(machine)
        expected, _, _, _ = green_classes_oracle(monoid)
        assert green_classes(monoid).counts == expected.counts
        h_classes = collections.defaultdict(set)
        for i, h in enumerate(expected.h_class):
            h_classes[h].add(i)
        for h in h_classes.values():
            idempotents = [e for e in h if monoid.compose(e, e) == e]
            if not idempotents:
                continue
            (e,) = idempotents  # a group H-class has exactly one idempotent
            for x in h:
                assert monoid.compose(e, x) == x and monoid.compose(x, e) == x
                assert monoid.compose(x, monoid.compose(e, e)) in h
                for y in h:
                    assert monoid.compose(x, y) in h


def test_idempotent_power_examples():
    monoid, _ = transition_monoid(mod_counter_dfa(3))
    assert idempotent_power(monoid, monoid.identity) == 1
    assert idempotent_power(monoid, monoid.generators[0]) == 3
    sa_monoid, _ = transition_monoid(starts_with_a())
    alpha = sa_monoid.generators[0]
    assert sa_monoid.compose(alpha, alpha) == alpha
    assert idempotent_power(sa_monoid, alpha) == 1


def element_language(monoid, element):
    """The words evaluating to a monoid element, read on the right Cayley graph."""
    right = list(zip(*monoid._columns))
    return Dfa(monoid.alphabet, len(monoid), right, monoid.identity, {element})


def test_jclass_density_examples():
    monoid, _ = transition_monoid(mod_counter_dfa(3))
    assert density(element_language(monoid, monoid.generators[0])) == Fraction(1, 3)
    sa_monoid, _ = transition_monoid(starts_with_a())
    assert density(element_language(sa_monoid, sa_monoid.identity)) == 0
    trivial, _ = transition_monoid(all_words())
    assert density(element_language(trivial, trivial.identity)) == 1


def test_non_j_minimal_elements_are_null():
    rng = random.Random(23)
    machines = [starts_with_a(), evens()] + [random_dfa(rng, 4, AB) for _ in range(6)]
    for machine in machines:
        monoid, _ = transition_monoid(machine)
        greens = green_classes(monoid)
        for element in range(len(monoid)):
            if greens.j_class[element] not in greens.j_minimal:
                assert density(element_language(monoid, element)) == 0


@st.composite
def zero_one_dfas(draw):
    alphabet = Alphabet(draw(st.sampled_from(("a", "ab", "abc"))))
    n = draw(st.integers(1, 8))
    delta = [[draw(st.integers(0, n - 1)) for _ in alphabet.symbols] for _ in range(n)]
    return Dfa(alphabet, n, delta, 0, draw(st.sets(st.integers(0, n - 1))))


@settings(max_examples=150, deadline=None)
@given(zero_one_dfas())
@example(all_words())
@example(Dfa(AB, 2, [[0, 1], [1, 1]], 0, {0}))  # a*, density 0
@example(evens())  # K is the whole group Z/2, half of it accepting
@example(starts_with_a())
def test_zero_one_law_from_the_minimal_ideal(machine):
    # Sin'ya (GandALF 2015): the density is 1 iff the monoid's minimal ideal
    # K lies inside the accept set, and 0 iff K misses it.  K is also the
    # set of elements of least rank: for x of least rank and k in K, k·x
    # permutes im(x), so x = x·(k·x)^m for some m >= 1 lies in K.  The
    # monoid and the density engine share no code.
    try:
        monoid, accept = transition_monoid(machine, budget=5000)
    except BudgetExceededError:
        assume(False)
    greens = green_classes(monoid)
    ideal = {i for i, j in enumerate(greens.j_class) if j in greens.j_minimal}
    rank = [len(set(element)) for element in monoid.elements]
    assert ideal == {i for i, r in enumerate(rank) if r == min(rank)}
    value = density(machine)
    assert (value == 1) == (ideal <= accept)
    assert (value == 0) == ideal.isdisjoint(accept)


def test_element_languages_partition_all_words():
    for machine in (starts_with_a(), mod_counter_dfa(3), evens()):
        monoid, _ = transition_monoid(machine)
        total = sum(
            (density(element_language(monoid, e)) for e in range(len(monoid))),
            Fraction(0),
        )
        assert total == 1


def test_element_language_dfa_is_evaluation_preimage():
    monoid, _ = transition_monoid(starts_with_a())
    machine = element_language(monoid, monoid.generators[1])
    for n in range(5):
        for tup in itertools.product("ab", repeat=n):
            word = "".join(tup)
            assert machine.accepts(word) == (
                monoid.element_of_word(word) == monoid.generators[1]
            )


def test_nonprimitive_witness_examples():
    word, power = nonprimitive_witness(all_words())
    assert (word, power) == ("a", 1)
    word, power = nonprimitive_witness(mod_counter_dfa(3))
    assert (word, power) == ("a", 3)
    a3 = mod_counter_dfa(3)
    assert a3.accepts("a" * 4) and a3.accepts("a" * 7)
    with pytest.raises(ValueError):
        nonprimitive_witness(Dfa(AB, 2, [[0, 1], [1, 1]], 0, {0}))  # a*


def test_nonprimitive_witness_soundness_random():
    rng = random.Random(29)
    found = 0
    while found < 8:
        machine = random_dfa(rng, 4, AB)
        if density(machine) == 0:
            continue
        found += 1
        word, power = nonprimitive_witness(machine)
        assert word
        for m in (1, 2, 3):
            candidate = word * (m * power + 1)
            assert machine.accepts(candidate)
            assert not is_primitive(candidate)


# -- oracle: Green's relations from three Tarjan passes over compose tables ----

def _partition_oracle(n, successors):
    comps = sorted((sorted(c) for c in strongly_connected_components(successors)),
                   key=lambda c: c[0])
    assignment = [0] * n
    for cid, comp in enumerate(comps):
        for q in comp:
            assignment[q] = cid
    return tuple(assignment), tuple(frozenset(c) for c in comps)


@dataclass(frozen=True)
class OracleClasses:
    """The oracle's Green's classes: every assignment built eagerly, and
    the class counts read off the assignments."""

    r_class: tuple
    l_class: tuple
    j_class: tuple
    h_class: tuple
    j_minimal: tuple
    j_classes: tuple

    @property
    def counts(self):
        return tuple(len(set(a)) for a in (self.j_class, self.r_class, self.l_class, self.h_class))


def assert_same_classes(greens, expected):
    """The R and J assignments, the minimal J-class and the counts; then the
    egg-box on the oracle's classes: in each J-class D every H-class has one
    size, and |D| = #R(D)·#L(D)·|H|."""
    assert greens.r_class == expected.r_class
    assert greens.j_class == expected.j_class
    assert greens.j_minimal == expected.j_minimal
    assert greens.counts == expected.counts
    for d in expected.j_classes:
        r_ids = {expected.r_class[i] for i in d}
        l_ids = {expected.l_class[i] for i in d}
        h_sizes = collections.Counter(expected.h_class[i] for i in d)
        (h_size,) = set(h_sizes.values())
        assert len(h_sizes) == len(r_ids) * len(l_ids)
        assert len(d) == len(r_ids) * len(l_ids) * h_size


def green_classes_oracle(monoid):
    """R, L and J as the SCCs of the right, left and two-sided Cayley graphs,
    all three built from ``compose``; the J-minimal classes are read off the
    J-order, returned as ``j_below[c]``, the J-class ids reachable from c
    (c included), so that ``c1 in j_below[c2]`` decides c1 <=_J c2."""
    n = len(monoid)
    right = [tuple(monoid.compose(i, g) for g in monoid.generators) for i in range(n)]
    left = [tuple(monoid.compose(g, i) for g in monoid.generators) for i in range(n)]
    two_sided = [right[i] + left[i] for i in range(n)]
    r_class, _ = _partition_oracle(n, right)
    l_class, _ = _partition_oracle(n, left)
    j_class, j_classes = _partition_oracle(n, two_sided)
    h_ids = {}
    h_class = tuple(h_ids.setdefault(key, len(h_ids)) for key in zip(r_class, l_class))
    j_below = []
    for c in range(len(j_classes)):
        seen, stack = {c}, [c]
        while stack:
            x = stack.pop()
            for i in j_classes[x]:
                for t in two_sided[i]:
                    if j_class[t] not in seen:
                        seen.add(j_class[t])
                        stack.append(j_class[t])
        j_below.append(frozenset(seen))
    greens = OracleClasses(
        r_class=r_class,
        l_class=l_class,
        j_class=j_class,
        h_class=h_class,
        j_minimal=tuple(c for c in range(len(j_classes)) if j_below[c] == {c}),
        j_classes=j_classes,
    )
    return greens, right, left, j_below


def saturating_counter_dfa(n):
    """``a`` steps q to min(q + 1, n − 1), ``b`` is the identity, and the
    last state accepts: a minimal machine whose monoid {a^k : k < n} has n
    J-classes in one chain."""
    return Dfa(AB, n, [[min(q + 1, n - 1), q] for q in range(n)], 0, {n - 1})


def oracle_machines():
    """Seeded DFAs of 1-6 states over two and three letters whose monoids
    have at most 1500 elements: two one-state machines, then machines whose
    monoid is not trivial, then a 300-state saturating counter with 300
    J-classes."""
    rng = random.Random(59)
    machines = [all_words(), Dfa(Alphabet("abc"), 1, [[0, 0, 0]], 0, set())]
    for letters in ("ab", "abc"):
        for n in range(2, 7):
            kept = 0
            while kept < 4:
                machine = random_dfa(rng, n, Alphabet(letters))
                try:
                    monoid, _ = transition_monoid(machine, budget=1500)
                except BudgetExceededError:
                    continue
                if len(monoid) > 1:
                    machines.append(machine)
                    kept += 1
    machines.append(saturating_counter_dfa(300))
    return machines


@pytest.mark.parametrize("machine", oracle_machines())
def test_green_classes_match_three_tarjan_oracle(machine):
    monoid, _ = transition_monoid(machine)
    expected, right, _, _ = green_classes_oracle(monoid)
    greens = green_classes(monoid)
    assert_same_classes(greens, expected)
    assert len(greens.j_minimal) == 1
    assert list(zip(*monoid._columns)) == right
    rng = random.Random(len(monoid))
    for i in range(len(monoid)):
        j = rng.randrange(len(monoid))
        first, then = monoid.elements[i], monoid.elements[j]
        assert tuple(monoid.elements[monoid.compose(i, j)]) == tuple(then[p] for p in first)
    for _ in range(30):
        word = "".join(rng.choice(monoid.alphabet.symbols) for _ in range(rng.randint(0, 8)))
        folded = monoid.identity
        for ch in word:
            folded = monoid.compose(folded, monoid.generators[monoid.alphabet.rank(ch)])
        assert monoid.element_of_word(word) == folded


@pytest.mark.parametrize("machine", oracle_machines())
def test_monoid_report_counts_match_oracle_without_left_columns(machine, tmp_path, capsys):
    monoid, _ = transition_monoid(machine)
    expected, _, _, _ = green_classes_oracle(monoid)
    path = tmp_path / "machine.json"
    path.write_text(json.dumps(dfa_to_json(machine)), encoding="utf-8")
    assert main(["monoid", "--dfa", str(path), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["elements"] == len(monoid)
    assert report["green"] == dict(zip("JRLH", expected.counts))


def test_rank_is_not_an_r_class_key():
    """b·a keeps rank 2 but leaves the R-class of b: R-classes follow the
    strongly connected components of the image orbit, not the rank."""
    machine = Dfa(AB, 3, [[0, 1], [2, 1], [2, 2]], 0, {0, 1})
    monoid, _ = transition_monoid(machine)
    expected, right, _, _ = green_classes_oracle(monoid)
    rank = [len(set(element)) for element in monoid.elements]
    assert any(
        rank[t] == rank[i] and expected.r_class[t] != expected.r_class[i]
        for i, row in enumerate(right)
        for t in row
    )
    assert_same_classes(green_classes(monoid), expected)


def test_image_is_not_an_l_class_key():
    """Two J-equivalent elements with one image lie in different L-classes:
    the left edges that stay in an L-class are those that stay in its
    J-class, whatever they do to the image."""
    machine = Dfa(AB, 3, [[1, 2], [2, 2], [2, 1]], 0, {2})
    monoid, _ = transition_monoid(machine)
    expected, _, _, _ = green_classes_oracle(monoid)
    l_classes = {}
    for i, element in enumerate(monoid.elements):
        l_classes.setdefault((frozenset(element), expected.j_class[i]), set()).add(
            expected.l_class[i]
        )
    assert any(len(ids) > 1 for ids in l_classes.values())
    assert_same_classes(green_classes(monoid), expected)


@st.composite
def small_dfas(draw):
    alphabet = Alphabet(draw(st.sampled_from(("ab", "abc"))))
    n = draw(st.integers(1, 7))
    delta = [[draw(st.integers(0, n - 1)) for _ in alphabet.symbols] for _ in range(n)]
    return Dfa(alphabet, n, delta, 0, draw(st.sets(st.integers(0, n - 1))))


@settings(max_examples=150, deadline=None)
@given(small_dfas())
def test_green_classes_match_oracle_on_random_machines(machine):
    try:
        monoid, _ = transition_monoid(machine, budget=3000)
    except BudgetExceededError:
        assume(False)
    expected, _, _, _ = green_classes_oracle(monoid)
    assert_same_classes(green_classes(monoid), expected)


# -- differential: bytes elements with BFS parents against tuple elements ------

def differential_machines():
    """Seeded DFAs of 1-7 states over two and three letters whose monoids
    have at most 2000 elements, a one-state machine, and saturating counters
    whose minimal DFAs have 256 states (bytes elements) and 300 (tuples)."""
    rng = random.Random(61)
    machines = [Dfa(AB, 1, [[0, 0]], 0, set())]
    for letters in ("ab", "abc"):
        for n in range(1, 8):
            kept = 0
            while kept < 3:
                machine = random_dfa(rng, n, Alphabet(letters))
                try:
                    ref.tuple_transition_monoid(machine, budget=2000)
                except BudgetExceededError:
                    continue
                machines.append(machine)
                kept += 1
    return machines + [saturating_counter_dfa(256), saturating_counter_dfa(300)]


@pytest.mark.parametrize("machine", differential_machines())
def test_monoid_matches_tuple_reference(machine):
    monoid, accept = transition_monoid(machine)
    expected, expected_accept = ref.tuple_transition_monoid(machine)
    assert [tuple(element) for element in monoid.elements] == expected.elements
    assert list(zip(*monoid._columns)) == expected.right_cayley()
    assert [monoid.witness(i) for i in range(len(monoid))] == expected.witnesses
    assert accept == expected_accept


@pytest.mark.parametrize(
    "machine, kind",
    [
        (saturating_counter_dfa(256), bytes),
        (saturating_counter_dfa(300), tuple),
        (starts_with_a(), bytes),
        (mod_counter_dfa(300), tuple),
    ],
    ids=["256-bytes", "300-tuple", "starts-a-bytes", "modk-300-tuple"],
)
def test_budget_is_exact_on_both_element_kinds(machine, kind):
    size = len(ref.tuple_transition_monoid(machine)[0])
    monoid, _ = transition_monoid(machine, budget=size)
    assert len(monoid) == size
    assert all(type(element) is kind for element in monoid.elements)
    for build in (transition_monoid, ref.tuple_transition_monoid):
        with pytest.raises(BudgetExceededError) as raised:
            build(machine, budget=size - 1)
        assert str(raised.value) == "transition monoid exceeds %d elements" % (size - 1)


@settings(max_examples=100, deadline=None)
@given(zero_one_dfas())
@example(starts_with_a())
@example(mod_counter_dfa(3))
def test_budget_edges_match_tuple_reference(machine):
    """The switch comes at the first element added at index ⌊B/8⌋ or more,
    unless n^n <= B for the minimal machine's n states: at B = 1 that
    element is already past the budget, at B = 2 it is the last one allowed,
    at 2|M| - 2, 2|M| - 1, 8|M| - 8 and 8|M| - 1 it is the monoid's last
    element, and at 8|M| it never comes; at n^n it never comes either."""
    try:
        size = len(ref.tuple_transition_monoid(machine, budget=3000)[0])
    except BudgetExceededError:
        assume(False)
    n = machine.minimized().n_states
    budgets = {1, 2, size - 1, size, 2 * size - 2, 2 * size - 1, 2 * size}
    budgets |= {8 * size - 8, 8 * size - 1, 8 * size, n**n - 1, n**n}
    budgets -= {0}
    for budget, build in itertools.product(sorted(budgets), (transition_monoid, ref.tuple_transition_monoid)):
        if size > budget:
            with pytest.raises(BudgetExceededError) as raised:
                build(machine, budget=budget)
            assert str(raised.value) == "transition monoid exceeds %d elements" % budget
        else:
            assert len(build(machine, budget=budget)[0]) == size


# -- the orbit bound on the monoid's size --------------------------------------

def full_transformation_dfa(n):
    """``a`` is an n-cycle, ``b`` swaps states 0 and 1 and ``c`` sends 1 to 0:
    a minimal machine whose monoid is all n**n maps of its states."""
    return Dfa(
        Alphabet("abc"), n, [[(q + 1) % n, (1, 0, *range(2, n))[q], q if q != 1 else 0] for q in range(n)], 0, {0}
    )


@settings(max_examples=150, deadline=None)
@given(zero_one_dfas())
@example(full_transformation_dfa(3))
def test_size_lower_bound_is_sound(machine):
    try:
        monoid, _ = transition_monoid(machine, budget=20_000)
    except BudgetExceededError:
        assume(False)
    assert _size_lower_bound(machine.minimized(), 10**9) <= len(monoid)


@pytest.mark.parametrize(
    "machine, size",
    [(mod_counter_dfa(k), k) for k in (1, 2, 7, 300)]
    + [(full_transformation_dfa(3), 27), (full_transformation_dfa(4), 256)],
    ids=["modk-1", "modk-2", "modk-7", "modk-300-tuple", "T3", "T4"],
)
def test_size_lower_bound_is_exact_on_groups_and_full_transformation_monoids(machine, size):
    assert len(transition_monoid(machine)[0]) == size
    assert _size_lower_bound(machine.minimized(), 10**9) == size


@pytest.fixture
def bounds(monkeypatch):
    """The values ``transition_monoid`` reads from ``_size_lower_bound``,
    one per call."""
    values = []

    def counted(minimal, cap):
        values.append(_size_lower_bound(minimal, cap))
        return values[-1]

    monkeypatch.setattr(monoid_module, "_size_lower_bound", counted)
    return values


def run_monoid(machine, tmp_path, *options):
    path = tmp_path / "machine.json"
    path.write_text(json.dumps(dfa_to_json(machine)), encoding="utf-8")
    return main(["monoid", "--dfa", str(path), *options])


def test_full_transformation_monoid_on_seven_states_is_refused_by_one_bound(tmp_path, capsys, bounds):
    """|T_7| = 823,543: the orbits refuse it at 6,250 elements, with the
    message the enumeration would give at 50,000."""
    machine = full_transformation_dfa(7)
    assert machine.minimized().n_states == 7
    assert run_monoid(machine, tmp_path) == 3
    assert len(bounds) == 1 and bounds[0] > DEFAULT_MONOID_BUDGET
    out, err = capsys.readouterr()
    assert out == "" and "transition monoid exceeds %d elements" % DEFAULT_MONOID_BUDGET in err


def test_no_bound_is_asked_when_the_full_transformation_monoid_fits(bounds):
    """|T_6| = 46,656 <= 50,000: no 6-state monoid can be refused."""
    monoid, _ = transition_monoid(full_transformation_dfa(6))
    assert len(monoid) == 6**6 and bounds == []


def test_budget_at_the_size_of_the_full_transformation_monoid(tmp_path, capsys, bounds):
    """T_3 at budget 27 = 3^3 asks no bound; at 26 one bound, at element
    ⌊26/8⌋ = 3, refuses it."""
    machine = full_transformation_dfa(3)
    assert run_monoid(machine, tmp_path, "--budget", "27") == 0
    assert bounds == [] and "|M|=27" in capsys.readouterr().out
    assert run_monoid(machine, tmp_path, "--budget", "26") == 3
    assert bounds == [27]
    out, err = capsys.readouterr()
    assert out == "" and "transition monoid exceeds 26 elements" in err


def test_no_power_of_the_state_count_is_formed_past_the_budget(bounds):
    """A machine of 200,000 states is past the budget's bit length, so n^n
    is never built, and its orbits refuse it."""
    with pytest.raises(BudgetExceededError, match="exceeds 16 elements"):
        transition_monoid(random_dfa(random.Random(1), 200_000, AB), budget=16)
    assert bounds == [17]


@settings(max_examples=120, deadline=None)
@given(small_dfas(), st.data())
def test_monoid_reads_match_tuple_reference(machine, data):
    """bracket, element_of_word and the escape witness read the Cayley
    columns; the reference composes tuples pair by pair."""
    try:
        monoid, _ = transition_monoid(machine, budget=120)
    except BudgetExceededError:
        assume(False)
    expected, expected_accept = ref.tuple_transition_monoid(machine)
    size = len(monoid)
    middle = data.draw(st.integers(0, size - 1))
    goal = data.draw(st.sets(st.integers(0, size - 1), max_size=3))
    assert monoid.bracket(middle, goal) == expected.bracket(middle, goal)
    word = data.draw(st.text(alphabet=machine.alphabet.symbols, max_size=12))
    assert monoid.element_of_word(word) == expected.element_of_word(word)
    if density(machine) != 0:
        # majority_escape_witness spelled out on the reference monoid
        block = "b" * (2 * len(expected.witnesses[-1]))
        x, y = expected.bracket(expected.element_of_word(block), expected_accept)
        escape = expected.witnesses[x] + block + expected.witnesses[y]
        assert majority_escape_witness(machine, 1) == escape


def test_bracket_matches_pairwise_composition():
    rng = random.Random(67)
    checked = 0
    while checked < 12:
        machine = random_dfa(rng, rng.randint(2, 5), Alphabet(rng.choice(("ab", "abc"))))
        try:
            monoid, _ = transition_monoid(machine, budget=150)
        except BudgetExceededError:
            continue
        expected, _ = ref.tuple_transition_monoid(machine)
        size = len(monoid)
        assert monoid.bracket(rng.randrange(size), set()) is None
        for _ in range(6):
            middle = rng.randrange(size)
            goal = set(rng.sample(range(size), rng.randint(0, min(3, size))))
            assert monoid.bracket(middle, goal) == expected.bracket(middle, goal)
        checked += 1
