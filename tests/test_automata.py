"""Tests for the DFA/NFA machinery."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regdensity import (
    Alphabet,
    BudgetExceededError,
    Dfa,
    DiagonalLanguage,
    LanguageOracle,
    Nfa,
    Stepper,
    census_by_enumeration,
    dfa_from_json,
    equivalent,
    find_difference_witness,
    has_forbidden_word,
    is_subset,
    mod_counter_dfa,
    random_dfa,
    shortlex_least_member,
)
from regdensity import automata
from regdensity.approximations import family, nonpalindrome_window_dfa
from regdensity.automata import build_dfa
from regdensity.density import UniformChain
import reference_languages as ref
from reference_languages import dfa_to_json, raw_window_dfa

AB = Alphabet("ab")
ABC = Alphabet("abc")


@st.composite
def dfas(draw, max_states=6, alphabets=("ab", "abc")):
    alphabet = Alphabet(draw(st.sampled_from(alphabets)))
    n = draw(st.integers(1, max_states))
    delta = [
        [draw(st.integers(0, n - 1)) for _ in range(len(alphabet))]
        for _ in range(n)
    ]
    accepting = draw(st.sets(st.integers(0, n - 1)))
    return Dfa(alphabet, n, delta, 0, accepting)


def oracle_of(dfa):
    return LanguageOracle("dfa", dfa.alphabet, dfa.accepts)


def starts_with_a():
    return Dfa(AB, 3, [[1, 2], [1, 1], [2, 2]], 0, {1})


def evens():
    return Dfa(AB, 2, [[1, 1], [0, 0]], 0, {0})


def a_star():
    return Dfa(AB, 2, [[0, 1], [1, 1]], 0, {0})


def test_dfa_validation():
    with pytest.raises(ValueError):
        Dfa(AB, 2, [[0, 1]], 0, set())
    with pytest.raises(ValueError):
        Dfa(AB, 2, [[0, 1], [0]], 0, set())
    with pytest.raises(ValueError):
        Dfa(AB, 2, [[0, 2], [0, 0]], 0, set())
    with pytest.raises(ValueError):
        Dfa(AB, 2, [[0, 1], [0, 0]], 2, set())
    with pytest.raises(ValueError):
        Dfa(AB, 2, [[0, 1], [0, 0]], 0, {5})
    # a state that compares like an integer but is none: indexing with it fails
    with pytest.raises(ValueError, match="state 0: transition target 1.5 is not an integer"):
        Dfa(AB, 2, [[0, 1.5], [0, 0]], 0, {1})
    with pytest.raises(ValueError, match="state 1: transition target 1.0 is not an integer"):
        Dfa(AB, 2, [[0, 1], [1.0, 0]], 0, {1})
    with pytest.raises(ValueError, match="initial state 1.0 is not an integer"):
        Dfa(AB, 2, [[0, 1], [0, 0]], 1.0, {1})
    with pytest.raises(ValueError, match="accepting state 1.0 is not an integer"):
        Dfa(AB, 2, [[0, 1], [0, 0]], 0, {1.0})
    with pytest.raises(ValueError, match="number of states 2.0 is not an integer"):
        Dfa(AB, 2.0, [[0, 1], [0, 0]], 0, {1})
    with pytest.raises(ValueError, match="number of states True is not an integer"):
        Dfa(AB, True, [[0, 0]], 0, {0})
    with pytest.raises(ValueError, match="initial state '0' is not an integer"):
        Dfa(AB, 2, [[0, 1], [0, 0]], "0", {1})
    with pytest.raises(ValueError, match="accepting state '1' is not an integer"):
        Dfa(AB, 2, [[0, 1], [0, 0]], 0, {"1"})


@pytest.mark.parametrize(
    "delta, error, message",
    [
        # the first bad state is named, whatever is wrong with later rows
        ([[0, 1], [0, 4], [1, 1], [2]], ValueError, "state 1: transition target out of range"),
        ([[-1, 1], [0, 0], [1, 1], [2]], ValueError, "state 0: transition target out of range"),
        ([[0, 1], [0, 0], [1, 1], [2, 2, 2]], ValueError, "state 3: need one target per letter"),
        ([[0, 1], [0, 0], [1, 1]], ValueError, "transition table must have one row per state"),
        # a row's length is checked before its targets
        ([[0, 1], [9], [1, 1], [2, 2]], ValueError, "state 1: need one target per letter"),
        # a type is checked before the range, which a string cannot compare with
        ([[0, 1], [0, "b"], [1, 1], [2, 2]], ValueError, "state 1: transition target 'b' is not an integer"),
    ],
)
def test_dfa_validation_names_the_first_bad_state(delta, error, message):
    with pytest.raises(error, match=message):
        Dfa(AB, 4, delta, 0, set())


def test_accepts():
    m = starts_with_a()
    assert m.accepts("a") and m.accepts("abba")
    assert not m.accepts("") and not m.accepts("ba")


def test_alphabet_mismatch_errors():
    with pytest.raises(ValueError):
        starts_with_a().union(Dfa(ABC, 1, [[0, 0, 0]], 0, {0}))


@settings(max_examples=40, deadline=None)
@given(dfas())
def test_complement_involution(machine):
    assert equivalent(machine.complement().complement(), machine)


def test_minimize_examples():
    four_state_evens = Dfa(AB, 4, [[1, 3], [0, 2], [3, 1], [2, 0]], 0, {0, 2})
    assert four_state_evens.minimized().n_states == 2
    a3 = mod_counter_dfa(3)
    assert shortlex_least_member(a3.intersection(a3.complement())) is None


@settings(max_examples=30, deadline=None)
@given(dfas())
def test_minimize_idempotent_and_language_preserving(machine):
    minimal = machine.minimized()
    assert minimal.minimized() == minimal
    assert machine.count_words(10) == minimal.count_words(10)


def moore_minimized(dfa):
    """Test-only oracle: Moore refinement state by state, one signature
    tuple per state per round, then the quotient's blocks renumbered in BFS
    order, letters in alphabet order."""
    reach = sorted(dfa.reachable_states())
    pos = {q: i for i, q in enumerate(reach)}
    n_letters = len(dfa.alphabet)
    block = [1 if q in dfa.accepting else 0 for q in reach]
    n_blocks = len(set(block))
    while True:
        sigs = {}
        nxt = []
        for i, q in enumerate(reach):
            sig = (block[i], tuple(block[pos[dfa.delta[q][a]]] for a in range(n_letters)))
            if sig not in sigs:
                sigs[sig] = len(sigs)
            nxt.append(sigs[sig])
        block = nxt
        if len(sigs) == n_blocks:
            break
        n_blocks = len(sigs)
    rep_delta = {}
    for i, q in enumerate(reach):
        b = block[i]
        if b not in rep_delta:
            rep_delta[b] = [block[pos[dfa.delta[q][a]]] for a in range(n_letters)]
    accepting_blocks = {block[pos[q]] for q in reach if q in dfa.accepting}
    order = [block[pos[dfa.initial]]]
    for b in order:
        for t in rep_delta[b]:
            if t not in order:
                order.append(t)
    number = {b: i for i, b in enumerate(order)}
    return Dfa(
        dfa.alphabet,
        len(order),
        [[number[t] for t in rep_delta[b]] for b in order],
        0,
        {number[b] for b in order if b in accepting_blocks},
    )


def assert_minimized_matches_moore(machine):
    assert machine.minimized() == moore_minimized(machine)


@st.composite
def dfas_with_unreachable_states(draw):
    alphabet = Alphabet(draw(st.sampled_from(("a", "ab", "abc"))))
    n = draw(st.integers(1, 40))
    delta = [
        [draw(st.integers(0, n - 1)) for _ in range(len(alphabet))]
        for _ in range(n)
    ]
    initial = draw(st.integers(0, n - 1))
    accepting = draw(st.sets(st.integers(0, n - 1)))
    return Dfa(alphabet, n, delta, initial, accepting)


@settings(max_examples=60, deadline=None)
@given(dfas_with_unreachable_states())
def test_minimized_matches_moore_oracle(machine):
    assert_minimized_matches_moore(machine)


def test_minimized_matches_moore_oracle_on_window_machines():
    raw = [raw_window_dfa(k) for k in range(1, 6)]
    assert [machine.n_states for machine in raw] == [2 ** (2 * k + 1) - 1 for k in range(1, 6)]
    for machine in raw:
        assert_minimized_matches_moore(machine)


def test_window_machine_built_directly_is_the_minimized_raw_machine():
    # k = 7 is the largest window within the state budget
    for k in range(1, 8):
        assert nonpalindrome_window_dfa(k) == raw_window_dfa(k).minimized()


@settings(max_examples=25, deadline=None)
@given(dfas(max_states=6), st.integers(0, 10))
def test_count_words_matches_enumeration(machine, max_length):
    if len(machine.alphabet) ** max_length > 2 ** 16:
        max_length = 10 if len(machine.alphabet) == 2 else 8
    by_matrix = machine.count_words(max_length)
    by_enumeration = census_by_enumeration(oracle_of(machine), max_length)
    assert by_matrix == by_enumeration
    # the census of the machine's own stepper sums acceptance over its layers
    stepper = Stepper(
        machine.initial,
        lambda q, ch: machine.delta[q][machine.alphabet.rank(ch)],
        machine.accepting.__contains__,
    )
    stepped = LanguageOracle("dfa", machine.alphabet, stepper=stepper)
    assert census_by_enumeration(stepped, max_length) == by_matrix


def test_count_words_examples():
    assert starts_with_a().count_words(3).counts[3] == 4
    assert mod_counter_dfa(3).count_words(1).counts[1] == 2
    assert evens().count_words(4).counts[4] == 16


@settings(max_examples=80, deadline=None)
@given(dfas_with_unreachable_states(), st.integers(0, 60))
def test_count_words_matches_the_push_reference(machine, max_length):
    assert machine.count_words(max_length) == ref.count_words_by_push(machine, max_length)


def test_count_words_one_reachable_state_and_one_letter():
    # one state, accepting or not, alone or behind unreachable ones
    assert Dfa(AB, 1, [[0, 0]], 0, {0}).count_words(5).counts == [1, 2, 4, 8, 16, 32]
    assert Dfa(AB, 1, [[0, 0]], 0, set()).count_words(3).counts == [0, 0, 0, 0]
    assert Dfa(ABC, 3, [[1, 2, 0], [1, 1, 1], [0, 0, 2]], 1, {1}).count_words(3).counts == [
        1, 3, 9, 27
    ]
    assert Dfa(Alphabet("a"), 1, [[0]], 0, {0}).count_words(4).counts == [1] * 5
    # a unary 3-cycle entered at its last state accepts lengths 1 mod 3
    cycle = Dfa(Alphabet("a"), 3, [[1], [2], [0]], 2, {0})
    assert cycle.count_words(7).counts == [0, 1, 0, 0, 1, 0, 0, 1]
    for machine in (cycle, Dfa(AB, 1, [[0, 0]], 0, {0})):
        assert machine.count_words(0).counts == ref.count_words_by_push(machine, 0).counts
        with pytest.raises(ValueError):
            machine.count_words(-1)


@settings(max_examples=25, deadline=None)
@given(dfas(max_states=5, alphabets=("ab",)), dfas(max_states=5, alphabets=("ab",)))
def test_union_intersection_cardinalities(x, y):
    n = 8
    union = x.union(y).count_words(n).counts
    meet = x.intersection(y).count_words(n).counts
    cx = x.count_words(n).counts
    cy = y.count_words(n).counts
    for a, b, c, d in zip(union, meet, cx, cy):
        assert a + b == c + d


@settings(max_examples=40, deadline=None)
@given(dfas())
def test_count_rows_row_sums(machine):
    chain = UniformChain(machine)
    for p, row in zip(chain.original, chain.count_rows):
        assert sum(row.values()) == len(machine.alphabet)
        assert {chain.original[j]: c for j, c in row.items()} == Counter(machine.delta[p])


def test_forbidden_word_examples():
    ends_c = Dfa(ABC, 3, [[0, 0, 1], [2, 2, 2], [2, 2, 2]], 0, {1})
    assert has_forbidden_word(ends_c) == "ca"
    assert has_forbidden_word(a_star()) == "b"
    assert has_forbidden_word(mod_counter_dfa(3)) is None


def test_forbidden_word_brute_cross_check():
    ends_c = Dfa(ABC, 3, [[0, 0, 1], [2, 2, 2], [2, 2, 2]], 0, {1})
    found = has_forbidden_word(ends_c)

    def is_factor_of_member(piece, machine, max_len):
        for n in range(max_len + 1):
            for tup in itertools.product(machine.alphabet.symbols, repeat=n):
                word = "".join(tup)
                if piece in word and machine.accepts(word):
                    return True
        return False

    assert not is_factor_of_member(found, ends_c, 7)
    # everything strictly shortlex-smaller of the same length is a factor
    for tup in itertools.product(ABC.symbols, repeat=len(found)):
        word = "".join(tup)
        if ABC.shortlex_key(word) < ABC.shortlex_key(found):
            assert is_factor_of_member(word, ends_c, 7)


@st.composite
def dfas_with_empty_and_universal(draw):
    """Random 1-8-state machines: as drawn, with the last state made a
    rejecting sink, accepting nothing, or accepting every word."""
    machine = draw(dfas(max_states=8))
    n, delta, accepting = machine.n_states, list(machine.delta), machine.accepting
    kind = draw(st.sampled_from(("drawn", "sink", "none", "all")))
    if kind == "sink":
        delta[-1] = [n - 1] * len(machine.alphabet)
        accepting = accepting - {n - 1}
    elif kind != "drawn":
        accepting = range(n) if kind == "all" else ()
    return Dfa(machine.alphabet, n, delta, 0, accepting)


@settings(max_examples=200, deadline=None)
@given(dfas_with_empty_and_universal())
def test_forbidden_word_matches_the_factor_nfa_route(machine):
    assert has_forbidden_word(machine) == ref.forbidden_word_by_factor_nfa(machine)


def test_forbidden_word_empty_language_is_epsilon():
    nothing = Dfa(AB, 1, [[0, 0]], 0, frozenset())
    assert has_forbidden_word(nothing) == ""


def test_dense_means_every_short_word_is_a_factor():
    rng = random.Random(11)
    checked = 0
    while checked < 5:
        machine = random_dfa(rng, rng.randint(2, 5), AB)
        if has_forbidden_word(machine) is not None:
            continue
        checked += 1
        accepted = [
            "".join(tup)
            for m in range(13)
            for tup in itertools.product("ab", repeat=m)
            if machine.accepts("".join(tup))
        ]
        for n in range(5):
            for tup in itertools.product("ab", repeat=n):
                piece = "".join(tup)
                assert any(piece in word for word in accepted)


def test_mod_counter_examples():
    a3 = mod_counter_dfa(3)
    assert a3.n_states == 3 and a3.accepting == frozenset({1, 2})
    a1 = mod_counter_dfa(1)
    assert shortlex_least_member(a1) is None
    # a self-looped counter: the reference one, and the o3 outer machine,
    # whose a-b counter ignores c
    looped = ref.mod_counter_dfa(3, loops=("c",))
    assert looped.accepts("cac")
    assert not looped.accepts("cabc")
    o3_outer = family("o3").outer(3)
    assert not o3_outer.accepts("cac") and o3_outer.accepts("cabc")


def test_mod_counter_validation():
    for k in (0, -3):
        with pytest.raises(ValueError):
            mod_counter_dfa(k)


def test_mod_counter_is_the_hand_indexed_counter():
    for k in range(1, 12):
        machine = mod_counter_dfa(k)
        assert machine.n_states == k
        assert machine == machine.minimized() == ref.mod_counter_dfa(k).minimized()


def test_build_dfa_numbers_states_in_discovery_order():
    # states are the residues mod 5 under +1 and +2: BFS from 0 meets
    # 1, 2, then 3 (from 1), then 4 (from 2)
    machine = build_dfa(AB, 0, lambda r: ((r + 1) % 5, (r + 2) % 5), lambda r: r == 4)
    assert machine.delta == ((1, 2), (2, 3), (3, 4), (4, 0), (0, 1))
    assert machine.accepting == frozenset({4})
    assert machine.initial == 0


def parity_counter(k):
    """The a-b count difference mod k, accepting when it is odd: for even k
    the language is the words of odd length."""
    return build_dfa(AB, 0, lambda i: ((i + 1) % k, (i - 1) % k), lambda i: i % 2 == 1)


def test_every_exploration_stops_at_the_state_budget(monkeypatch):
    # two counters of one language: a product search sees all 20 reachable
    # pairs before it can answer
    odd10, odd4 = parity_counter(10), parity_counter(4)
    assert equivalent(odd10, odd4)
    monkeypatch.setattr(automata, "STATE_BUDGET", 10)
    assert mod_counter_dfa(10).n_states == 10
    with pytest.raises(BudgetExceededError):
        mod_counter_dfa(11)
    big = Dfa(AB, 11, [[(q + 1) % 11, q] for q in range(11)], 0, {0})
    # the subsets {0}, {1}, ..., {10} and the empty one: 12 reachable states
    cycle = Nfa(AB, 11, {(q, 0): {(q + 1) % 11} for q in range(11)}, {0}, {0})
    # all states useful: the full set, then {0}, {1}, ..., {10} under a and b
    shift = Dfa(AB, 11, [[(q + 1) % 11, 0] for q in range(11)], 0, {0})
    # its least member has 10 letters: 11 (state, letters still needed) pairs
    tenth = Dfa(AB, 11, [[(q + 1) % 11] * 2 for q in range(11)], 0, {10})
    for operation in (
        big.minimized,
        big.reachable_states,
        cycle.determinize,
        lambda: has_forbidden_word(shift),
        lambda: is_subset(odd10, odd4),
        lambda: equivalent(odd10, odd4),
        lambda: find_difference_witness(odd10, odd4),
        lambda: shortlex_least_member(tenth),
    ):
        with pytest.raises(BudgetExceededError, match="exceeds 10 reachable states"):
            operation()
    with pytest.raises(BudgetExceededError):
        mod_counter_dfa(4).union(mod_counter_dfa(3))


def test_forbidden_word_search_stops_at_the_goal(monkeypatch):
    # the subset machine has 18 reachable subsets, past a budget of 10, but
    # the search for the empty set meets it after one letter
    machine = Dfa(
        ABC,
        8,
        ((2, 5, 7), (2, 6, 7), (5, 6, 7), (5, 5, 7), (4, 0, 7), (6, 3, 7), (6, 1, 7), (7, 7, 7)),
        0,
        {2, 3, 4},
    )
    useful = frozenset(machine.useful_states())
    subsets, _ = automata.explore(
        [useful], lambda s: [frozenset(machine.delta[q][a] for q in s) & useful for a in range(3)]
    )
    assert len(subsets) == 18
    monkeypatch.setattr(automata, "STATE_BUDGET", 10)
    assert has_forbidden_word(machine) == "c"


def escaped_by_the_diagonal(machine):
    """Does the diagonal procedure pick a word against ``machine`` when its
    enumeration holds that one machine?  It skips a machine it reads as
    co-finite, and the exhausted enumeration then stops it."""
    program = DiagonalLanguage()
    program._stream = iter([machine])
    try:
        return program.escaped_machine(0) is machine
    except StopIteration:
        return False


@settings(max_examples=300, deadline=None)
@given(dfas(8, ("a", "ab", "abc")))
@example(Dfa(AB, 1, [[0, 0]], 0, {0}))  # every word: co-finite
@example(Dfa(AB, 2, [[1, 1], [1, 1]], 0, {0}))  # the empty word only
@example(evens())
# rejects just the words of one letter: finitely many, of n - 2 letters
@example(Dfa(AB, 3, [[1, 1], [2, 2], [2, 2]], 0, {0, 2}))
def test_coinfinite_by_the_pumping_bound_matches_the_scc_reference(machine):
    assert escaped_by_the_diagonal(machine) == ref.language_infinite(machine.complement())


@st.composite
def graphs(draw):
    """Successor lists on 1-60 nodes, each of out-degree 0-3; a target may
    repeat or be the node itself."""
    n = draw(st.integers(1, 60))
    return [draw(st.lists(st.integers(0, n - 1), max_size=3)) for _ in range(n)]


def reachable_from(graph, start):
    seen = {start}
    queue = [start]
    for v in queue:
        for w in graph[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_strongly_connected_components_match_mutual_reachability(graph):
    n = len(graph)
    comps = automata.strongly_connected_components(graph)
    where = {v: k for k, comp in enumerate(comps) for v in comp}
    assert sorted(v for comp in comps for v in comp) == list(range(n))
    reach = [reachable_from(graph, v) for v in range(n)]
    for u in range(n):
        for v in range(n):
            assert (where[u] == where[v]) == (v in reach[u] and u in reach[v])
    # reverse topological order: an edge stays in its component or goes to
    # an earlier one
    assert all(where[w] <= where[v] for v in range(n) for w in graph[v])


def test_strongly_connected_components_of_long_paths_and_cycles():
    n = 100_000
    path = [[v + 1] for v in range(n - 1)] + [[]]
    assert automata.strongly_connected_components(path) == [[v] for v in reversed(range(n))]
    cycle = [[(v + 1) % n] for v in range(n)]
    (comp,) = automata.strongly_connected_components(cycle)
    assert sorted(comp) == list(range(n))


def test_shortlex_least_member_examples():
    all_words = Dfa(AB, 1, [[0, 0]], 0, {0})
    assert shortlex_least_member(all_words, 2) == "aaa"
    starts_b = Dfa(AB, 3, [[2, 1], [1, 1], [2, 2]], 0, {1})
    assert shortlex_least_member(starts_b, 0) == "b"
    nothing = Dfa(AB, 1, [[0, 0]], 0, frozenset())
    assert shortlex_least_member(nothing, 0) is None
    assert shortlex_least_member(all_words) == ""


BRUTE_LENGTH = 8


def shortlex_words(alphabet, max_length=BRUTE_LENGTH):
    for n in range(max_length + 1):
        for tup in itertools.product(alphabet.symbols, repeat=n):
            yield "".join(tup)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["ab", "abc"]).flatmap(
    lambda letters: st.tuples(
        dfas(5, (letters,)), dfas(5, (letters,)), st.integers(-1, 3)
    )
))
def test_least_word_searches_match_shortlex_enumeration(case):
    x, y, min_length = case
    words = list(shortlex_words(x.alphabet))
    # a pair of machines may first differ past BRUTE_LENGTH (up to 25 states
    # in the product): then the search finds a longer word or none
    differ = next((w for w in words if x.accepts(w) != y.accepts(w)), None)
    found = find_difference_witness(x, y)
    if differ is not None:
        assert found == differ
    elif found is not None:
        assert len(found) > BRUTE_LENGTH and x.accepts(found) != y.accepts(found)
    assert equivalent(x, y) == (found is None)
    escape = next((w for w in words if x.accepts(w) and not y.accepts(w)), None)
    if escape is not None:
        assert not is_subset(x, y)
    else:
        assert is_subset(x, y) == (shortlex_least_member(x.difference(y)) is None)
    # exact: a least member longer than min_length visits no state twice after
    # its first min_length + 1 letters, so it has at most min_length + 5
    member = next((w for w in words if len(w) > min_length and x.accepts(w)), None)
    assert shortlex_least_member(x, min_length) == member


def test_nfa_determinize():
    # (a|epsilon) b over ab, from two initial states
    nfa = Nfa(AB, 3, {(0, 0): {1}, (1, 1): {2}}, {0, 1}, {2})
    dfa = nfa.determinize()
    assert dfa.accepts("ab") and dfa.accepts("b")
    assert not dfa.accepts("a") and not dfa.accepts("")


def test_is_subset_and_equivalent():
    assert is_subset(starts_with_a(), Dfa(AB, 1, [[0, 0]], 0, {0}))
    assert not is_subset(Dfa(AB, 1, [[0, 0]], 0, {0}), starts_with_a())
    assert equivalent(evens(), Dfa(AB, 4, [[1, 3], [0, 2], [3, 1], [2, 0]], 0, {0, 2}))


def test_json_round_trip():
    machine = family("o3").outer(3)  # three letters, a product of counters
    doc = dfa_to_json(machine)
    assert dfa_from_json(doc) == machine
    assert dfa_from_json(__import__("json").dumps(doc)) == machine
    with pytest.raises(ValueError):
        dfa_from_json({"alphabet": ["a"], "states": 1})
