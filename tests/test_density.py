"""Tests for the exact density engine."""

import importlib
import random
import time
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regdensity import (
    Alphabet,
    BudgetExceededError,
    Dfa,
    density,
    has_forbidden_word,
    is_dense,
    is_null,
    mod_counter_dfa,
    natural_density,
    random_dfa,
    ratio_and_cesaro,
    solve_exact,
)
from regdensity.approximations import nonpalindrome_window_dfa
from regdensity.automata import explore

import reference_languages as ref

density_module = importlib.import_module("regdensity.density")

AB = Alphabet("ab")


@st.composite
def dfas(draw, max_states=8):
    n = draw(st.integers(1, max_states))
    delta = [[draw(st.integers(0, n - 1)) for _ in range(2)] for _ in range(n)]
    accepting = draw(st.sets(st.integers(0, n - 1)))
    return Dfa(AB, n, delta, 0, accepting)


def starts_with_a(alphabet=AB):
    size = len(alphabet)
    delta = [[1 if a == 0 else 2 for a in range(size)], [1] * size, [2] * size]
    return Dfa(alphabet, 3, delta, 0, {1})


def evens():
    return Dfa(AB, 2, [[1, 1], [0, 0]], 0, {0})


def test_density_textbook_machines():
    assert density(starts_with_a()) == Fraction(1, 2)
    assert density(starts_with_a(Alphabet("abc"))) == Fraction(1, 3)
    assert density(evens()) == Fraction(1, 2)
    assert density(mod_counter_dfa(3)) == Fraction(2, 3)


def test_natural_density_reports():
    report = natural_density(evens())
    assert report.density == Fraction(1, 2)
    assert report.natural_density is None
    assert report.modulus == 2
    assert report.accumulation_points == (Fraction(1), Fraction(0))

    report = natural_density(starts_with_a())
    assert report.natural_density == Fraction(1, 2)
    assert report.modulus == 1

    nothing = Dfa(AB, 1, [[0, 0]], 0, frozenset())
    report = natural_density(nothing)
    assert report.natural_density == Fraction(0)
    assert all(v == 0 for v in report.accumulation_points)


def test_is_null_is_dense_examples():
    a_star = Dfa(AB, 2, [[0, 1], [1, 1]], 0, {0})
    assert is_null(a_star) and not is_dense(a_star)
    a3 = mod_counter_dfa(3)
    assert not is_null(a3) and is_dense(a3)
    all_words = Dfa(AB, 1, [[0, 0]], 0, {0})
    assert not is_null(all_words) and is_dense(all_words)


def recurrent_classes(machine):
    """(states, period, stationary law) of each recurrent class of the chain
    analysis, in the machine's own state numbering, ordered by states; a
    class that the analysis gives no law, one whose states all accept or
    all reject, takes it from the reference solve."""
    chain, classes, _ = density_module._analyse(machine)
    order = explore([machine.initial], machine.delta.__getitem__)[0]
    out = []
    for comp, weights, total in classes:
        if weights is None:
            weights, total = ref.stationary_by_pinned_solve(
                comp, chain.count_rows, chain.alphabet_size
            )
        period, _ = density_module._class_period_and_levels(comp, chain.count_rows)
        states = tuple(sorted(order[q] for q in comp))
        law = {order[q]: Fraction(w, total) for q, w in weights.items()}
        out.append((states, period, law))
    return sorted(out, key=lambda cls: cls[0])


def test_recurrent_classes_even_lengths():
    classes = recurrent_classes(evens())
    assert len(classes) == 1
    states, period, stationary = classes[0]
    assert states == (0, 1)
    assert period == 2
    assert stationary == {0: Fraction(1, 2), 1: Fraction(1, 2)}


@st.composite
def phased_dfas(draw):
    """Machines whose states fall into p phases, state q in phase q mod p,
    with every letter moving phase i to phase i + 1 mod p: every closed
    walk has a length divisible by p, so every class has a period that p
    divides."""
    p = draw(st.integers(1, 4))
    n = draw(st.integers(p, 12))
    phase = [range(i, n, p) for i in range(p)]
    delta = [[draw(st.sampled_from(phase[(q + 1) % p])) for _ in range(2)] for q in range(n)]
    return Dfa(AB, n, delta, 0, draw(st.sets(st.integers(0, n - 1))))


@settings(max_examples=60, deadline=None)
@given(st.one_of(dfas(12), phased_dfas()))
def test_class_period_and_levels_from_closed_walks(machine):
    # the words of length k lead from a class's first state exactly to
    # ``reached``: its period is the gcd of the lengths k <= n^2 that lead
    # back, and each state's level is the least k that reaches it
    chain, classes, _ = density_module._analyse(machine)
    for comp, _, _ in classes:
        root = comp[0]
        reached, period, distance = {root}, 0, {root: 0}
        for k in range(1, len(comp) ** 2 + 1):
            reached = {t for q in reached for t in chain.count_rows[q]}
            if root in reached:
                period = gcd(period, k)
            for q in reached:
                distance.setdefault(q, k)
        assert set(distance) == set(comp)
        found = density_module._class_period_and_levels(comp, chain.count_rows)
        assert found == (period, distance)


@settings(max_examples=30, deadline=None)
@given(dfas())
def test_recurrent_classes_are_stationary(machine):
    counts = [Counter(row) for row in machine.delta]
    size = len(machine.alphabet)
    for states, _, stationary in recurrent_classes(machine):
        assert sum(stationary.values()) == 1
        for q in states:
            inflow = sum(stationary[p] * Fraction(counts[p][q], size) for p in states)
            assert inflow == stationary[q]
            assert all(t in states for t in machine.delta[q])


def solved(step_rows, scale, fixed, comp, f):
    """Does ``_limit_vector`` hand this component to ``solve_exact``?  Not a
    fixed or one-state one, nor one whose edges out reach only 0, or only
    one value while each of its rows sums to scale."""
    if len(comp) == 1 or comp[0] in fixed:
        return False
    boundary = {f[q] for p in comp for q in step_rows[p] if q not in comp}
    if boundary <= {(0, 1)}:
        return False
    return len(boundary) > 1 or any(sum(step_rows[p].values()) != scale for p in comp)


def solves_per_call(limit_calls):
    """The ``solve_exact`` calls that each ``_limit_vector`` call needs: one
    per component ``solved`` (its arguments and the values it returned)."""
    return [
        sum(solved(step_rows, scale, fixed, comp, f) for comp in sccs)
        for (step_rows, scale, fixed, sccs), f in limit_calls
    ]


def test_one_decomposition_and_transient_solve_per_call(monkeypatch):
    calls = Counter()
    limit_calls = []
    periods = []

    def counted(name):
        original = getattr(density_module, name)

        def wrapper(*args):
            calls[name] += 1
            result = original(*args)
            if name == "_limit_vector":
                limit_calls.append((args, result))
            if name == "_class_period_and_levels":
                periods.append(result[0])
            return result

        monkeypatch.setattr(density_module, name, wrapper)

    for name in (
        "strongly_connected_components",
        "_limit_vector",
        "_class_period_and_levels",
        "explore",
        "solve_exact",
    ):
        counted(name)
    rng = random.Random(7)
    machines = [starts_with_a(), evens(), mod_counter_dfa(3)]
    machines += [random_dfa(rng, n, AB) for n in (3, 5, 8, 20, 60)]
    # a 2-state transient component 0 <-> 1 in front of a 2-cycle: one
    # value outside, so only residue block 2, whose rows have negative
    # weights, needs a solve
    machines.append(Dfa(AB, 4, [[1, 2], [0, 2], [3, 3], [2, 2]], 0, {2}))
    # 0 <-> 1 again, feeding an accepting and a rejecting sink: the Cesàro
    # pass alone solves
    machines.append(Dfa(AB, 4, [[1, 2], [0, 3], [2, 2], [3, 3]], 0, {2}))
    # a transient triangle into a 4-cycle: blocks 2 and 4
    machines.append(
        Dfa(
            Alphabet("abc"),
            7,
            [[1, 3, 1], [2, 5, 2], [0, 0, 6], [4, 4, 4], [5, 5, 5], [6, 6, 6], [3, 3, 3]],
            0,
            {1, 3, 4},
        )
    )
    # classes of one value: the 8 prefix classes of the window machine, each
    # of mass 7/8, and two accepting sinks behind state 0; the chain needs
    # no extension
    machines.append(nonpalindrome_window_dfa(3))
    machines.append(Dfa(AB, 3, [[1, 2], [1, 1], [2, 2]], 0, {1, 2}))
    aperiodic = 0
    solves = Counter()
    most_blocks = 0
    extended = Counter()
    for machine in machines:
        # a class's law is extended unless it is uniform, which it is
        # exactly when the class is doubly stochastic, or not needed, when
        # its states all accept or all reject; the chain is extended only
        # when the classes' values differ
        chain, classes, cesaro = density_module._analyse(machine)
        laws = sum(
            weights is not None and set(weights.values()) != {1} for _, weights, _ in classes
        )
        chained = len({cesaro[comp[0]] for comp, _, _ in classes}) > 1
        extended[chained] += 1
        transient_initial = all(chain.initial not in comp for comp, _, _ in classes)
        calls.clear()
        limit_calls.clear()
        periods.clear()
        density(machine)
        # no residue work: no periods and no blocks; the chain is the one
        # exploration, each law that is not uniform is one decomposition
        # and one extension on the class's in-edge graph, pinned at one
        # state, and every exact solve goes through the one solver
        per_call = solves_per_call(limit_calls)
        assert calls == Counter(
            strongly_connected_components=1 + laws,
            _limit_vector=chained + laws,
            explore=1,
            solve_exact=sum(per_call),
        )
        assert all(list(fixed.values()) == [(1, 1)] for (_, _, fixed, _), _ in limit_calls[:laws])
        solves.update(stationary=sum(per_call[:laws]), transient=sum(per_call[laws:]))
        if chained:
            # the chain's extension follows the laws', fixed at the classes
            (_, _, fixed, _), _ = limit_calls[laws]
            assert len(fixed) == sum(len(comp) for comp, _, _ in classes)
        calls.clear()
        limit_calls.clear()
        report = natural_density(machine)
        aperiodic += report.modulus == 1
        # with a transient initial state, one decomposition and one
        # extension per block: per d > 1 that divides a class's period
        blocks = {d for p in periods for d in range(2, p + 1) if p % d == 0}
        passes = len(blocks) * transient_initial
        most_blocks = max(most_blocks, passes)
        assert calls["strongly_connected_components"] == 1 + laws + passes
        assert calls["_limit_vector"] == chained + laws + passes
        # the chain and each class's levels; the blocks explore nothing
        assert calls["explore"] == 1 + calls["_class_period_and_levels"]
        assert calls["solve_exact"] == sum(solves_per_call(limit_calls))
    assert 0 < aperiodic < len(machines)
    assert most_blocks == 2
    # machines with and without the chain's extension, so neither branch
    # is vacuous
    assert extended[True] > 0 and extended[False] > 0
    # both kinds of system occur, so neither count is vacuous
    assert solves["stationary"] > 0 and solves["transient"] > 0


def relabelled(comp, count_rows, perm):
    """A class and its chain rows with chain state q renamed perm[q]."""
    rows = [None] * len(count_rows)
    for p, row in enumerate(count_rows):
        rows[perm[p]] = {perm[q]: c for q, c in row.items()}
    return [perm[q] for q in comp], rows


@settings(max_examples=80, deadline=None)
@given(st.one_of(dfas(12), phased_dfas()), st.randoms(use_true_random=False))
def test_stationary_laws_match_the_pinned_solve(machine, rng):
    # the law is unique and its weights primitive, so the extension from the
    # state of most predecessors gives the one pinned solve's weights; a
    # relabelling of the chain moves the pin among tied states, and
    # reorders the class and its components, but not the weights; a class
    # that the analysis gives no law is still solved after relabelling
    chain, classes, _ = density_module._analyse(machine)
    s = chain.alphabet_size
    for comp, weights, total in classes:
        law = ref.stationary_by_pinned_solve(comp, chain.count_rows, s)
        if weights is not None:
            assert (weights, total) == law
        weights, total = law
        perm = list(range(chain.n))
        rng.shuffle(perm)
        moved, total_moved = density_module._stationary(*relabelled(comp, chain.count_rows, perm), s)
        assert total_moved == total
        assert {q: moved[perm[q]] for q in comp} == weights


@settings(max_examples=40, deadline=None)
@given(dfas())
def test_density_report_invariants(machine):
    report = natural_density(machine)
    assert 0 <= report.density <= 1
    assert sum(report.accumulation_points) == report.modulus * report.density
    if report.natural_density is not None:
        assert report.natural_density == report.density
        assert all(v == report.natural_density for v in report.accumulation_points)
    else:
        assert len(set(report.accumulation_points)) > 1


@settings(max_examples=40, deadline=None)
@given(dfas())
def test_complement_law(machine):
    assert density(machine) + density(machine.complement()) == 1


@settings(max_examples=25, deadline=None)
@given(dfas(max_states=6), dfas(max_states=6))
def test_monotonicity_and_additivity(x, y):
    meet = x.intersection(y)
    assert density(meet) <= density(x)
    assert density(meet) <= density(y)
    rest = x.difference(y)
    assert density(rest.union(y)) == density(rest) + density(y)


@settings(max_examples=30, deadline=None)
@given(dfas())
def test_null_iff_not_dense(machine):
    assert (density(machine) == 0) == (has_forbidden_word(machine) is not None)


def test_convergence_of_counts_to_reported_limits():
    rng = random.Random(0xC0FFEE)
    for _ in range(12):
        machine = random_dfa(rng, rng.randint(1, 8), AB)
        report = natural_density(machine)
        ratios, cesaro = ratio_and_cesaro(machine.count_words(200))
        assert abs(cesaro[200] - report.density) <= Fraction(1, 20)
        c = report.modulus
        for d in range(c):
            n = 60 + ((d - 60) % c)
            assert abs(ratios[n] - report.accumulation_points[d]) <= Fraction(1, 2 ** 10)


def as_fractions(solution):
    """The solver's (numerator, denominator) pairs as Fractions, after
    checking that each pair is reduced with a positive denominator."""
    for pair in solution:
        assert type(pair) is tuple and all(type(v) is int for v in pair)
        num, den = pair
        assert den > 0 and gcd(num, den) == 1
    return [Fraction(*pair) for pair in solution]


def test_solve_exact_small_system():
    x = as_fractions(solve_exact([{0: 2, 1: 1}, {0: 1, 1: 3}], [5, 10]))
    assert x == [Fraction(1), Fraction(3)]


def test_solve_exact_takes_integer_right_hand_sides_only():
    with pytest.raises(TypeError):
        solve_exact([{0: 3, 1: 2}, {0: 1, 1: 4}], [Fraction(7, 6), 2])


def test_solve_exact_singular_raises():
    with pytest.raises(ArithmeticError):
        solve_exact([{0: 1, 1: 1}, {0: 2, 1: 2}], [1, 2])
    with pytest.raises(ArithmeticError):
        solve_exact([{0: 1}, {0: 2}], [1, 2])  # column 1 is empty


def test_solve_exact_rejects_a_column_outside_the_system():
    with pytest.raises(ValueError):
        solve_exact([{0: 1, 2: 1}, {1: 1}], [1, 2])


def bareiss_solve(rows, rhs):
    """Test oracle: dense fraction-free (Bareiss) elimination on integer-scaled
    rows, back-substituted with Fractions.  Raises ArithmeticError on a
    singular system."""
    n = len(rows)
    m = []
    for i in range(n):
        entries = [Fraction(v) for v in rows[i]] + [Fraction(rhs[i])]
        scale = lcm(*(e.denominator for e in entries))
        m.append([int(e * scale) for e in entries])
    prev = 1
    for k in range(n):
        pivot_row = next((r for r in range(k, n) if m[r][k]), None)
        if pivot_row is None:
            raise ArithmeticError("singular linear system")
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
        for i in range(k + 1, n):
            mk = m[k]
            mi = m[i]
            factor = mi[k]
            for j in range(k + 1, n + 1):
                mi[j] = (mk[k] * mi[j] - factor * mk[j]) // prev
            mi[k] = 0
        prev = m[k][k]
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = Fraction(m[i][n])
        for j in range(i + 1, n):
            acc -= m[i][j] * x[j]
        x[i] = acc / m[i][i]
    return x


coefficients = st.one_of(
    st.just(0),
    st.integers(-6, 6),
    st.fractions(min_value=-4, max_value=4, max_denominator=7),
)


@st.composite
def sparse_systems(draw, min_n):
    """A diagonal plus 1-3 off-diagonal entries per row, sometimes with one
    column emptied or one row repeated, so the pivot rule meets many row and
    column counts and both ways a system can be singular."""
    n = draw(st.integers(min_n, 60))
    nonzero = st.sampled_from([v for v in range(-6, 7) if v])
    rows = []
    for i in range(n):
        row = [0] * n
        row[i] = draw(nonzero)
        for j in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)):
            if j != i:
                row[j] = draw(nonzero)
        rows.append(row)
    shape = draw(st.sampled_from(["plain", "plain", "empty column", "repeated row"]))
    if shape == "empty column":
        j = draw(st.integers(0, n - 1))
        for row in rows:
            row[j] = 0
    elif shape == "repeated row":
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        rows[i] = list(rows[j])
    return rows, draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))


@st.composite
def square_systems(draw, max_n=12):
    if draw(st.booleans()):
        return draw(sparse_systems(min_n=max_n + 1))
    n = draw(st.integers(1, max_n))
    row = st.lists(coefficients, min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        # a row that is a multiple of another makes the system singular
        j = draw(st.integers(0, n - 1))
        i = (j + draw(st.integers(1, n - 1))) % n
        a = draw(coefficients)
        rows[i] = [a * x for x in rows[j]]
    return rows, draw(row)


@settings(max_examples=60, deadline=None)
@given(square_systems())
def test_solve_exact_matches_bareiss_oracle(system):
    rows, rhs = system
    # each equation scaled to integer entries and an integer right-hand
    # side, as the density engine builds them
    int_rows = []
    int_rhs = []
    for row, b in zip(rows, rhs):
        scale = lcm(*(Fraction(v).denominator for v in [*row, b]))
        int_rows.append({j: int(v * scale) for j, v in enumerate(row) if v})
        int_rhs.append(int(b * scale))
    try:
        expected = bareiss_solve(rows, rhs)
    except ArithmeticError:
        with pytest.raises(ArithmeticError):
            solve_exact(int_rows, int_rhs)
        return
    assert as_fractions(solve_exact(int_rows, int_rhs)) == expected


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-50, 50), st.fractions(max_denominator=60) | st.integers(-9, 9))
    ),
    st.integers(1, 50),
)
def test_weighted_sum_matches_fraction_arithmetic(terms, divisor):
    pairs = [(w, (v.numerator, v.denominator)) for w, v in terms]
    num, den = density_module._weighted_sum(pairs, divisor)
    assert type(num) is int and type(den) is int
    assert den > 0 and gcd(num, den) == 1
    assert Fraction(num, den) == sum(w * v for w, v in terms) / Fraction(divisor)


def test_solve_exact_work_budget(monkeypatch):
    machine = random_dfa(random.Random(3), 40, AB)
    expected = natural_density(machine)
    monkeypatch.setattr(density_module, "_SOLVE_WORK_LIMIT", 5)
    with pytest.raises(BudgetExceededError):
        natural_density(machine)
    monkeypatch.setattr(density_module, "_SOLVE_WORK_LIMIT", 10 ** 6)
    assert natural_density(machine) == expected


def tail_then_cycle():
    """0 -> 1 <-> 2 on both letters: one transient state before a 2-cycle,
    so c = 2."""
    return Dfa(AB, 3, [[1, 1], [2, 2], [1, 1]], 0, {1})


def transient_triangle():
    """a walks the transient 3-cycle 0 -> 1 -> 2 -> 0 and b leaves it for
    the 2-cycle 3 <-> 4: the Cesàro solve has 3 unknowns, and so has
    residue block 2, which reads x as −1."""
    return Dfa(AB, 5, [[1, 3], [2, 3], [0, 4], [4, 4], [3, 3]], 0, {0, 3})


def least_solve_limit(monkeypatch, run):
    """The least ``_SOLVE_WORK_LIMIT`` under which ``run()`` completes."""
    limit = 0
    while True:
        monkeypatch.setattr(density_module, "_SOLVE_WORK_LIMIT", limit)
        try:
            run()
            return limit
        except BudgetExceededError:
            limit += 1


def test_residue_limit_work_budget(monkeypatch):
    # the residue block's solve runs under the same work bound as the
    # chain's, and just under its work natural_density exits on it
    machine = transient_triangle()
    expected = natural_density(machine)
    assert expected.modulus == 2 and expected.natural_density is None
    cesaro = least_solve_limit(monkeypatch, lambda: density(machine))
    residue = least_solve_limit(monkeypatch, lambda: natural_density(machine))
    assert cesaro < residue
    monkeypatch.setattr(density_module, "_SOLVE_WORK_LIMIT", residue - 1)
    assert density(machine) == expected.density
    with pytest.raises(BudgetExceededError, match="3-unknown system"):
        natural_density(machine)
    monkeypatch.setattr(density_module, "_SOLVE_WORK_LIMIT", residue)
    assert natural_density(machine) == expected


def test_large_periodic_machine_without_transients():
    # Every state is recurrent, so the residue limits are the class's phase
    # masses and no block is solved: a-edges form one even cycle and b-edges
    # cross parity, so the one class has period 2.
    rng = random.Random(600)
    n = 600
    delta = [[(q + 1) % n, (q + 1 + 2 * rng.randrange(n // 2)) % n] for q in range(n)]
    machine = Dfa(AB, n, delta, 0, {q for q in range(n) if rng.random() < 0.5})
    report = natural_density(machine)
    assert report.modulus == 2
    assert sum(report.accumulation_points) == 2 * report.density
    assert report.natural_density is None
    ratios, _ = ratio_and_cesaro(machine.count_words(201))
    for length in (200, 201):
        assert abs(ratios[length] - report.accumulation_points[length % 2]) < Fraction(1, 2 ** 40)


def test_stationary_validity_check(monkeypatch):
    # a -> 0, b -> 1 from state 0 and both letters 1 -> 0: one class that is
    # not doubly stochastic, with law (2/3, 1/3); its law is the first
    # _limit_vector call, and a negated value of the state that is not
    # pinned makes a weight negative
    machine = Dfa(AB, 2, [[0, 1], [0, 0]], 0, {0})
    assert density(machine) == Fraction(2, 3)
    limit_vector = density_module._limit_vector
    vectors = []

    def negated(step_rows, scale, fixed, sccs):
        f = limit_vector(step_rows, scale, fixed, sccs)
        vectors.append(f)
        if len(vectors) == 1:
            (q,) = (q for q in f if q not in fixed)
            num, den = f[q]
            f[q] = -num, den
        return f

    monkeypatch.setattr(density_module, "_limit_vector", negated)
    with pytest.raises(ArithmeticError, match="stationary solve"):
        density(machine)
    assert len(vectors) == 1


def test_residue_limits_consistency_check(monkeypatch):
    # the _limit_vector call made inside _block_value(2, ...) is residue
    # block 2's; raising the initial state's value there by 1 would move the
    # two residue limits by +1 and −1, which keeps their sum, but it breaks
    # the initial state's row of the block
    expected = natural_density(tail_then_cycle())
    assert expected.modulus == 2
    block_value = density_module._block_value
    limit_vector = density_module._limit_vector
    blocks = []
    perturbed_blocks = []

    def in_block(d, *args):
        blocks.append(d)
        try:
            return block_value(d, *args)
        finally:
            blocks.pop()

    def perturbed(*args):
        f = limit_vector(*args)
        if blocks == [2]:
            perturbed_blocks.append(2)
            num, den = f[0]
            f[0] = num + den, den
        return f

    monkeypatch.setattr(density_module, "_block_value", in_block)
    monkeypatch.setattr(density_module, "_limit_vector", perturbed)
    with pytest.raises(ArithmeticError, match="residue limits inconsistent with block 2"):
        natural_density(tail_then_cycle())
    assert perturbed_blocks == [2]


def test_large_periodic_class_behind_one_transient_state():
    # the 600-state period-2 machine above behind one transient state, which
    # reads a into its state 0 and b into its state 1: one unknown in
    # residue block 2
    rng = random.Random(600)
    n = 600
    delta = [[(q + 1) % n, (q + 1 + 2 * rng.randrange(n // 2)) % n] for q in range(n)]
    accepting = {q + 1 for q in range(n) if rng.random() < 0.5}
    delta = [[1, 2]] + [[t + 1 for t in row] for row in delta]
    machine = Dfa(AB, n + 1, delta, 0, accepting)
    report = natural_density(machine)
    assert report.modulus == 2
    assert sum(report.accumulation_points) == 2 * report.density
    ratios, _ = ratio_and_cesaro(machine.count_words(201))
    for length in (200, 201):
        assert abs(ratios[length] - report.accumulation_points[length % 2]) < Fraction(1, 2 ** 40)


def letter_cycles(lengths):
    """State 0 reads letter i into cycle i; every letter advances each cycle
    by one state, and each cycle's first state accepts.  The modulus is the
    lcm of the lengths and state 0 is the one transient state."""
    starts, n = [], 1
    for length in lengths:
        starts.append(n)
        n += length
    delta = [starts]
    for start, length in zip(starts, lengths):
        delta += [[start + (j + 1) % length] * len(lengths) for j in range(length)]
    return Dfa(Alphabet("abcdef"[: len(lengths)]), n, delta, 0, set(starts))


def test_letter_cycles_residue_limits_are_exact():
    # a word of length k ≥ 1 is accepted iff its first letter i picks a
    # cycle whose length divides k − 1, so the ratio is the same at every
    # length of a residue class
    lengths = (5, 7, 8, 9, 11)
    report = natural_density(letter_cycles(lengths))
    assert report.modulus == 27720
    expected = [sum((k - 1) % n == 0 for n in lengths) for k in range(27720)]
    assert report.accumulation_points == tuple(Fraction(v, 5) for v in expected)
    assert report.natural_density is None
    assert report.density == sum(Fraction(1, 5 * n) for n in lengths)


def test_modulus_past_the_state_budget_raises_before_exploring(monkeypatch):
    # c = 360,360 residue limits are more than the state budget allows, so
    # the command refuses before any block is built
    machine = letter_cycles((5, 7, 8, 9, 11, 13))
    assert machine.n_states == 54
    assert density(machine) == sum(Fraction(1, 6 * n) for n in (5, 7, 8, 9, 11, 13))
    starts = []
    explore = density_module.explore

    def recorded(initial, successors):
        starts.append(list(initial))
        return explore(initial, successors)

    monkeypatch.setattr(density_module, "explore", recorded)
    monkeypatch.setattr(density_module, "_block_value", None)
    with pytest.raises(BudgetExceededError, match="modulus 360360"):
        natural_density(machine)
    # the chain and the six classes' levels, all from single chain states
    assert len(starts) == 7 and all(len(initial) == 1 for initial in starts)
    monkeypatch.undo()
    # small moduli answer: c = 6 over three letters
    report = natural_density(letter_cycles((2, 3, 6)))
    assert report.modulus == 6
    assert sum(report.accumulation_points) == 6 * report.density


def test_residue_pairs_past_the_explorer_budget():
    # c = 72,072 is under the state budget, and the transient state and the
    # five cycles' first states give 6·72,072 (state, phase) pairs, past it;
    # the blocks need (7 − 1) + (8 − 1) + (9 − 1) + (11 − 1) + (13 − 1) = 43
    # unknowns, as Σ_{d|p} φ(d) = p, and the limits are the closed form of
    # test_letter_cycles_residue_limits_are_exact
    lengths = (7, 8, 9, 11, 13)
    start = time.perf_counter()
    report = natural_density(letter_cycles(lengths))
    assert time.perf_counter() - start < 5
    assert report.modulus == 72072
    expected = [sum((k - 1) % n == 0 for n in lengths) for k in range(72072)]
    assert report.accumulation_points == tuple(Fraction(v, 5) for v in expected)


@st.composite
def transient_periodic_dfas(draw):
    """A transient component drained into a c-cycle, c = 2..7: a walks a
    cycle through the n transient states, b maps into them except on the
    exit states, where it enters the cycle; both letters advance the cycle."""
    n = draw(st.integers(1, 12))
    c = draw(st.integers(2, 7))
    order = draw(st.permutations(range(n)))
    after = {q: order[(i + 1) % n] for i, q in enumerate(order)}
    exits = draw(st.sets(st.integers(0, n - 1), min_size=1))
    delta = [
        [after[q], n + draw(st.integers(0, c - 1)) if q in exits else draw(st.integers(0, n - 1))]
        for q in range(n)
    ]
    delta += [[n + (i + 1) % c] * 2 for i in range(c)]
    return Dfa(AB, n + c, delta, 0, draw(st.sets(st.integers(0, n + c - 1))))


def into_cycles(seed, n, periods):
    """n transient states, as in ``transient_periodic_dfas``, whose exits
    enter one cycle of each of the given lengths at random phases."""
    rng = random.Random(seed)
    starts = [n + sum(periods[:i]) for i in range(len(periods))]
    order = list(range(n))
    rng.shuffle(order)
    after = {q: order[(i + 1) % n] for i, q in enumerate(order)}
    exits = set(rng.sample(range(n), max(1, n // 2)))
    entries = [start + i for start, length in zip(starts, periods) for i in range(length)]
    delta = [[after[q], rng.choice(entries) if q in exits else rng.randrange(n)] for q in range(n)]
    for start, length in zip(starts, periods):
        delta += [[start + (i + 1) % length] * 2 for i in range(length)]
    size = n + sum(periods)
    return Dfa(AB, size, delta, 0, {q for q in range(size) if rng.random() < 0.5})


@settings(max_examples=80, deadline=None)
@given(st.one_of(dfas(14), phased_dfas(), transient_periodic_dfas()))
@example(into_cycles(8, 9, (8,)))
@example(into_cycles(12, 7, (12,)))
@example(into_cycles(24, 6, (8, 12)))
def test_natural_density_matches_the_c_step_chain(machine):
    # both references: the c-step count chain and the (state, phase)
    # product; c = 8 and 12 exercise blocks of φ(d) = 4, and periods 8 and
    # 12 together give c = 24 with blocks only for the divisors of either
    report = natural_density(machine)
    assert report == ref.natural_density_by_c_step(machine)
    assert report == ref.natural_density_by_phase_product(machine)


@st.composite
def one_verdict_dfas(draw):
    """Phased machines whose accepting set is a union of whole closed
    classes, with any transient states added: every closed class then
    accepts or rejects as a whole."""
    machine = draw(phased_dfas())
    closed, transient = [], []
    for comp in density_module.strongly_connected_components(machine.delta):
        if all(t in comp for q in comp for t in machine.delta[q]):
            closed.append(comp)
        else:
            transient += comp
    accepting = set(draw(st.sets(st.sampled_from(transient)))) if transient else set()
    for comp in closed:
        if draw(st.booleans()):
            accepting.update(comp)
    return Dfa(AB, machine.n_states, machine.delta, 0, accepting)


def no_law(*args):
    raise AssertionError("a class that accepts or rejects as a whole needs no law")


@settings(max_examples=80, deadline=None)
@given(one_verdict_dfas())
def test_one_verdict_classes_need_no_stationary_law(machine):
    # each of a p-periodic class's p phases has mass 1/p, so the class
    # limits need no law; the reference solves every class's law
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(density_module, "_stationary", no_law)
        report = natural_density(machine)
    assert report == ref.natural_density_by_phase_product(machine)


@settings(max_examples=40, deadline=None)
@given(st.one_of(phased_dfas(), transient_periodic_dfas()))
def test_residue_limits_match_berlekamp_massey(machine):
    # an oracle that reads only count_words: rational reconstruction of
    # each decimated ratio sequence
    report = natural_density(machine)
    assert report.accumulation_points == ref.residue_limits_by_berlekamp_massey(
        machine, report.modulus
    )


@st.composite
def copies_behind_fan_out(draw, flip=False):
    """k ≥ 2 copies of one strongly connected machine of m states, where a
    walks a cycle, behind t ≥ k transient states: transient state i reads a
    into a random state of copy i mod k and b into state i + 1, the last
    one anywhere, so every copy is reached and every transient state can
    leave for one.  The copies are closed classes of one value; with
    ``flip``, copy 0 accepts exactly where the others reject."""
    m = draw(st.integers(1, 5))
    k = draw(st.integers(2, 4))
    t = draw(st.integers(k, 7))
    inner = [[(q + 1) % m, draw(st.integers(0, m - 1))] for q in range(m)]
    verdicts = draw(st.sets(st.integers(0, m - 1)))
    n = t + k * m
    delta = [
        [
            t + i % k * m + draw(st.integers(0, m - 1)),
            i + 1 if i + 1 < t else draw(st.integers(0, n - 1)),
        ]
        for i in range(t)
    ]
    accepting = draw(st.sets(st.integers(0, t - 1)))
    for j in range(k):
        base = t + j * m
        delta += [[base + q for q in row] for row in inner]
        copy = set(range(m)) - verdicts if flip and j == 0 else verdicts
        accepting |= {base + q for q in copy}
    return Dfa(AB, n, delta, 0, accepting)


def cesaro_by_full_extension(machine):
    """The initial state's Cesàro value from one ``_limit_vector`` pass over
    the whole chain, each class fixed at its accepting mass under the
    reference law."""
    chain, classes, _ = density_module._analyse(machine)
    rows, s = chain.count_rows, chain.alphabet_size
    fixed = {}
    for comp, _, _ in classes:
        weights, total = ref.stationary_by_pinned_solve(comp, rows, s)
        mass = density_module._weighted_sum(
            (weights[q], (1, total)) for q in comp if q in chain.accepting
        )
        fixed.update(dict.fromkeys(comp, mass))
    sccs = density_module.strongly_connected_components(rows)
    return Fraction(*density_module._limit_vector(rows, s, fixed, sccs)[chain.initial])


@settings(max_examples=60, deadline=None)
@given(st.one_of(copies_behind_fan_out(), copies_behind_fan_out(flip=True)))
def test_classes_of_one_value_match_the_full_extension(machine):
    # equal-valued classes give every state their value with no transient
    # pass; the full extension and the residue limits read off count_words
    # must agree, and a flipped copy, whose value differs unless it is 1/2,
    # must not take that shortcut
    value = density(machine)
    assert value == cesaro_by_full_extension(machine)
    report = natural_density(machine)
    limits = ref.residue_limits_by_berlekamp_massey(machine, report.modulus)
    assert value == report.density == sum(limits) / report.modulus


@pytest.mark.parametrize("k", range(1, 7))
def test_window_machines_have_one_class_value(k):
    # one closed class per k-letter prefix, each of mass 1 − 2^−k
    machine = nonpalindrome_window_dfa(k)
    _, classes, _ = density_module._analyse(machine)
    assert len(classes) == 2**k
    assert density(machine) == 1 - Fraction(1, 2**k)


def test_residue_blocks_past_the_state_budget_exit_quickly():
    # ten transient states in front of a 20,011-cycle (a prime): block
    # 20,011 alone needs 10·20,010 unknowns, past the state budget, so the
    # command refuses before any row is built; the Cesàro density answers
    n, period = 10, 20011
    delta = [[q + 1 if q + 1 < n else n, n + 7 * q] for q in range(n)]
    delta += [[n + (i + 1) % period] * 2 for i in range(period)]
    machine = Dfa(AB, n + period, delta, 0, {n})
    assert density(machine) == Fraction(1, period)
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="200100 unknowns exceed the 200000-state"):
        natural_density(machine)
    assert time.perf_counter() - start < 1


def test_single_cycle_from_a_recurrent_initial_state_solves_no_block(monkeypatch):
    # every state of a 100,000-cycle is recurrent: the limits are the phase
    # masses, read off from the initial state's level, and no block is built
    n = 100_000
    machine = Dfa(AB, n, [[(q + 1) % n] * 2 for q in range(n)], 0, {0, 3})
    monkeypatch.setattr(density_module, "_block_value", None)
    start = time.perf_counter()
    report = natural_density(machine)
    assert time.perf_counter() - start < 10
    assert report.modulus == n and report.density == Fraction(2, n)
    assert report.accumulation_points == tuple(Fraction(j in (0, 3)) for j in range(n))


def permuted(machine, perm):
    """The same machine with state q renamed perm[q]."""
    delta = [None] * machine.n_states
    for q, row in enumerate(machine.delta):
        delta[perm[q]] = [perm[t] for t in row]
    accepting = {perm[q] for q in machine.accepting}
    return Dfa(machine.alphabet, machine.n_states, delta, perm[machine.initial], accepting)


@st.composite
def machines_with_permutations(draw, max_states=40):
    machine = draw(dfas(max_states=max_states))
    return machine, draw(st.permutations(range(machine.n_states)))


@settings(max_examples=40, deadline=None)
@given(machines_with_permutations())
def test_natural_density_invariant_under_state_permutation(case):
    machine, perm = case
    assert natural_density(permuted(machine, perm)) == natural_density(machine)


def residue_limits(report, modulus):
    """The report's residue limits along every residue mod ``modulus``, a
    multiple of its own modulus."""
    return [report.accumulation_points[d % report.modulus] for d in range(modulus)]


@settings(max_examples=40, deadline=None)
@given(dfas(max_states=40))
def test_natural_density_invariant_under_minimization(machine):
    # The modulus is the lcm of the periods of the machine's recurrent
    # classes, which minimization can shrink (an empty language read by a
    # 2-cycle has c = 2, its 1-state minimal machine c = 1); the limits along
    # each residue class of lengths are properties of the language.
    original = natural_density(machine)
    reduced = natural_density(machine.minimized())
    assert reduced.density == original.density
    assert reduced.natural_density == original.natural_density
    assert original.modulus % reduced.modulus == 0
    assert residue_limits(reduced, original.modulus) == list(original.accumulation_points)


@settings(max_examples=100, deadline=None)
@given(dfas())
@example(Dfa(AB, 2, [[1, 1], [0, 0]], 0, {0, 1}))  # every word: c = 2, reversed c = 1
def test_density_report_invariant_under_reversal(machine):
    # a word and its reversal have one length, so the two languages have
    # equal counts at every length and so equal limits; the moduli belong to
    # the machines and may differ, so the limits are compared along the lcm
    flipped = ref.reverse(machine).determinize()
    assert flipped.count_words(20) == machine.count_words(20)
    assert density(flipped) == density(machine)
    original, reversed_ = natural_density(machine), natural_density(flipped)
    assert reversed_.natural_density == original.natural_density
    modulus = lcm(original.modulus, reversed_.modulus)
    assert residue_limits(reversed_, modulus) == residue_limits(original, modulus)


def test_stationarity_of_large_recurrent_class():
    rng = random.Random(160)
    n = 160
    # the a-edges form one cycle through every state, so the chain is irreducible
    delta = [[(q + 1) % n, rng.randrange(n)] for q in range(n)]
    accepting = {q for q in range(n) if rng.random() < 0.5}
    machine = Dfa(AB, n, delta, 0, accepting)
    ((states, _, pi),) = recurrent_classes(machine)
    assert states == tuple(range(n))
    assert len(set(pi.values())) > 1  # not the doubly-stochastic shortcut
    assert all(v > 0 for v in pi.values())
    assert sum(pi.values()) == 1
    inflow = dict.fromkeys(range(n), Fraction(0))
    for p, row in enumerate(delta):
        for t in row:
            inflow[t] += pi[p] / 2
    assert inflow == pi
