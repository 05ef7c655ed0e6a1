"""Exact densities of regular languages via the uniform-letter Markov chain.

Reading uniformly random letters turns a total DFA into a finite Markov
chain on its states.  The density of the language is the Cesàro limit of
the probability of sitting in an accepting state.  One analysis per chain
computes it exactly: a single strongly-connected decomposition gives the
bottom (recurrent) classes, whose stationary distributions are solved once,
and the same decomposition orders the transient solve that propagates their
values.  ``density`` reads the Cesàro value from that analysis;
``natural_density`` adds the class periods and, only when their lcm c
exceeds 1, the per-residue limits as one more harmonic extension on the
same one-step chain, over its (state, phase) product.  The chain is kept
as integer letter counts (each row sums to the alphabet size s), and every
linear system is solved exactly by sparse integer elimination, each pivot
taken in a row of fewest nonzeros.  Arithmetic stays on Python ints: a
class's stationary law is integer weights over their total, every other
value a reduced (numerator, positive denominator) pair, and each weighted
sum (a transient state's or product node's value, a class's accepting or
phase mass) is reduced once, by ``_weighted_sum``; only reported values
become Fractions.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .automata import STATE_BUDGET, explore, has_forbidden_word, strongly_connected_components
from .core import BudgetExceededError

_SOLVE_WORK_LIMIT = 4_000_000


@dataclass(frozen=True)
class DensityReport:
    """Exact density data of a regular language.

    ``natural_density`` is None when the plain limit of acceptance ratios
    does not exist; ``accumulation_points[d]`` is the limit of the ratios
    along lengths congruent to d modulo ``modulus``.
    """

    density: Fraction
    natural_density: Fraction | None
    modulus: int
    accumulation_points: tuple[Fraction, ...]


class UniformChain:
    """Letter-count chain on the reachable states of a DFA.

    ``count_rows[p][q]`` is the number of letters moving p to q; every row
    sums to ``alphabet_size``, so dividing by it gives the transition
    probabilities.
    """

    __slots__ = (
        "n",
        "initial",
        "accepting",
        "count_rows",
        "alphabet_size",
        "original",
    )

    def __init__(self, dfa):
        order, rows = explore([dfa.initial], dfa.delta.__getitem__)
        s = len(dfa.alphabet)
        count_rows = []
        for targets in rows:
            row = {}
            for j in targets:
                row[j] = row.get(j, 0) + 1
            count_rows.append(row)
        self.n = len(order)
        self.initial = 0
        self.accepting = frozenset(i for i, q in enumerate(order) if q in dfa.accepting)
        self.count_rows = count_rows
        self.alphabet_size = s
        self.original = order
        for row in count_rows:
            if sum(row.values()) != s:
                raise AssertionError("chain row is not stochastic")


def _weighted_sum(terms, divisor=1):
    """Σ weight·value / divisor over (int weight, value) terms, each value a
    (numerator, positive denominator) pair, as a reduced such pair.

    The numerator accumulates over the lcm of the denominators seen so far;
    a term whose denominator already divides it adds without rescaling, and
    the result is reduced once, by one gcd.  ``divisor`` must be positive.
    """
    num, den = 0, 1
    for w, (n, d) in terms:
        if d != den:
            m = d // gcd(den, d)
            if m != 1:
                num *= m
                den *= m
        num += w * n * (den // d)
    g = gcd(num, den * divisor)
    return num // g, den * divisor // g


def solve_exact(rows, rhs):
    """Solve the square integer system rows·x = rhs exactly.

    Each row is a mapping {column: int}, whose zero entries are dropped, and
    each right-hand side an int.  Rows are reduced by sparse elimination:
    each pivot is taken in a row of fewest nonzeros, at its column of fewest
    active rows, and each updated row is divided by the gcd of its entries.
    Back-substitution runs on integer numerator/denominator pairs with one
    gcd per unknown, and returns the solution as such pairs, reduced with
    positive denominators.  Raises ArithmeticError on a singular system and
    BudgetExceededError past ``_SOLVE_WORK_LIMIT`` entry updates.
    """
    n = len(rows)
    if len(rhs) != n:
        raise ValueError("need one right-hand side per row")
    mat = []
    for row in rows:
        for j in row:
            if not 0 <= j < n:
                raise ValueError("column %r outside a %d-unknown system" % (j, n))
        mat.append({j: v for j, v in row.items() if v})
    b = list(rhs)
    # col_rows[j]: the active rows holding column j; buckets[k]: the active
    # rows of k nonzeros.  An empty column never gains an entry, so it
    # leaves an empty row by the last pivot, and bucket 0 shows it.
    col_rows = [set() for _ in range(n)]
    buckets = [set() for _ in range(n + 1)]
    for i, entries in enumerate(mat):
        for j in entries:
            col_rows[j].add(i)
        buckets[len(entries)].add(i)
    pivots = []
    work = 0
    for _ in range(n):
        if buckets[0]:
            raise ArithmeticError("singular linear system")
        k = 1
        while not buckets[k]:
            k += 1
        r = buckets[k].pop()
        pivot_row = mat[r]
        c = min(pivot_row, key=lambda j: len(col_rows[j]))
        pivot = pivot_row[c]
        pb = b[r]
        for j in pivot_row:
            col_rows[j].discard(r)
        for i in col_rows[c]:
            entries = mat[i]
            old_len = len(entries)
            factor = entries.pop(c)
            g = gcd(pivot, factor)
            mul, factor = pivot // g, factor // g
            if mul != 1:
                for j in entries:
                    entries[j] *= mul
            for j, v in pivot_row.items():
                if j == c:
                    continue
                w = entries.get(j, 0) - factor * v
                if w:
                    if j not in entries:
                        col_rows[j].add(i)
                    entries[j] = w
                elif j in entries:
                    del entries[j]
                    col_rows[j].discard(i)
            bi = mul * b[i] - factor * pb
            g = gcd(bi, *entries.values())
            if g > 1:
                for j in entries:
                    entries[j] //= g
                bi //= g
            b[i] = bi
            if len(entries) != old_len:
                buckets[old_len].discard(i)
                buckets[len(entries)].add(i)
            work += len(entries) + len(pivot_row)
        col_rows[c] = set()
        if work > _SOLVE_WORK_LIMIT:
            raise BudgetExceededError(
                "exact solve of a %d-unknown system exceeds the work bound %d"
                % (n, _SOLVE_WORK_LIMIT)
            )
        pivots.append((c, pivot_row, pb))
    # x_c = (pb − Σ_j v_j·x_j) / pivot, each x_j held as a reduced pair
    # xn[j]/xd[j] with xd[j] > 0; the numerator accumulates over the lcm of
    # the denominators met in the row.
    xn = [0] * n
    xd = [1] * n
    for c, pivot_row, pb in reversed(pivots):
        num, den = pb, 1
        for j, v in pivot_row.items():
            if j != c:
                d = xd[j]
                if d != den:
                    m = d // gcd(den, d)
                    if m != 1:
                        num *= m
                        den *= m
                num -= v * xn[j] * (den // d)
        den *= pivot_row[c]
        g = gcd(num, den)
        if den < 0:
            g = -g
        xn[c] = num // g
        xd[c] = den // g
    return list(zip(xn, xd))


def _class_period_and_levels(comp, count_rows):
    """Period (gcd of BFS-level differences over internal edges) and BFS
    levels from the class's first state, read from ``explore`` over the
    internal edges: a successor index that is new is one past the last."""
    comp_set = set(comp)
    order, rows = explore([comp[0]], lambda q: [t for t in count_rows[q] if t in comp_set])
    level, g = [0], 0
    for i, row in enumerate(rows):
        for j in row:
            if j == len(level):
                level.append(level[i] + 1)
            g = gcd(g, level[i] + 1 - level[j])
    return g or 1, dict(zip(order, level))


def _stationary(comp, count_rows, s):
    """Exact stationary law of a closed class as integer weights {q: w_q ≥ 0}
    and their total > 0, π_q = w_q / total.

    The balance equations Σ_p c_pq·π_p = s·π_q have rank n − 1 on an
    irreducible class, so the first state's equation is replaced by the pin
    π_root = 1; the weights are the solution times its denominators' lcm.
    """
    comp = list(comp)
    comp_set = set(comp)
    col = {q: 0 for q in comp}
    for p in comp:
        for t, c in count_rows[p].items():
            if t in comp_set:
                col[t] += c
    if all(v == s for v in col.values()):
        # doubly stochastic on an irreducible class: uniform is stationary
        return dict.fromkeys(comp, 1), len(comp)
    pos = {q: i for i, q in enumerate(comp)}
    rows = [{i: -s} for i in range(len(comp))]
    for p in comp:
        for q, c in count_rows[p].items():
            row = rows[pos[q]]
            row[pos[p]] = row.get(pos[p], 0) + c
    rows[0] = {0: 1}
    rhs = [1] + [0] * (len(comp) - 1)
    solution = solve_exact(rows, rhs)
    scale = lcm(*(d for _, d in solution))
    weights = {q: n * (scale // d) for q, (n, d) in zip(comp, solution)}
    total = sum(weights.values())
    if total <= 0 or any(w < 0 for w in weights.values()):
        raise ArithmeticError("stationary solve produced an invalid distribution")
    return weights, total


def _limit_vector(step_rows, scale, fixed, sccs):
    """Harmonic extension of ``fixed`` (values as reduced pairs): scale·f_p =
    Σ_q c_pq·f_q on non-fixed states, where ``step_rows[p]`` maps q to the
    integer count c_pq and each such row sums to ``scale``.  The row graph
    is the letter-count chain for the Cesàro values, or its (state, phase)
    product for the residue limits; scale is the alphabet size in both.

    ``fixed`` must cover every recurrent state of the row graph; the
    transient ones among ``sccs``, the row graph's strongly-connected
    components in reverse topological order, are solved exactly in that
    order, so each system only involves one component.  A one-state
    component is the common case (every state of a trie): its value
    Σ_{q≠p} c_pq·f_q / (scale − c_pp) is built by ``_weighted_sum`` with a
    single reduction.  A larger component whose edges out all reach one
    value takes that value, which solves every row since each sums to
    scale; any other goes to ``solve_exact``, each row's right-hand side,
    the mass flowing out of it, built the same way.
    """
    f = dict(fixed)
    for comp in sccs:
        if comp[0] in f:
            continue
        if len(comp) == 1:
            p = comp[0]
            row = step_rows[p]
            f[p] = _weighted_sum(
                ((c, f[q]) for q, c in row.items() if q != p), scale - row.get(p, 0)
            )
            continue
        pos = {q: i for i, q in enumerate(comp)}
        boundary = {f[q] for p in comp for q in step_rows[p] if q not in pos}
        if len(boundary) == 1:
            f.update(dict.fromkeys(comp, boundary.pop()))
            continue
        rows = []
        rhs = []
        for p in comp:
            row = {pos[p]: scale}
            outside = []
            for q, c in step_rows[p].items():
                if q in pos:
                    row[pos[q]] = row.get(pos[q], 0) - c
                else:
                    outside.append((c, f[q]))
            num, den = _weighted_sum(outside)
            rows.append({j: v * den for j, v in row.items()})
            rhs.append(num)
        f.update(zip(comp, solve_exact(rows, rhs)))
    return f


def _analyse(dfa):
    """The uniform chain of a DFA, its recurrent classes as (states,
    stationary weights, their total) triples in chain numbering, and the
    per-state Cesàro limit of acceptance probability as reduced pairs: one
    strongly-connected decomposition and one transient solve."""
    chain = UniformChain(dfa)
    rows = chain.count_rows
    sccs = strongly_connected_components(rows)
    classes = []
    fixed = {}
    for comp in sccs:
        comp_set = set(comp)
        if all(t in comp_set for q in comp for t in rows[q]):
            weights, total = _stationary(comp, rows, chain.alphabet_size)
            classes.append((comp, weights, total))
            value = _weighted_sum((weights[q], (1, total)) for q in comp if q in chain.accepting)
            fixed.update(dict.fromkeys(comp, value))
    cesaro = _limit_vector(rows, chain.alphabet_size, fixed, sccs)
    return chain, classes, cesaro


def density(dfa):
    """Exact Cesàro density of the language of a total DFA."""
    _, _, cesaro = _analyse(dfa)
    return Fraction(*cesaro[0])


def natural_density(dfa):
    """Density report with per-residue accumulation points.

    The modulus c is the least common multiple of the periods of the
    reachable recurrent classes; the natural density exists if and only if
    the c residue limits coincide.  They are one more harmonic extension on
    the one-step chain, over its (state, phase) product: node (q, j) holds
    the limit of acceptance along lengths ≡ j (mod c) from q, a letter takes
    it to (t, j − 1 mod c), and a recurrent q is fixed at the accepting
    mass of the phase its class reaches after j letters.
    """
    chain, classes, f_cesaro = _analyse(dfa)
    dens = f_cesaro[chain.initial]

    phases = {}
    periods = []
    for comp, weights, total in classes:
        period, level = _class_period_and_levels(comp, chain.count_rows)
        periods.append(period)
        accepting_by_phase = [[] for _ in range(period)]
        for q in comp:
            if q in chain.accepting:
                accepting_by_phase[level[q] % period].append((period * weights[q], (1, total)))
        masses = [_weighted_sum(terms) for terms in accepting_by_phase]
        for q in comp:
            phases[q] = masses, level[q]
    c = lcm(*periods)

    if c == 1:
        # one phase: the residue limit is the Cesàro value
        limits = [dens]
    else:
        if c > STATE_BUDGET:
            raise BudgetExceededError(
                "residue limits with modulus %d exceed the %d-state budget" % (c, STATE_BUDGET)
            )

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
        sccs = strongly_connected_components(rows)
        f = _limit_vector(step_rows, chain.alphabet_size, fixed, sccs)
        limits = [f[j] for j in range(c)]

    if _weighted_sum((1, v) for v in limits) != _weighted_sum([(c, dens)]):
        raise ArithmeticError("residue limits inconsistent with Cesàro density")
    natural = limits[0] if all(v == limits[0] for v in limits) else None
    return DensityReport(
        density=Fraction(*dens),
        natural_density=None if natural is None else Fraction(*natural),
        modulus=c,
        accumulation_points=tuple(Fraction(*v) for v in limits),
    )


def is_null(dfa):
    """Does the language have density zero?"""
    return density(dfa) == 0


def is_dense(dfa):
    """Does every word occur as a factor of some member?"""
    return has_forbidden_word(dfa) is None
