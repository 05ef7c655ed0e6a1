"""Exact densities of regular languages via the uniform-letter Markov chain.

Reading uniformly random letters turns a total DFA into a finite Markov
chain on its states.  The density of the language is the Cesàro limit of
the probability of sitting in an accepting state.  One analysis per chain
computes it exactly: a single strongly-connected decomposition gives the
bottom (recurrent) classes and orders the harmonic extension of their
values over the transient states, which is skipped when every class has
the same value, since the extension of a constant is that constant.  The
stationary law of a class that mixes accepting and rejecting states is one
more harmonic extension, from one pinned state over the class's in-edge
graph.  A class whose states all accept or all reject carries no law: its
mass is 1 or 0 under any law, and each of the p phases of a p-periodic
class has mass 1/p, since the chain moves all of one phase's mass to the
next.
``density`` reads the Cesàro value from that analysis; ``natural_density``
adds the class periods and, only when their lcm c exceeds 1 and the initial
state is transient, the per-residue limits: the factors Φ_d of x^c − 1
split them into one harmonic extension on the transient states per d > 1
that divides a period, φ(d) unknowns a state, and Ramanujan sums put the
blocks back together.  So one routine, ``_limit_vector``, serves three row
graphs: the chain, the in-edge graphs and the blocks.  The chain is kept as
integer letter counts (each row sums to the alphabet size s), and every
linear system is solved exactly by sparse integer elimination, each pivot
taken in a row of fewest nonzeros.  Arithmetic stays on Python ints: a
class's stationary law is integer weights over their total, every other
value a reduced (numerator, positive denominator) pair, and each weighted
sum (a transient state's or block node's value, a class's accepting mass)
is reduced once, by ``_weighted_sum``; only reported values become
Fractions.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import add

from .automata import STATE_BUDGET, explore, has_forbidden_word, strongly_connected_components
from .core import BudgetExceededError, moebius_terms

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
    """Letter-count chain on the reachable states of a DFA, numbered in ``explore`` order.

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

    The balance equations s·π_q = Σ_p c_pq·π_p are ``_limit_vector``'s rows
    on the class's in-edge graph, row q mapping each predecessor p to c_pq.
    Their rank is n − 1, so the state of most distinct predecessors, lowest
    index on ties, is pinned at 1 with its row emptied; the weights are the
    extension times its denominators' lcm, the law's primitive integer
    vector whichever state is pinned.
    """
    pos = {q: i for i, q in enumerate(comp)}
    in_rows = [{} for _ in comp]
    for i, p in enumerate(comp):
        for q, c in count_rows[p].items():
            in_rows[pos[q]][i] = c
    if all(sum(row.values()) == s for row in in_rows):
        # doubly stochastic on an irreducible class: uniform is stationary
        return dict.fromkeys(comp, 1), len(comp)
    pin = max(range(len(comp)), key=lambda i: (len(in_rows[i]), -comp[i]))
    in_rows[pin] = {}
    law = _limit_vector(in_rows, s, {pin: (1, 1)}, strongly_connected_components(in_rows))
    scale = lcm(*(d for _, d in law.values()))
    weights = {q: law[i][0] * (scale // law[i][1]) for i, q in enumerate(comp)}
    total = sum(weights.values())
    if total <= 0 or any(w < 0 for w in weights.values()):
        raise ArithmeticError("stationary solve produced an invalid distribution")
    return weights, total


def _limit_vector(step_rows, scale, fixed, sccs):
    """Harmonic extension of ``fixed`` (values as reduced pairs): scale·f_p =
    Σ_q c_pq·f_q on non-fixed states, where ``step_rows[p]`` maps q to the
    integer weight c_pq.  The row graph is the letter-count chain for the
    Cesàro values, whose rows sum to scale, a residue block's, whose weights
    may be negative, or a closed class's in-edge graph for its stationary
    law, whose rows sum to scale only if it is doubly stochastic; scale is
    the alphabet size in all three.

    ``fixed`` must cover every recurrent state of the row graph; the
    transient ones among ``sccs``, the row graph's strongly-connected
    components in reverse topological order, are solved exactly in that
    order, so each system only involves one component.  A one-state
    component is the common case (every state of a trie): its value
    Σ_{q≠p} c_pq·f_q / (scale − c_pp) is built by ``_weighted_sum`` with a
    single reduction.  A larger component whose edges out reach only 0, or
    only one value while each of its rows sums to scale, takes that value,
    which solves every row; any other goes to ``solve_exact``, each row's
    right-hand side, the mass flowing out of it, built the same way.  The
    systems are nonsingular: scale exceeds the spectral radius of the
    counts among non-fixed states, times a root of unity in a block.
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
        if boundary <= {(0, 1)} or (
            len(boundary) == 1 and all(sum(step_rows[p].values()) == scale for p in comp)
        ):
            f.update(dict.fromkeys(comp, boundary.pop() if boundary else (0, 1)))
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
            num, den = _weighted_sum(outside) if outside else (0, 1)
            rows.append(row if den == 1 else {j: v * den for j, v in row.items()})
            rhs.append(num)
        f.update(zip(comp, solve_exact(rows, rhs)))
    return f


def _analyse(dfa):
    """The uniform chain of a DFA, its recurrent classes as (states,
    stationary weights, total) triples in chain numbering, and the per-state
    Cesàro limit of acceptance as reduced pairs: one decomposition of the
    chain, one decomposition and one extension per non-uniform law, and one
    transient solve of the chain when the classes' values differ.  When
    they are all one value, every state takes it with no solve: absorption
    probabilities sum to 1, so that constant solves every row, and the
    extension is unique.  A class whose states all accept or all reject
    carries no law and is (states, None, None): its mass is 1 or 0 under any
    law, and each of its p phases holds 1/p of it, as the chain carries each
    phase onto the next."""
    chain = UniformChain(dfa)
    rows = chain.count_rows
    s = chain.alphabet_size
    accepting = chain.accepting
    sccs = strongly_connected_components(rows)
    classes = []
    fixed = {}
    values = set()
    for comp in sccs:
        if len(comp) == 1:
            closed = rows[comp[0]].get(comp[0]) == s
        else:
            comp_set = set(comp)
            closed = all(t in comp_set for q in comp for t in rows[q])
        if not closed:
            continue
        verdicts = {q in accepting for q in comp}
        if len(verdicts) == 1:
            classes.append((comp, None, None))
            value = int(verdicts.pop()), 1
        else:
            weights, total = _stationary(comp, rows, s)
            classes.append((comp, weights, total))
            value = _weighted_sum((weights[q], (1, total)) for q in comp if q in accepting)
        fixed.update(dict.fromkeys(comp, value))
        values.add(value)
    if len(values) == 1:
        return chain, classes, dict.fromkeys(range(chain.n), values.pop())
    return chain, classes, _limit_vector(rows, s, fixed, sccs)


def density(dfa):
    """Exact Cesàro density of the language of a total DFA."""
    _, _, cesaro = _analyse(dfa)
    return Fraction(*cesaro[0])


def _cyclotomic(terms):
    """Coefficients of the cyclotomic polynomial Φ_d, d > 1, lowest first,
    from ``moebius_terms(d)``: the power series Π_e (1 − x^e)^μ(d/e) cut at
    its degree φ(d) = Σ_e μ(d/e)·e.  Φ_d is monic with constant term 1."""
    phi = sum(m * e for e, m in terms)
    a = [1] + [0] * phi
    for e, m in terms:
        if m == 1:
            for i in range(phi, e - 1, -1):
                a[i] -= a[i - e]
        else:
            for i in range(e, phi + 1):
                a[i] += a[i - e]
    return a


def _block_value(d, terms, chain, transient, where, phased):
    """The initial state's value in residue block d, as φ(d) reduced pairs,
    lowest power first.

    Block d holds each transient state's generating function of residue
    limits, X_q = Σ_{j<c} L(q, j)·x^j / c, mod Φ_d = Σ_k a_k·x^k.  A letter
    shifts the phase: s·X_q = x·Σ_t c_qt·X_t, that is s·x⁻¹·X_q = Σ_t
    c_qt·X_t, where x⁻¹ ≡ −Σ_{k≥1} a_k·x^(k−1) since a_0 = 1.  So node
    (q, k) has the row s·X_q[k] = s·a_k·X_q[0] + Σ_t c_qt·X_t[k − 1] for
    k ≥ 1, and s·X_q[0] = −Σ_t c_qt·X_t[φ − 1].  A recurrent t of level ℓ
    in a class of period p, with accepting weight A[i] in phase i and
    weight total T, is fixed at Σ_{j<p} A[(ℓ + j) mod p]·x^j / T, which is
    0 mod Φ_d unless d divides p: the class's weights folded mod x^d − 1,
    rotated by ℓ and reduced mod Φ_d, once per (class, ℓ mod d), each
    reduction charged to the solve's work bound.
    """
    a = _cyclotomic(terms)
    phi = len(a) - 1
    tail = [(j, v) for j, v in enumerate(a[:phi]) if v]
    s = chain.alphabet_size
    pos = {q: i * phi for i, q in enumerate(transient)}
    step_rows = []
    for q in transient:
        step_rows.append({})
        step_rows += [{pos[q]: s * a[k]} if a[k] else {} for k in range(1, phi)]
    fixed, slots, folded, work = {}, {}, {}, 0
    for q in transient:
        rows = step_rows[pos[q] : pos[q] + phi]
        for t, cnt in chain.count_rows[q].items():
            if t in pos:
                base = pos[t]
            else:
                index, level = where[t]
                period, accepting, total = phased[index]
                if period % d:
                    continue
                key = index, level % d
                if key not in slots:
                    work += (d - phi) * len(tail)
                    if work > _SOLVE_WORK_LIMIT:
                        raise BudgetExceededError(
                            "residue block %d exceeds the work bound %d" % (d, _SOLVE_WORK_LIMIT)
                        )
                    if index not in folded:
                        folded[index] = [sum(accepting[r::d]) for r in range(d)]
                    poly = folded[index][key[1] :] + folded[index][: key[1]]
                    for i in range(d - 1, phi - 1, -1):
                        if poly[i]:
                            for j, v in tail:
                                poly[i - phi + j] -= poly[i] * v
                    slots[key] = slot = len(step_rows)
                    for k in range(phi):
                        g = gcd(poly[k], total)
                        fixed[slot + k] = poly[k] // g, total // g
                    step_rows += [{} for _ in range(phi)]
                base = slots[key]
            row = rows[0]
            row[base + phi - 1] = row.get(base + phi - 1, 0) - cnt
            for k in range(1, phi):
                row = rows[k]
                row[base + k - 1] = row.get(base + k - 1, 0) + cnt
    f = _limit_vector(step_rows, s, fixed, strongly_connected_components(step_rows))
    start = pos[chain.initial]
    for node in range(start, start + phi):
        if _weighted_sum([(s, f[node])]) != _weighted_sum(
            (w, f[j]) for j, w in step_rows[node].items()
        ):
            raise ArithmeticError("residue limits inconsistent with block %d's rows" % d)
    return [f[node] for node in range(start, start + phi)]


def natural_density(dfa):
    """Density report with per-residue accumulation points.

    The modulus c is the least common multiple of the periods of the
    reachable recurrent classes; the natural density exists if and only if
    the c residue limits coincide.  When the initial state is recurrent they
    are its class's accepting masses per phase, read from its level.
    Otherwise x^c − 1 = Π_{d|c} Φ_d splits the generating function of the
    limits into one block per d: block 1 is the Cesàro value, each d > 1
    that divides some class's period is one exact solve of φ(d) unknowns
    per transient state (``_block_value``), and the other blocks are 0.
    Block d adds a d-periodic g_d to the limits, L_j = Cesàro + Σ_d g_d[j
    mod d]: from the initial state's value y in block d, g_d[i] = Σ_e
    μ(d/e)·e·Σ_{k ≡ i mod e} y_k over the divisors e of d.  Its weights are
    the Ramanujan sums, the coefficients of d times the idempotent that is 1
    mod Φ_d and 0 mod every other Φ_e.  So Σ_{j<c} g_d[j mod d]·x^j is
    c·y mod Φ_d and 0 mod every other factor.  Every block and the c
    limits cost only their own size, never a system over all of x^c − 1.
    The blocks' unknowns share the 200,000-state budget, as does c.
    """
    chain, classes, f_cesaro = _analyse(dfa)
    dens = f_cesaro[chain.initial]

    where = {}
    phased = []
    for index, (comp, weights, total) in enumerate(classes):
        period, level = _class_period_and_levels(comp, chain.count_rows)
        accepting = [0] * period
        for q in comp:
            where[q] = index, level[q]
            if weights is not None and q in chain.accepting:
                accepting[level[q] % period] += weights[q]
        if weights is None:
            # one verdict: each phase has 1/period of the class's mass
            accepting, total = [int(comp[0] in chain.accepting)] * period, period
        phased.append((period, accepting, total))
    c = lcm(*(period for period, _, _ in phased))
    if c > STATE_BUDGET:
        raise BudgetExceededError(
            "residue limits with modulus %d exceed the %d-state budget" % (c, STATE_BUDGET)
        )

    if chain.initial in where:
        # every reachable state is recurrent, so there is one class, of period c
        ((_, accepting, total),) = phased
        level = where[chain.initial][1]
        limits = [_weighted_sum([(c * accepting[(level + j) % c], (1, total))]) for j in range(c)]
    else:
        transient = [q for q in range(chain.n) if q not in where]
        periods = {period for period, _, _ in phased}
        blocks = sorted({d for p in periods for d in range(2, p + 1) if p % d == 0})
        terms = [moebius_terms(d) for d in blocks]
        unknowns = len(transient) * sum(m * e for block in terms for e, m in block)
        if unknowns > STATE_BUDGET:
            raise BudgetExceededError(
                "residue blocks of %d unknowns exceed the %d-state budget"
                % (unknowns, STATE_BUDGET)
            )
        parts = []
        den = dens[1]
        for d, block in zip(blocks, terms):
            y = _block_value(d, block, chain, transient, where, phased)
            scale = lcm(*(k for _, k in y))
            ints = [n * (scale // k) for n, k in y]
            part = [0] * d
            for e, m in block:
                fold = [m * e * sum(ints[r::e]) for r in range(e)]
                part = list(map(add, part, fold * (d // e)))
            parts.append((part, scale))
            den = lcm(den, scale)
        nums = [dens[0] * (den // dens[1])] * c
        for part, scale in parts:
            nums = list(map(add, nums, [v * (den // scale) for v in part] * (c // len(part))))
        limits = [(n // g, den // g) for n, g in zip(nums, map(gcd, nums, repeat(den)))]

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
