"""Exact densities of regular languages via the uniform-letter Markov chain.

Reading uniformly random letters turns a total DFA into a finite Markov
chain on its states.  The density of the language is the Cesàro limit of
the probability of sitting in an accepting state; it is computed exactly by
decomposing the chain into bottom strongly-connected classes, solving for
their stationary distributions, and propagating absorption values through
the transient part.  The chain is kept as integer letter counts (each row
sums to the alphabet size s), and every linear system is solved exactly by
sparse integer elimination in Markowitz pivot order, with Fractions only in
the back-substitution.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .automata import has_forbidden_word, strongly_connected_components
from .core import BudgetExceededError

_POWER_STATE_LIMIT = 512
_PHASE_WORK_LIMIT = 50_000_000
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
        order = [dfa.initial]
        index = {dfa.initial: 0}
        for q in order:
            for t in dfa.delta[q]:
                if t not in index:
                    index[t] = len(order)
                    order.append(t)
        s = len(dfa.alphabet)
        count_rows = []
        for q in order:
            row = {}
            for t in dfa.delta[q]:
                j = index[t]
                row[j] = row.get(j, 0) + 1
            count_rows.append(row)
        self.n = len(order)
        self.initial = 0
        self.accepting = frozenset(index[q] for q in dfa.accepting if q in index)
        self.count_rows = count_rows
        self.alphabet_size = s
        self.original = order
        for row in count_rows:
            if sum(row.values()) != s:
                raise AssertionError("chain row is not stochastic")

    def successors(self):
        return [list(row.keys()) for row in self.count_rows]


@dataclass(frozen=True)
class RecurrentClass:
    """A bottom strongly-connected class with its period and stationary law."""

    states: tuple[int, ...]
    period: int
    stationary: dict

    def __post_init__(self):
        if sum(self.stationary.values()) != 1:
            raise AssertionError("stationary distribution does not sum to 1")


def _integer_rows(rows, rhs):
    """Each equation as ({column: int}, int), scaled by the lcm of its
    denominators; zero entries are dropped."""
    n = len(rows)
    out = []
    for row, b in zip(rows, rhs):
        items = row.items() if hasattr(row, "items") else enumerate(row)
        entries = {}
        for j, v in items:
            if not isinstance(v, int):
                v = Fraction(v)
            if v:
                if not 0 <= j < n:
                    raise ValueError("column %r outside a %d-unknown system" % (j, n))
                entries[j] = v
        if not isinstance(b, int):
            b = Fraction(b)
        scale = lcm(b.denominator, *(v.denominator for v in entries.values()))
        out.append(
            (
                {j: v.numerator * (scale // v.denominator) for j, v in entries.items()},
                b.numerator * (scale // b.denominator),
            )
        )
    return out


def _move(buckets, key, old, new):
    """Move ``key`` from count bucket ``old`` to count bucket ``new``."""
    if old != new:
        buckets[old].discard(key)
        buckets.setdefault(new, set()).add(key)


def _markowitz_pivot(mat, col_rows, row_buckets, col_buckets):
    """The active entry (i, j) of least Markowitz cost
    (row nonzeros − 1)·(column nonzeros − 1).

    An entry alone in its row or column costs 0 and is taken at once.
    Otherwise rows and columns are examined in increasing nonzero count k;
    once every row and column of count k has been seen, each unseen entry
    costs at least k², so the search stops as soon as the best cost is that
    low.
    """
    for j in col_buckets.get(1, ()):
        return next(iter(col_rows[j])), j
    for i in row_buckets.get(1, ()):
        return i, next(iter(mat[i]))
    best = None
    k = 2
    while True:
        for j in col_buckets.get(k, ()):
            for i in col_rows[j]:
                cost = (len(mat[i]) - 1) * (k - 1)
                if best is None or cost < best[0]:
                    best = (cost, i, j)
        for i in row_buckets.get(k, ()):
            for j in mat[i]:
                cost = (k - 1) * (len(col_rows[j]) - 1)
                if best is None or cost < best[0]:
                    best = (cost, i, j)
        if best is not None and best[0] <= k * k:
            return best[1], best[2]
        k += 1


def solve_exact(rows, rhs):
    """Solve the square rational system rows·x = rhs exactly.

    Each row is a sequence of n coefficients or a mapping {column: value}
    holding its nonzero entries.  Rows are scaled once to integers and
    reduced by sparse elimination: the pivot minimises the Markowitz cost
    (row nonzeros − 1)·(column nonzeros − 1), and each updated row is
    divided by the gcd of its entries.  Back-substitution runs in
    Fractions.  Raises ArithmeticError on a singular system and
    BudgetExceededError past ``_SOLVE_WORK_LIMIT`` entry updates.
    """
    n = len(rows)
    if len(rhs) != n:
        raise ValueError("need one right-hand side per row")
    system = _integer_rows(rows, rhs)
    mat = [entries for entries, _ in system]
    b = [value for _, value in system]
    col_rows = [set() for _ in range(n)]
    for i, entries in enumerate(mat):
        for j in entries:
            col_rows[j].add(i)
    row_buckets = {}
    for i, entries in enumerate(mat):
        row_buckets.setdefault(len(entries), set()).add(i)
    col_buckets = {}
    for j, members in enumerate(col_rows):
        col_buckets.setdefault(len(members), set()).add(j)
    pivots = []
    work = 0
    for _ in range(n):
        if row_buckets.get(0) or col_buckets.get(0):
            raise ArithmeticError("singular linear system")
        r, c = _markowitz_pivot(mat, col_rows, row_buckets, col_buckets)
        pivot_row = mat[r]
        pivot = pivot_row[c]
        pb = b[r]
        row_buckets[len(pivot_row)].discard(r)
        col_buckets[len(col_rows[c])].discard(c)
        for j in pivot_row:
            if j != c:
                members = col_rows[j]
                _move(col_buckets, j, len(members), len(members) - 1)
                members.discard(r)
        col_rows[c].discard(r)
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
                        members = col_rows[j]
                        _move(col_buckets, j, len(members), len(members) + 1)
                        members.add(i)
                    entries[j] = w
                elif j in entries:
                    del entries[j]
                    members = col_rows[j]
                    _move(col_buckets, j, len(members), len(members) - 1)
                    members.discard(i)
            bi = mul * b[i] - factor * pb
            g = gcd(bi, *entries.values())
            if g > 1:
                for j in entries:
                    entries[j] //= g
                bi //= g
            b[i] = bi
            _move(row_buckets, i, old_len, len(entries))
            work += len(entries) + len(pivot_row)
        col_rows[c] = set()
        if work > _SOLVE_WORK_LIMIT:
            raise BudgetExceededError(
                "exact solve of a %d-unknown system exceeds the work bound %d"
                % (n, _SOLVE_WORK_LIMIT)
            )
        pivots.append((c, pivot_row, pb))
    x = [None] * n
    for c, pivot_row, pb in reversed(pivots):
        acc = Fraction(pb)
        for j, v in pivot_row.items():
            if j != c:
                acc -= v * x[j]
        x[c] = acc / pivot_row[c]
    return x


def _recurrent_components(chain):
    """SCCs with no outgoing edges, in the chain's state numbering."""
    succ = chain.successors()
    sccs = strongly_connected_components(succ)
    recurrent = []
    for comp in sccs:
        comp_set = set(comp)
        if all(t in comp_set for q in comp for t in succ[q]):
            recurrent.append(comp)
    return sccs, recurrent


def _class_period_and_levels(comp, count_rows):
    """Period (gcd of BFS-level differences over internal edges) and levels."""
    comp_set = set(comp)
    root = comp[0]
    level = {root: 0}
    queue = [root]
    while queue:
        nxt = []
        for q in queue:
            for t in count_rows[q]:
                if t in comp_set and t not in level:
                    level[t] = level[q] + 1
                    nxt.append(t)
        queue = nxt
    g = 0
    for q in comp:
        for t in count_rows[q]:
            if t in comp_set:
                g = gcd(g, level[q] + 1 - level[t])
    return (abs(g) if g else 1), level


def _stationary(comp, count_rows, s):
    """Exact stationary distribution of the chain restricted to a closed class.

    The balance equations Σ_p c_pq·π_p = s·π_q have rank n − 1 on an
    irreducible class, so the first state's equation is replaced by the pin
    π_root = 1; the sparse solution is then normalised to sum 1.
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
        share = Fraction(1, len(comp))
        return {q: share for q in comp}
    pos = {q: i for i, q in enumerate(comp)}
    rows = [{i: -s} for i in range(len(comp))]
    for p in comp:
        for q, c in count_rows[p].items():
            row = rows[pos[q]]
            row[pos[p]] = row.get(pos[p], 0) + c
    rows[0] = {0: 1}
    rhs = [1] + [0] * (len(comp) - 1)
    solution = solve_exact(rows, rhs)
    total = sum(solution)
    pi = {q: v / total for q, v in zip(comp, solution)}
    if any(v < 0 for v in pi.values()) or sum(pi.values()) != 1:
        raise ArithmeticError("stationary solve produced an invalid distribution")
    return pi


def _limit_vector(step_rows, scale, fixed):
    """Harmonic extension of ``fixed``: scale·f_p = Σ_q c_pq·f_q on non-fixed
    states, where ``step_rows[p]`` maps q to the integer count c_pq and each
    such row sums to ``scale``.

    ``fixed`` must cover every recurrent state of the row graph; transient
    strongly-connected components are solved exactly in reverse topological
    order, so each system only involves one component.
    """
    succ = [list(row.keys()) for row in step_rows]
    f = dict(fixed)
    for comp in strongly_connected_components(succ):
        if comp[0] in f:
            continue
        if len(comp) == 1:
            p = comp[0]
            acc = sum((c * f[q] for q, c in step_rows[p].items() if q != p), Fraction(0))
            f[p] = acc / (scale - step_rows[p].get(p, 0))
            continue
        pos = {q: i for i, q in enumerate(comp)}
        rows = []
        rhs = []
        for p in comp:
            row = {pos[p]: scale}
            acc = Fraction(0)
            for q, c in step_rows[p].items():
                if q in pos:
                    row[pos[q]] = row.get(pos[q], 0) - c
                else:
                    acc += c * f[q]
            rows.append(row)
            rhs.append(acc)
        solution = solve_exact(rows, rhs)
        for q, v in zip(comp, solution):
            f[q] = v
    return f


def _cesaro_value_vector(chain):
    """Per-state Cesàro limit of acceptance probability."""
    _, recurrent = _recurrent_components(chain)
    fixed = {}
    for comp in recurrent:
        pi = _stationary(comp, chain.count_rows, chain.alphabet_size)
        value = sum((pi[q] for q in comp if q in chain.accepting), Fraction(0))
        for q in comp:
            fixed[q] = value
    return _limit_vector(chain.count_rows, chain.alphabet_size, fixed)


def density(dfa):
    """Exact Cesàro density of the language of a total DFA."""
    chain = UniformChain(dfa)
    return _cesaro_value_vector(chain)[chain.initial]


def recurrent_classes(dfa):
    """Bottom strongly-connected classes of the uniform chain, with their
    periods and stationary distributions, in the DFA's own state numbering."""
    chain = UniformChain(dfa)
    _, recurrent = _recurrent_components(chain)
    classes = []
    for comp in recurrent:
        pi = _stationary(comp, chain.count_rows, chain.alphabet_size)
        period, _ = _class_period_and_levels(comp, chain.count_rows)
        classes.append(
            RecurrentClass(
                states=tuple(sorted(chain.original[q] for q in comp)),
                period=period,
                stationary={chain.original[q]: v for q, v in pi.items()},
            )
        )
    classes.sort(key=lambda c: c.states)
    return classes


def _step_counts(count_rows, vec):
    """One step of the count chain: the words of vec, each extended by a letter."""
    nxt = {}
    for q, w in vec.items():
        for t, c in count_rows[q].items():
            nxt[t] = nxt.get(t, 0) + w * c
    return nxt


def _transient_power_rows(chain, transients, c):
    """Rows of the c-step count chain (each summing to s^c), computed only
    for transient states."""
    if chain.n > _POWER_STATE_LIMIT:
        raise BudgetExceededError(
            "c-step chain on %d states exceeds the supported size" % chain.n
        )
    rows = []
    for p in transients:
        vec = {p: 1}
        for _ in range(c):
            vec = _step_counts(chain.count_rows, vec)
        rows.append(vec)
    return rows


def natural_density(dfa):
    """Density report with per-residue accumulation points.

    The modulus c is the least common multiple of the periods of the
    reachable recurrent classes; the natural density exists if and only if
    the c residue limits coincide.
    """
    chain = UniformChain(dfa)
    _, recurrent = _recurrent_components(chain)
    s = chain.alphabet_size

    cesaro_fixed = {}
    phase_fixed = {}
    periods = []
    for comp in recurrent:
        pi = _stationary(comp, chain.count_rows, s)
        period, level = _class_period_and_levels(comp, chain.count_rows)
        periods.append(period)
        value = sum((pi[q] for q in comp if q in chain.accepting), Fraction(0))
        mass_by_phase = [Fraction(0)] * period
        for q in comp:
            if q in chain.accepting:
                mass_by_phase[level[q] % period] += pi[q]
        for q in comp:
            cesaro_fixed[q] = value
            phase_fixed[q] = period * mass_by_phase[level[q] % period]
    c = lcm(*periods)

    f_cesaro = _limit_vector(chain.count_rows, s, cesaro_fixed)
    dens = f_cesaro[chain.initial]

    recurrent_states = set(phase_fixed)
    transients = [q for q in range(chain.n) if q not in recurrent_states]
    if c > 1 and c * chain.n * (len(transients) + 1) > _PHASE_WORK_LIMIT:
        raise BudgetExceededError(
            "residue-limit computation with modulus %d on %d states exceeds "
            "the supported work bound" % (c, chain.n)
        )
    if c == 1:
        f_phase = _limit_vector(chain.count_rows, s, phase_fixed)
    else:
        power = dict(zip(transients, _transient_power_rows(chain, transients, c)))
        step_rows = [power.get(q, {}) for q in range(chain.n)]
        f_phase = _limit_vector(step_rows, s ** c, phase_fixed)

    vec = {chain.initial: 1}
    limits = []
    for k in range(c):
        mass = sum((w * f_phase[q] for q, w in vec.items()), Fraction(0))
        limits.append(mass / s ** k)
        vec = _step_counts(chain.count_rows, vec)

    if sum(limits, Fraction(0)) != c * dens:
        raise ArithmeticError("residue limits inconsistent with Cesàro density")
    natural = limits[0] if all(v == limits[0] for v in limits) else None
    return DensityReport(
        density=dens,
        natural_density=natural,
        modulus=c,
        accumulation_points=tuple(limits),
    )


def is_null(dfa):
    """Does the language have density zero?"""
    return density(dfa) == 0


def is_dense(dfa):
    """Does every word occur as a factor of some member?"""
    return has_forbidden_word(dfa) is None
