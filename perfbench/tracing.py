"""Outside-in tracing for the benchmark's traced run.

The program has no stage recorder of its own yet, so the traced run wraps
the public functions of each module from outside.  A wrapper opens a span
on entry and closes it on exit; a span's self time is its duration minus
the time covered by the spans it caused.  Calls are single-threaded and
nested, so the child spans of a span are disjoint and their durations add.

Finished spans are kept in memory and written out when the run ends, except
for the membership-oracle span, which runs millions of times per pass and is
kept only as per-name totals (its time still counts against its parent).
"""

import functools
import inspect
import sys
import time

from jobs import CRITERIA


class Tracer:
    """Span recorder with per-name totals and named counters."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.reset()

    def reset(self):
        self.stack = []  # open spans: [span id, name, start, child time]
        self.stats = {}  # name -> [calls, total time, self time]
        self.counts = {}
        self.spans = []  # (span id, parent id, job, name, start, end, self time)
        self.job = None
        self.broken = set()  # spans whose counter could not be computed
        self._ids = 0

    def enter(self, name):
        self._ids += 1
        self.stack.append([self._ids, name, self.clock(), 0])

    def exit(self, keep=True):
        sid, name, start, child = self.stack.pop()
        end = self.clock()
        duration = end - start
        if self.stack:
            self.stack[-1][3] += duration
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0, 0]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - child
        if keep:
            parent = self.stack[-1][0] if self.stack else 0
            self.spans.append((sid, parent, self.job, name, start, end, duration - child))

    def add(self, counter, value):
        self.counts[counter] = self.counts.get(counter, 0) + value

    def peak(self, counter, value):
        self.counts[counter] = max(self.counts.get(counter, 0), value)

    def calls(self, name):
        return self.stats.get(name, (0, 0, 0))[0]

    def seconds(self, name, own=True):
        """Self time (or, with ``own=False``, total time) of a span name."""
        return self.stats.get(name, (0, 0, 0))[2 if own else 1] / 1e9


def traced(tracer, name, fn, count=None, keep=True):
    """``fn`` inside a span; ``count(tracer, arguments, result)`` then
    updates counters from the bound arguments and the result."""
    enter, leave = tracer.enter, tracer.exit
    signature = inspect.signature(fn) if count is not None else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            leave(keep)
        if count is not None:
            try:
                count(tracer, signature.bind(*args, **kwargs).arguments, result)
            except (AttributeError, KeyError, TypeError):
                # the program changed this function's shape: report, go on
                tracer.broken.add(name)
        return result

    return wrapper


# -- counters computed from arguments and results ------------------------------

def _solve_dims(tracer, args, result):
    n = len(args["rows"])
    tracer.add("density.solve_exact.dense_ops", n ** 3)
    tracer.peak("density.solve_exact.max_dim", n)


def _chain_states(tracer, args, result):
    tracer.add("density.UniformChain.states", args["self"].n)


def _minimized_in(tracer, args, result):
    tracer.add("automata.minimized.states_in", args["self"].n_states)


def _determinized_out(tracer, args, result):
    tracer.add("automata.determinize.states_out", result.n_states)


def _words_up_to(size, max_length):
    return sum(size ** n for n in range(max_length + 1))


def _census_words(tracer, args, result):
    size = len(args["oracle"].alphabet)
    tracer.add("core.census_by_enumeration.words", _words_up_to(size, args["max_length"]))


def _containment_words(tracer, args, result):
    """Words examined: all of them, or up to the (shortlex-least)
    counterexample."""
    alphabet, max_length = args["dfa"].alphabet, args["max_length"]
    size = len(alphabet)
    if result is None:
        words = _words_up_to(size, max_length)
    else:
        rank = 0
        for ch in result:
            rank = rank * size + alphabet.symbols.index(ch)
        words = _words_up_to(size, len(result) - 1) + rank + 1
    tracer.add("approximations.verify_containment.words", words)


def _monoid_elements(tracer, args, result):
    tracer.add("monoid.transition_monoid.elements", len(result[0]))


# span name, module, attribute (Class.method for methods), counter, keep spans
LAYERS = (
    ("cli.main", "regdensity.cli", "main", None, True),
    ("cli.load_dfa", "regdensity.cli", "load_dfa", None, True),
    ("core.census_by_enumeration", "regdensity.core", "census_by_enumeration", _census_words, True),
    ("core.ratio_and_cesaro", "regdensity.core", "ratio_and_cesaro", None, True),
    ("languages.oracle", "regdensity.languages", "LanguageOracle.__call__", None, False),
    ("automata.count_words", "regdensity.automata", "Dfa.count_words", None, True),
    ("automata.minimized", "regdensity.automata", "Dfa.minimized", _minimized_in, True),
    ("automata.determinize", "regdensity.automata", "Nfa.determinize", _determinized_out, True),
    ("automata.product", "regdensity.automata", "Dfa._product", None, True),
    ("automata.has_forbidden_word", "regdensity.automata", "has_forbidden_word", None, True),
    ("automata.strongly_connected_components", "regdensity.automata",
     "strongly_connected_components", None, True),
    ("density.density", "regdensity.density", "density", None, True),
    ("density.natural_density", "regdensity.density", "natural_density", None, True),
    ("density.UniformChain", "regdensity.density", "UniformChain.__init__", _chain_states, True),
    ("density.solve_exact", "regdensity.density", "solve_exact", _solve_dims, True),
    ("monoid.transition_monoid", "regdensity.monoid", "transition_monoid", _monoid_elements, True),
    ("monoid.green_classes", "regdensity.monoid", "green_classes", None, True),
    ("monoid.nonprimitive_witness", "regdensity.monoid", "nonprimitive_witness", None, True),
    ("approximations.verify_containment", "regdensity.approximations", "verify_containment",
     _containment_words, True),
    ("approximations.gap_report", "regdensity.approximations", "gap_report", None, True),
    ("approximations.nonpalindrome_window_dfa", "regdensity.approximations",
     "nonpalindrome_window_dfa", None, True),
    ("approximations.goldstine_inner_dfa", "regdensity.approximations",
     "goldstine_inner_dfa", None, True),
    ("approximations.suffix_inner_dfa", "regdensity.approximations", "suffix_inner_dfa", None, True),
    ("approximations.suffix_outer_dfa", "regdensity.approximations", "suffix_outer_dfa", None, True),
    ("approximations.majority_escape_witness", "regdensity.approximations",
     "majority_escape_witness", None, True),
)

CALL_COUNTED = (
    "density.solve_exact", "density.density", "density.natural_density",
    "automata.strongly_connected_components", "automata.count_words",
    "languages.oracle", "monoid.transition_monoid",
)


class Installed:
    """Wrappers in place; ``restore`` puts every original back."""

    def __init__(self):
        self.undo = []  # (owner, attribute, original)
        self.missing = []

    def patch(self, owner, attribute, value):
        self.undo.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def restore(self):
        for owner, attribute, original in reversed(self.undo):
            setattr(owner, attribute, original)
        self.undo.clear()


def install(tracer):
    """Wrap every layer in LAYERS and every check criterion.

    A module-level function is replaced in every module of the package that
    imported it, so ``regdensity.cli.natural_density`` is wrapped along with
    ``regdensity.density.natural_density``.  A name that no longer exists is
    recorded in ``missing`` and skipped.
    """
    installed = Installed()
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "regdensity" or name.startswith("regdensity."))]
    for span, module_name, attribute, count, keep in LAYERS:
        module = sys.modules.get(module_name)
        owner_name, _, name = attribute.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = vars(owner).get(name) if owner is not None else None
        if not callable(original):
            installed.missing.append(span)
            continue
        wrapper = traced(tracer, span, original, count, keep)
        if owner_name:
            installed.patch(owner, name, wrapper)
            continue
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    installed.patch(m, key, wrapper)
    checks = sys.modules.get("regdensity.checks")
    criteria = getattr(checks, "CRITERIA", ())
    wrapped = []
    for entry in criteria:
        if isinstance(entry, tuple) and len(entry) == 3 and callable(entry[2]):
            name, tags, function = entry
            entry = (name, tags, traced(tracer, "checks." + name, function))
        wrapped.append(entry)
    if criteria:
        installed.patch(checks, "CRITERIA", tuple(wrapped))
    present = {e[0] for e in criteria if isinstance(e, tuple) and e}
    installed.missing += ["checks." + n for n in CRITERIA if n not in present]
    return installed


def layer_metrics(tracer, monoid_job_ids):
    """Per-layer metrics of one traced pass.

    ``monoid_job_ids`` are the CLI ``monoid`` jobs expected to succeed; the
    transition monoids they build per job is the waste ratio of rebuilding
    the monoid in ``nonprimitive_witness``.
    """
    metrics = {}
    for span, _, _, _, _ in LAYERS:
        metrics[span + ".self_s"] = (tracer.seconds(span), "s")
    for span in CALL_COUNTED:
        metrics[span + ".calls"] = (tracer.calls(span), "count")
    for counter, unit in (
        ("density.solve_exact.dense_ops", "ops"),
        ("density.solve_exact.max_dim", "rows"),
        ("density.UniformChain.states", "states"),
        ("automata.minimized.states_in", "states"),
        ("automata.determinize.states_out", "states"),
        ("core.census_by_enumeration.words", "words"),
        ("approximations.verify_containment.words", "words"),
        ("monoid.transition_monoid.elements", "elements"),
    ):
        metrics[counter] = (tracer.counts.get(counter, 0), unit)
    monoids = sum(1 for span in tracer.spans
                  if span[3] == "monoid.transition_monoid" and span[2] in monoid_job_ids)
    ratio = monoids / len(monoid_job_ids) if monoid_job_ids else 0.0
    metrics["monoid.transition_monoid.calls_per_job"] = (ratio, "calls/job")
    for name in CRITERIA:
        metrics["checks.%s.s" % name] = (tracer.seconds("checks." + name, own=False), "s")
    metrics["bench.unattributed_s"] = (tracer.seconds("bench.job"), "s")
    return metrics
