"""The four workloads: seeded job lists with their expected answers.

A workload is a pair of functions.  ``draw(seed)`` picks the random inputs
as plain specs, with the benchmark's own code and no package call.
``build(fk, drawn, workdir)`` takes the imported ``filterkit`` package, the
drawn specs and a scratch directory, turns the specs into the package's
inputs, and returns a list of ``Job`` objects plus a mapping from each job
group to the reason the group is in the workload.  Only ``build`` is the
timed set-up; the expected answers are computed afterwards, once, by
``Job.expect`` with the oracle, and belong to no metric.

Budgets are always ``SearchBudget(candidate_cap=...)``, never a time cap, so
every answer and every counter repeats exactly from run to run.
"""

import contextlib
import io
import json
import random

from corpus import (
    add_color_mutant,
    banded_filter,
    drop_edge_mutant,
    make_filter,
    make_nfa,
    nfa_document,
    random_dfa,
    random_filter,
    random_nfa,
    simulable_in,
    subset_count,
)
from oracle import (
    DONUT_DET_MIN,
    FIG3_DET_MIN,
    is_deterministic,
    nfa_universal,
    prime_det_size,
    prime_minimizer_size,
    prime_size,
    reachable_count,
    union_answers,
)

# Corpus sizes and caps.  Changing any of them changes the benchmark.
SIM_RANDOM = 80          # random filters in simcheck, four jobs each
# Band of corpus.self_triples for the random filters of simcheck and cli.
# The time of a filter's four simulation checks tracks it closely.
SIM_TRIPLES = (40, 60)
DET_MIN_RANDOM = 288     # random 5-8-state NFAs minimized deterministically
DET_ONLY_RANDOM = 96     # random 10-14-state NFAs determinized only
DET_CAP = 500            # candidate cap for minimize_det
# At most this many subsets in a random minimize_det input.  Above it the det
# search reaches levels where enumerating colorings skips up to 7**(level-1)
# tuples before it spends one candidate: a 0.3 s job in about one of fifty,
# which makes the figures depend on the seed.
DET_MIN_SUBSETS = 8
SEARCH_RANDOM = 96       # random 4-6-state filters minimized nondeterministically
# Smallest simulator size of each random filter minimized nondeterministically,
# in turn, where 3 means 3 or more: half end proven at 1 state, one in eight
# proven at 2, the rest stop at the cap.  Left to chance, the number stopped
# at the cap, the slowest jobs, ranged from 36 to 44 over five seeds.
SMALLEST_MIX = (1, 1, 1, 1, 2, 3, 3, 3)
# Candidate cap for minimize_nondet on random filters whose smallest simulator
# has at most 2 states: above the 12 + 6,912 candidates of levels 1 and 2, so
# each of them ends proven.
NONDET_CAP = 7_000
# Candidate caps of the jobs that stop at their cap inside level 2: the random
# filters that need 3 states or more, and donut / fig3.  Short caps keep every
# job under about 40 ms: on a shared core the fastest of many short
# executions is a far steadier time than the fastest of a few long ones.
CAPPED_CAP = 1_500
FAMILY_NONDET_CAP = 800
REDUCTION_NFAS = 48      # NFA-universality instances (3 YES to 1 NO)
REDUCTION_DFAS = 32      # DFA-union instances (3 YES to 1 NO)
CLI_RANDOM = 12          # seeded random filters driven through the CLI
# Triple band of the CLI's random filters: each check-sim on them stays under
# the fixed prime r=4 commands, which job_ms.p90 falls on.
CLI_TRIPLES = (15, 30)
# SMALLEST_MIX for the CLI's twelve small filters: two stop at CLI_CAPPED_CAP.
# Every seeded CLI job then stays under the block of six fixed commands on
# prime r=4 and its minimizer, of 13-20 ms, that ranks just below the six
# prime r=4/5 commands of 90 ms and more.  job_ms.p90, between the 10th and
# 11th slowest of 105 jobs, falls inside that block.
CLI_SMALLEST_MIX = (1, 1, 2, 1, 1, 3)
CLI_CAPPED_CAP = 500
CLI_NFAS = 6             # seeded NFA documents reduced through the CLI
CLI_DFA_FAMILIES = 4     # seeded DFA families reduced through the CLI


class Job:
    """One unit of work in the closed loop.

    run() is the only timed call.  read(result) gives (answer, decided,
    output_states): answer is a comparable value that must repeat on every
    pass; decided is False when a budget or cap stopped the job; and
    output_states is the minimizer size for minimization jobs, else None.
    expect(oracle) computes the expected value once; check(oracle, answer,
    result, expected) returns an error message or None, on the first pass.
    inputs holds what the job runs on, so that tests can compare corpora.
    """

    __slots__ = ("id", "group", "run", "read", "expect", "check",
                 "in_states", "inputs", "expected")

    def __init__(self, id, group, run, read, expect, check, in_states=None, inputs=()):
        self.id = id
        self.group = group
        self.run = run
        self.read = read
        self.expect = expect
        self.check = check
        self.in_states = in_states
        self.inputs = inputs
        self.expected = None


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


def _equal(oracle, answer, result, expected):
    if answer != expected:
        return f"answer {answer!r}, expected {expected!r}"
    return None


# -- simcheck ------------------------------------------------------------


def _sim_job(fk, id, group, candidate, reference):
    def read(verdict):
        if verdict.holds:
            return ("holds",), True, None
        return ("fails", verdict.kind, len(verdict.witness)), True, None

    def check(oracle, answer, verdict, expected):
        error = _equal(oracle, answer, verdict, expected)
        if error is None and not verdict.holds and not oracle.witness_is_real(
                candidate, reference, verdict.kind, verdict.witness, verdict.color):
            error = f"witness {verdict.witness!r} does not show {verdict.kind}"
        return error

    return Job(id, group, lambda: fk.output_simulates(candidate, reference), read,
               lambda oracle: oracle.simulation(candidate, reference), check,
               inputs=(candidate, reference))


def draw_simcheck(seed):
    rng = _rng("simcheck", seed)
    drawn = []
    for i in range(SIM_RANDOM):
        n = 6 + i % 11
        spec = banded_filter(rng, n, 2, 3, branches=2, p_edge=0.6,
                             subsets=(1.2 * n, 3 * n), triples=SIM_TRIPLES)
        drawn.append((spec, drop_edge_mutant(rng, spec), add_color_mutant(rng, spec)))
    return drawn


def build_simcheck(fk, drawn, workdir):
    jobs = []
    for r in range(1, 5):
        p, m = fk.prime_family(r), fk.prime_family_minimizer(r)
        jobs.append(_sim_job(fk, f"prime{r}:min-vs-input", "families", m, p))
        jobs.append(_sim_job(fk, f"prime{r}:input-vs-min", "families", p, m))
    fi, fm = fk.fig3_input(), fk.fig3_minimizer()
    jobs.append(_sim_job(fk, "fig3:min-vs-input", "families", fm, fi))
    jobs.append(_sim_job(fk, "fig3:input-vs-min", "families", fi, fm))
    donut = fk.donut_world()
    donut_det, _ = donut.determinize()
    jobs.append(_sim_job(fk, "donut:det-vs-input", "families", donut_det, donut))
    jobs.append(_sim_job(fk, "donut:input-vs-det", "families", donut, donut_det))
    for i, (spec, drop_spec, more_spec) in enumerate(drawn):
        f = make_filter(fk, spec)
        det, _ = f.determinize()
        drop = make_filter(fk, drop_spec)
        more = make_filter(fk, more_spec)
        jobs.append(_sim_job(fk, f"r{i}:det-vs-input", "random-det", det, f))
        jobs.append(_sim_job(fk, f"r{i}:self", "random-self", f, f))
        jobs.append(_sim_job(fk, f"r{i}:dropped-edge", "random-drop", drop, f))
        jobs.append(_sim_job(fk, f"r{i}:added-color", "random-color", more, f))
    why = {
        "families": "paper families both ways: prime r=1..4 against its minimizer, "
                    "fig3 pair, donut against its determinization; all hold",
        "random-det": "random 6-16-state filter against its determinization: holds "
                      "after full exploration",
        "random-self": "random filter against itself: holds, widest product",
        "random-drop": "one edge symbol dropped: language gap, early exit with a witness",
        "random-color": "one color added to one state: output violation with a witness",
    }
    return jobs, why


# -- detmin --------------------------------------------------------------


def _det_min_job(fk, id, group, f, in_states, det_states, expected_size):
    budget = fk.SearchBudget(candidate_cap=DET_CAP)

    def read(result):
        text = json.dumps(result.minimizer.to_dict(), sort_keys=True)
        return (result.size(), result.proven_optimal, text), result.proven_optimal, result.size()

    def expect(oracle):
        return expected_size

    def check(oracle, answer, result, expected):
        size, proven, _ = answer
        if expected is not None and (size, proven) != (expected, True):
            return f"size {size} proven {proven}, expected {expected} proven"
        if size > det_states:
            return f"minimizer has {size} states, more than the determinization"
        if not is_deterministic(result.minimizer):
            return "minimizer is not deterministic"
        if not oracle.simulates(result.minimizer, f):
            return "minimizer does not output-simulate its input"
        return None

    return Job(id, group, lambda: fk.minimize_det(f, budget), read, expect, check,
               in_states, (f,))


def _determinize_job(fk, id, group, f, expected_subsets, check_outputs):
    def read(result):
        return len(result[0].states), True, None

    def check(oracle, answer, result, expected):
        if answer != expected:
            return f"{answer} subsets, expected {expected}"
        det = result[0]
        if check_outputs and not (oracle.simulates(det, f) and oracle.simulates(f, det)):
            return "determinization changes the outputs"
        return None

    return Job(id, group, lambda: f.determinize(), read,
               lambda oracle: expected_subsets, check, inputs=(f,))


def draw_detmin(seed):
    """(specs to minimize, specs to determinize), each with its subset count."""
    rng = _rng("detmin", seed)
    minimize, determinize = [], []
    for i in range(DET_MIN_RANDOM):
        n = 5 + i % 4
        spec = banded_filter(rng, n, 2, 3, branches=2, p_edge=0.8,
                             subsets=(n, DET_MIN_SUBSETS), triples=(0, 30))
        minimize.append((spec, subset_count(spec)))
    for i in range(DET_ONLY_RANDOM):
        n = 10 + i % 5
        spec = banded_filter(rng, n, 3, 3, branches=6, p_edge=0.7,
                             subsets=(6 * n, 12 * n))
        determinize.append((spec, subset_count(spec)))
    return minimize, determinize


def build_detmin(fk, drawn, workdir):
    jobs = []
    for r in range(1, 5):
        f = fk.prime_family(r)
        jobs.append(_det_min_job(fk, f"prime{r}", "families", f, prime_size(r),
                                 prime_det_size(r), prime_minimizer_size(r)))
    jobs.append(_det_min_job(fk, "donut", "families", fk.donut_world(), 6, 7,
                             DONUT_DET_MIN))
    jobs.append(_det_min_job(fk, "fig3-input", "families", fk.fig3_input(), 10, 10,
                             FIG3_DET_MIN))
    jobs.append(_det_min_job(fk, "fig3-minimizer", "families", fk.fig3_minimizer(), 9, 10,
                             FIG3_DET_MIN))
    jobs.append(_determinize_job(fk, "prime5:determinize", "prime5-determinize",
                                 fk.prime_family(5), prime_det_size(5), False))
    minimize, determinize = drawn
    for i, (spec, subsets) in enumerate(minimize):
        jobs.append(_det_min_job(fk, f"r{i}:minimize", "random-minimize",
                                 make_filter(fk, spec), len(spec["states"]), subsets, None))
    for i, (spec, subsets) in enumerate(determinize):
        jobs.append(_determinize_job(fk, f"r{i}:determinize", "random-determinize",
                                     make_filter(fk, spec), subsets, True))
    why = {
        "families": "minimize_det on prime r=1..4, donut and both fig3 filters: "
                    "closed-form sizes, compatibility graph dominates prime r=4",
        "prime5-determinize": "subset construction of prime r=5 (2,339 subsets): "
                              "naming and Filter construction at scale",
        "random-minimize": "minimize_det on random 5-8-state NFAs: verified merges "
                           "through _confirm's output_simulates, then a capped det search",
        "random-determinize": "determinize-only on random 10-14-state NFAs with "
                              "6n-12n subsets",
    }
    return jobs, why


# -- search --------------------------------------------------------------


def _nondet_min_job(fk, id, group, f, in_states, cap):
    budget = fk.SearchBudget(candidate_cap=cap)

    def read(result):
        text = json.dumps(result.minimizer.to_dict(), sort_keys=True)
        return (result.size(), result.proven_optimal, text), result.proven_optimal, result.size()

    def check(oracle, answer, result, expected):
        size, proven, _ = answer
        if size > in_states:
            return f"minimizer has {size} states, above the {in_states}-state input"
        if not oracle.simulates(result.minimizer, f):
            return "minimizer does not output-simulate its input"
        return _proven_size_error(oracle, f, size, proven)

    return Job(id, group, lambda: fk.minimize_nondet(f, budget), read,
               lambda oracle: None, check, in_states, (f,))


def _proven_size_error(oracle, f, size, proven):
    """A proven size must be the smallest simulator the oracle finds.

    The minimizer output-simulates its input, so when the oracle tried every
    filter of up to ``tried`` states and found none, any size above ``tried``
    is possible and a proven size up to ``tried + 1`` is exact.  The
    exhaustive search runs only for a proven result: a capped one claims no
    size.
    """
    if not proven:
        return None
    tried, found = oracle.smallest_simulator(f)
    if found is not None and size != found:
        return f"proven size {size}, but a {found}-state simulator exists"
    if found is None and size <= tried:
        return f"proven size {size}, but no filter of up to {tried} states simulates"
    return None


def _decide_job(fk, id, group, source, build, expected_yes):
    budget = fk.SearchBudget(candidate_cap=NONDET_CAP)

    def run():
        return fk.decide_size_k(build().filter, 1, budget)

    def read(decision):
        return decision.outcome, decision.outcome in (fk.YES, fk.NO), None

    return Job(id, group, run, read,
               lambda oracle: fk.YES if expected_yes else fk.NO, _equal, inputs=(source,))


def _verify_job(fk, id, group, instance):
    budget = fk.SearchBudget(candidate_cap=NONDET_CAP)

    def read(agrees):
        return agrees, True, None

    return Job(id, group, lambda: fk.verify_reduction(instance, budget), read,
               lambda oracle: True, _equal, inputs=(instance.filter,))


def _filter_by_smallest(rng, n, smallest):
    """A random filter whose smallest simulator has `smallest` states (3: at
    least 3)."""
    while True:
        spec = random_filter(rng, n, 2, 2, branches=1)
        if simulable_in(spec, 1) != (smallest == 1):
            continue
        if smallest == 1 or simulable_in(spec, 2) == (smallest == 2):
            return spec


def _nfa_by_answer(rng, want_universal, n):
    while True:
        spec = random_nfa(rng, n)
        if nfa_universal(spec) == want_universal:
            return spec


def _dfa_family_by_answer(rng, want_universal, count, n):
    while True:
        family = [random_dfa(rng, n, f"d{j}_") for j in range(count)]
        universal, nonempty = union_answers(family)
        if nonempty and universal == want_universal:
            return family


def draw_search(seed):
    """(filters to minimize, (NFA, universal?) pairs, (DFA family, universal?)
    pairs)."""
    rng = _rng("search", seed)
    filters = [_filter_by_smallest(rng, 4 + i % 3, SMALLEST_MIX[i % len(SMALLEST_MIX)])
               for i in range(SEARCH_RANDOM)]
    # Sizes and answers go by index, like the filters' above, so that every
    # seed has the same number of instances of each size and answer.  Three
    # in four are YES: a YES instance takes about three times as long as a NO
    # one, and with this mix job_ms.p50 falls well inside the YES cluster
    # rather than on the step between the two.
    nfas = [(_nfa_by_answer(rng, i % 4 != 3, 3 + i // 4 % 3), i % 4 != 3)
            for i in range(REDUCTION_NFAS)]
    families = [(_dfa_family_by_answer(rng, i % 4 != 3, 2 + i // 4 % 2, 2 + i // 8 % 2),
                 i % 4 != 3)
                for i in range(REDUCTION_DFAS)]
    return filters, nfas, families


def build_search(fk, drawn, workdir):
    filters, nfa_specs, family_specs = drawn
    jobs = []
    jobs.append(_nondet_min_job(fk, "donut", "families", fk.donut_world(), 6,
                                FAMILY_NONDET_CAP))
    jobs.append(_nondet_min_job(fk, "fig3-input", "families", fk.fig3_input(), 10,
                                FAMILY_NONDET_CAP))
    jobs.append(_nondet_min_job(fk, "fig3-minimizer", "families", fk.fig3_minimizer(), 9,
                                FAMILY_NONDET_CAP))
    for i, spec in enumerate(filters):
        capped = SMALLEST_MIX[i % len(SMALLEST_MIX)] == 3
        jobs.append(_nondet_min_job(fk, f"r{i}:minimize",
                                    "random-capped" if capped else "random-proven",
                                    make_filter(fk, spec), len(spec["states"]),
                                    CAPPED_CAP if capped else NONDET_CAP))
    for i, (spec, want) in enumerate(nfa_specs):
        nfa = make_nfa(fk, spec)
        jobs.append(_decide_job(fk, f"nfa{i}:decide", "nfa-reduction", nfa,
                                lambda nfa=nfa: fk.from_nfa_universality(nfa), want))
        jobs.append(_verify_job(fk, f"nfa{i}:verify", "nfa-reduction",
                                fk.from_nfa_universality(nfa)))
    for i, (dfa_specs, want) in enumerate(family_specs):
        family = [make_nfa(fk, d) for d in dfa_specs]
        jobs.append(_decide_job(fk, f"dfa{i}:decide", "dfa-reduction", family,
                                lambda family=family: fk.from_dfa_union(family), want))
        jobs.append(_verify_job(fk, f"dfa{i}:verify", "dfa-reduction",
                                fk.from_dfa_union(family)))
    why = {
        "families": f"minimize_nondet on donut and fig3 at a {FAMILY_NONDET_CAP}-candidate "
                    "cap: stops at the cap, measures raw candidates/s",
        "random-proven": f"minimize_nondet on random 4-6-state filters with a 1- or 2-state "
                         f"simulator, at a {NONDET_CAP} cap: proven, measures pruning",
        "random-capped": f"minimize_nondet on random 4-6-state filters that need 3 states "
                         f"or more, at a {CAPPED_CAP} cap: stops inside level 2, measures "
                         "raw candidates/s on seeded inputs",
        "nfa-reduction": "NFA-universality instances through decide_size_k(., 1) and "
                         "verify_reduction, three YES to one NO: the short jobs",
        "dfa-reduction": "DFA-union instances through decide_size_k(., 1) and "
                         "verify_reduction, three YES to one NO",
    }
    return jobs, why


# -- cli -----------------------------------------------------------------


def _cli_job(fk, id, group, argv, code, check_stdout, in_states=None):
    """A call of filterkit.cli.main(argv) with stdout and stderr captured.

    code is the expected exit code, a function of the oracle giving it, or
    None when check_stdout derives it from the output itself.
    check_stdout(oracle, stdout, code) returns an error message or None.
    """

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                exit_code = fk.cli.main(argv)
            except SystemExit as exc:
                exit_code = exc.code
        return exit_code, out.getvalue()

    def read(result):
        exit_code, stdout = result
        size = None
        if in_states is not None and "states" in _footer(stdout):
            size = int(_footer(stdout)["states"])
        return result, exit_code in (0, 1), size

    def expect(oracle):
        return code(oracle) if callable(code) else code

    def check(oracle, answer, result, expected):
        exit_code, stdout = result
        if expected is not None and exit_code != expected:
            return f"exit code {exit_code}, expected {expected}"
        return check_stdout(oracle, stdout, exit_code)

    return Job(id, group, run, read, expect, check, in_states, tuple(argv))


def _footer(text):
    out = {}
    for line in text.splitlines():
        if line.startswith("# ") and ": " in line:
            key, value = line[2:].split(": ", 1)
            out[key] = value
    return out


def _document(text):
    """Parse a document as the CLI writes it: JSON plus '#' comment lines."""
    kept = [line for line in text.splitlines() if not line.lstrip().startswith("#")]
    return json.loads("\n".join(kept))


def _states_are(count):
    def check(oracle, stdout, code):
        got = len(_document(stdout)["states"])
        return None if got == count else f"{got} states, expected {count}"
    return check


def _same_text(text):
    def check(oracle, stdout, code):
        return None if stdout == text else "output differs from the input document"
    return check


def _lines_are(lines, stdout):
    want = "".join(line + "\n" for line in lines)
    return None if stdout == want else f"stdout {stdout!r}, expected {want!r}"


def _dot_of(states):
    def check(oracle, stdout, code):
        if not stdout.startswith("digraph filter {") or not stdout.endswith("}\n"):
            return "not a DOT digraph"
        missing = [s for s in states if f'"{s}" [label=' not in stdout]
        return f"states missing from DOT: {missing[:3]}" if missing else None
    return check


def _validate_lines(f):
    def check(oracle, stdout, code):
        trim = reachable_count(f) == len(f.states)
        return _lines_are([
            f"states: {len(f.states)}",
            f"observations: {len(f.observations)}",
            f"colors: {len(f.colors)}",
            f"deterministic: {'yes' if is_deterministic(f) else 'no'}",
            f"trim: {'yes' if trim else 'no'}",
        ], stdout)
    return check


def _trace_code(f, symbols):
    return lambda oracle: 0 if oracle.ref.walk(f, symbols) else 1


def _trace_check(f, symbols):
    def check(oracle, stdout, code):
        reached = oracle.ref.walk(f, symbols)
        if not reached:
            return _lines_are(["crash"], stdout)
        colors = oracle.ref.colors_of(f, reached)
        return _lines_are(["states: " + ",".join(sorted(reached)),
                           "output: " + ",".join(c for c in f.colors if c in colors)],
                          stdout)
    return check


def _sim_code(candidate, reference):
    return lambda oracle: 0 if oracle.simulation(candidate, reference) == ("holds",) else 1


def _sim_stdout(candidate, reference):
    def check(oracle, stdout, code):
        expected = oracle.simulation(candidate, reference)
        lines = stdout.splitlines()
        if expected == ("holds",):
            return None if lines == ["holds"] else f"stdout {stdout!r}, expected holds"
        _, kind, length = expected
        if len(lines) < 2 or lines[0] != f"fails: {kind}":
            return f"stdout {stdout!r}, expected fails: {kind}"
        word = lines[1].removeprefix("witness: ")
        witness = () if word == "ε" else tuple(word.split()) if " " in word else tuple(word)
        color = lines[2].removeprefix("color: ") if len(lines) > 2 else None
        if len(witness) != length:
            return f"witness {word!r} has length {len(witness)}, expected {length}"
        if not oracle.witness_is_real(candidate, reference, kind, witness, color):
            return f"witness {word!r} does not show {kind}"
        return None
    return check


def _minimize_stdout(fk, f, expected_size, deterministic):
    """Check a minimize run.  ``expected_size`` is the closed-form minimum of
    a det run, or None; a nondet run is checked against the oracle's smallest
    simulator."""
    def check(oracle, stdout, code):
        footer = _footer(stdout)
        size = int(footer.get("states", -1))
        proven = footer.get("proven_optimal") == "true"
        if code != (0 if proven else 3):
            return f"exit code {code} with proven_optimal {proven}"
        if expected_size is not None and (size, proven) != (expected_size, True):
            return f"# states: {size} proven {proven}, expected {expected_size} proven"
        m = fk.Filter.from_dict(_document(stdout))
        if len(m.states) != size:
            return "footer size disagrees with the emitted filter"
        if deterministic and not is_deterministic(m):
            return "det minimizer is not deterministic"
        if not oracle.simulates(m, f):
            return "minimizer does not output-simulate its input"
        if not deterministic:
            return _proven_size_error(oracle, f, size, proven)
        return None
    return check


def _reduction_header(kind, states):
    def check(oracle, stdout, code):
        if not stdout.startswith(f"# reduction: {kind}\n"):
            return f"missing '# reduction: {kind}' header"
        return None if states is None else _states_are(states)(oracle, stdout, code)
    return check


def draw_cli(seed):
    """(random filter records, (NFA, universal?) pairs, DFA families)."""
    rng = _rng("cli", seed)
    filters = []
    for i in range(CLI_RANDOM):
        n = 6 + i % 6
        spec = banded_filter(rng, n, 2, 3, branches=2, p_edge=0.6,
                             subsets=(1.2 * n, 3 * n), triples=CLI_TRIPLES)
        drop, more = drop_edge_mutant(rng, spec), add_color_mutant(rng, spec)
        word = " ".join(rng.choice(spec["observations"]) for _ in range(rng.randint(2, 8)))
        small = _filter_by_smallest(rng, 4 + i % 2, CLI_SMALLEST_MIX[i % len(CLI_SMALLEST_MIX)])
        filters.append({"spec": spec, "dropped-edge": drop, "added-color": more,
                        "word": word, "small": small})
    nfas = [_nfa_by_answer(rng, i % 2 == 0, 3 + i // 2 % 3) for i in range(CLI_NFAS)]
    families = [_dfa_family_by_answer(rng, i % 2 == 0, 2 + i // 2 % 2, 2 + i // 2 % 2)
                for i in range(CLI_DFA_FAMILIES)]
    return filters, nfas, families


def build_cli(fk, drawn, workdir):
    filter_specs, nfa_specs, family_specs = drawn
    texts = {}

    def put(name, text):
        texts[name] = text
        (workdir / name).write_text(text, encoding="utf-8")
        return str(workdir / name)

    p4, p4m, p5 = fk.prime_family(4), fk.prime_family_minimizer(4), fk.prime_family(5)
    fi, fm, donut = fk.fig3_input(), fk.fig3_minimizer(), fk.donut_world()
    inputs = {"prime4": p4, "prime4-min": p4m, "prime5": p5,
              "prime5-det": p5.determinize()[0], "fig3-input": fi, "fig3-min": fm,
              "donut": donut, "donut-det": donut.determinize()[0]}
    path = {name: put(f"{name}.json", fk.emit_filter(f)) for name, f in inputs.items()}

    jobs = []

    def add(id, group, argv, code, check, in_states=None):
        jobs.append(_cli_job(fk, id, group, argv, code, check, in_states))

    gens = (("prime4", ["prime-family", "--rows", "4"], prime_size(4)),
            ("prime4-min", ["prime-family", "--rows", "4", "--minimizer"],
             prime_minimizer_size(4)),
            ("prime5", ["prime-family", "--rows", "5"], prime_size(5)),
            ("prime5-min", ["prime-family", "--rows", "5", "--minimizer"],
             prime_minimizer_size(5)),
            ("fig3-input", ["fig3", "input"], 10),
            ("fig3-min", ["fig3", "minimizer"], 9),
            ("donut", ["donut"], 6))
    for name, args, states in gens:
        add(f"gen:{name}", "gen", ["gen", *args], 0, _states_are(states))
    for name in ("prime5-det", "prime4", "prime4-min", "donut", "fig3-min"):
        add(f"validate:{name}", "documents", ["validate", path[name]], 0,
            _validate_lines(inputs[name]))
    for name in ("prime5-det", "prime4-min"):
        add(f"trim:{name}", "documents", ["trim", path[name]], 0,
            _same_text(texts[f"{name}.json"]))
    # prime4-min is deterministic, so its determinization keeps every state.
    for name, states in (("prime5", prime_det_size(5)), ("prime4", prime_det_size(4)),
                         ("prime4-min", prime_minimizer_size(4)), ("donut", 7)):
        add(f"determinize:{name}", "documents", ["determinize", path[name]], 0,
            _states_are(states))
    for name in ("prime4-min", "donut", "fig3-min"):
        add(f"export-dot:{name}", "documents", ["export-dot", path[name]], 0,
            _dot_of(inputs[name].states))
    for word in ("a a a x1", "a a a a a a a x4", "a x2 a"):
        symbols = tuple(word.split())
        add(f"trace:prime4:{word}", "documents", ["trace", word, path["prime4"]],
            _trace_code(p4, symbols), _trace_check(p4, symbols))
    symbols = ("a", "a", "x1")
    add("trace:prime4-min:a a x1", "documents", ["trace", "a a x1", path["prime4-min"]],
        _trace_code(p4m, symbols), _trace_check(p4m, symbols))
    for cand, ref in (("prime4-min", "prime4"), ("prime4", "prime4-min"),
                      ("prime4-min", "prime4-min"),
                      ("fig3-min", "fig3-input"), ("fig3-input", "fig3-min"),
                      ("donut-det", "donut")):
        add(f"check-sim:{cand}:{ref}", "check-sim", ["check-sim", path[cand], path[ref]],
            _sim_code(inputs[cand], inputs[ref]),
            _sim_stdout(inputs[cand], inputs[ref]))
    for name, mode, cap, expected, states in (
            ("prime4", "det", DET_CAP, prime_minimizer_size(4), prime_size(4)),
            ("donut", "det", DET_CAP, DONUT_DET_MIN, 6),
            ("fig3-min", "det", DET_CAP, FIG3_DET_MIN, 9),
            ("donut", "nondet", FAMILY_NONDET_CAP, None, 6)):
        add(f"minimize-{mode}:{name}", "minimize",
            ["minimize", path[name], "--mode", mode, "--candidate-cap", str(cap)], None,
            _minimize_stdout(fk, inputs[name], expected, mode == "det"), states)

    for i, drawn_filter in enumerate(filter_specs):
        f = make_filter(fk, drawn_filter["spec"])
        base = put(f"r{i}.json", fk.emit_filter(f))
        for tag in ("dropped-edge", "added-color"):
            cand = make_filter(fk, drawn_filter[tag])
            cand_path = put(f"r{i}-{tag}.json", fk.emit_filter(cand))
            add(f"check-sim:r{i}:{tag}", "random", ["check-sim", cand_path, base],
                _sim_code(cand, f), _sim_stdout(cand, f))
        word = drawn_filter["word"]
        symbols = tuple(word.split())
        add(f"trace:r{i}", "random", ["trace", word, base], _trace_code(f, symbols),
            _trace_check(f, symbols))
        add(f"validate:r{i}", "random", ["validate", base], 0, _validate_lines(f))
        small = make_filter(fk, drawn_filter["small"])
        small_path = put(f"small{i}.json", fk.emit_filter(small))
        cap = CLI_CAPPED_CAP if CLI_SMALLEST_MIX[i % len(CLI_SMALLEST_MIX)] == 3 else NONDET_CAP
        add(f"minimize-nondet:small{i}", "random",
            ["minimize", small_path, "--mode", "nondet", "--candidate-cap", str(cap)],
            None, _minimize_stdout(fk, small, None, False), len(small.states))
    for i, spec in enumerate(nfa_specs):
        nfa_path = put(f"nfa{i}.json", json.dumps(nfa_document(spec), indent=2) + "\n")
        add(f"reduce:nfa{i}", "reduce", ["reduce", "nfa-universality", nfa_path], 0,
            _reduction_header("nfa-universality", len(spec["states"]) + 3))
    for i, family in enumerate(family_specs):
        paths = [put(f"dfa{i}-{j}.json", json.dumps(nfa_document(d), indent=2) + "\n")
                 for j, d in enumerate(family)]
        add(f"reduce:dfas{i}", "reduce", ["reduce", "dfa-union", *paths], 0,
            _reduction_header("dfa-union-universality", None))
    why = {
        "gen": "gen of prime r=4/5 with and without --minimizer, fig3, donut: "
               "families plus emit_filter",
        "documents": "validate, trim, determinize, export-dot and trace on the family "
                     "documents, up to the 2,339-state determinized prime r=5 file",
        "check-sim": "check-sim on the paper pairs: parse plus output_simulates",
        "minimize": "minimize --mode det/nondet with a candidate cap, exit 0 or 3",
        "random": "seeded random filters and mutants through check-sim, trace, "
                  "validate and minimize --mode nondet",
        "reduce": "reduce nfa-universality and dfa-union on seeded automata documents",
    }
    return jobs, why


WORKLOADS = {
    "simcheck": (draw_simcheck, build_simcheck),
    "detmin": (draw_detmin, build_detmin),
    "search": (draw_search, build_search),
    "cli": (draw_cli, build_cli),
}
