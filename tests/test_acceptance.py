"""End-to-end acceptance checks.

Each test prints exactly one PASS/FAIL line (run pytest with -s or read the
captured output) and enforces its own wall-clock bound, so this module
doubles as a quick health report for the whole toolkit.
"""

import random
import time

from filterkit import (
    Nfa,
    NoAcceptingState,
    donut_world,
    fig3_input,
    fig3_minimizer,
    from_dfa_union,
    from_nfa_universality,
    minimize_det,
    minimize_nondet,
    output_simulates,
    prime_family,
    prime_family_minimizer,
    verify_reduction,
)
from filterkit.nfa import is_universal

from oracles import (
    brute_force_min_size, random_filter, random_string, simulates_oracle, subset_dfa)


def _verdict(label, body):
    start = time.monotonic()
    try:
        body()
    except BaseException:
        print(f"{label}: FAIL ({time.monotonic() - start:.1f}s)")
        raise
    print(f"{label}: PASS ({time.monotonic() - start:.1f}s)")


def test_criterion_1_paired_example_filters():
    def body():
        start = time.monotonic()
        big = fig3_input()
        small = fig3_minimizer()
        assert big.size() == 10 and big.is_deterministic()
        assert small.size() == 9 and not small.is_deterministic()
        assert output_simulates(small, big).holds
        assert output_simulates(big, small).holds
        det, _ = small.determinize()
        assert det.size() == 10
        for f in (big, small):
            result = minimize_det(f)
            assert result.proven_optimal
            assert result.size() == 10
        assert time.monotonic() - start < 10.0

    _verdict("criterion 1 (paired example filters)", body)


def test_criterion_2_prime_family():
    def body():
        start = time.monotonic()
        assert [prime_family(r).size() for r in (1, 2, 3, 4)] == [5, 11, 21, 35]
        expected_minimizer = [5, 10, 36, 218]
        assert [
            prime_family_minimizer(r).size() for r in (1, 2, 3, 4)
        ] == expected_minimizer
        for r in (1, 2, 3, 4):
            assert output_simulates(prime_family_minimizer(r), prime_family(r)).holds
        for r, z in zip((1, 2, 3), expected_minimizer):
            result = minimize_det(prime_family(r))
            assert result.proven_optimal
            assert result.size() == z
        assert time.monotonic() - start < 60.0

    _verdict("criterion 2 (prime family)", body)


def _random_nfa(rng, max_states=4):
    n = rng.randint(1, max_states)
    states = [f"n{i}" for i in range(n)]
    alphabet = tuple("ab"[: rng.randint(1, 2)])
    transitions = {}
    for s in states:
        for y in alphabet:
            targets = frozenset(t for t in states if rng.random() < 0.5)
            if targets:
                transitions[(s, y)] = targets
    initial = [s for s in states if rng.random() < 0.4] or [states[0]]
    accepting = {s for s in states if rng.random() < 0.6}
    return Nfa(states, initial, alphabet, transitions, accepting)


def _random_dfa(rng, max_states=4):
    n = rng.randint(1, max_states)
    states = [f"d{i}" for i in range(n)]
    alphabet = tuple("ab"[: rng.randint(1, 2)])
    transitions = {}
    for s in states:
        for y in alphabet:
            if rng.random() < 0.85:
                transitions[(s, y)] = frozenset({rng.choice(states)})
    accepting = {s for s in states if rng.random() < 0.45}
    return Nfa(states, [states[0]], alphabet, transitions, accepting)


def test_criterion_3_nfa_universality_reduction():
    def body():
        start = time.monotonic()
        rng = random.Random(30303)
        universal_seen = 0
        for _ in range(50):
            a = _random_nfa(rng)
            instance = from_nfa_universality(a)
            assert verify_reduction(instance), a
            if is_universal(subset_dfa(a))[0]:
                universal_seen += 1
        assert universal_seen > 0  # both answers are exercised
        assert universal_seen < 50
        assert time.monotonic() - start < 60.0

    _verdict("criterion 3 (NFA universality reduction, 50 instances)", body)


def test_criterion_4_dfa_union_reduction():
    def body():
        start = time.monotonic()
        rng = random.Random(40404)
        produced = 0
        attempts = 0
        while produced < 50:
            attempts += 1
            assert attempts < 500
            dfas = [_random_dfa(rng) for _ in range(rng.randint(1, 3))]
            try:
                instance = from_dfa_union(dfas)
            except NoAcceptingState:
                continue
            assert verify_reduction(instance), dfas
            produced += 1
        assert time.monotonic() - start < 60.0

    _verdict("criterion 4 (DFA union reduction, 50 instances)", body)


def test_criterion_5_donut_world():
    def body():
        start = time.monotonic()
        donut = donut_world()
        assert donut.size() == 6 and not donut.is_deterministic()
        det, _ = donut.determinize()
        assert det.size() == 7
        result = minimize_det(donut)
        assert result.proven_optimal
        assert result.size() == 4
        assert output_simulates(result.minimizer, donut).holds
        assert time.monotonic() - start < 10.0

    _verdict("criterion 5 (donut world)", body)


def test_criterion_6a_simulation_is_reflexive():
    def body():
        rng = random.Random(61)
        for _ in range(100):
            f = random_filter(rng)
            assert output_simulates(f, f).holds, f

    _verdict("criterion 6a (reflexivity, 100 filters)", body)


def test_criterion_6b_determinize_preserves_outputs():
    def body():
        rng = random.Random(62)
        checks = 0
        while checks < 1000:
            f = random_filter(rng)
            det, _ = f.determinize()
            for _ in range(10):
                s = random_string(rng, f.observations)
                assert f.output(s) == det.output(s), (f, s)
                checks += 1

    _verdict("criterion 6b (determinization, 1000 strings)", body)


def test_criterion_6c_checker_matches_oracle():
    def body():
        rng = random.Random(63)
        for _ in range(100):
            ref = random_filter(rng, max_states=5)
            cand = random_filter(rng, max_states=5)
            expected, _ = simulates_oracle(cand, ref)
            assert output_simulates(cand, ref).holds == expected, (cand, ref)

    _verdict("criterion 6c (oracle agreement, 100 pairs)", body)


def test_criterion_6d_minimization_matches_brute_force():
    def body():
        rng = random.Random(64)
        for _ in range(20):
            f = random_filter(rng, max_states=3, max_symbols=2, max_colors=2)
            result = minimize_nondet(f)
            assert result.proven_optimal, f
            assert result.size() == brute_force_min_size(f), f

    _verdict("criterion 6d (exact minimization vs brute force, 20 inputs)", body)


def test_criterion_6e_minimizer_growth_outpaces_input():
    def body():
        ratios = []
        for r in (2, 3, 4, 5):
            n = prime_family(r).size()
            z = prime_family_minimizer(r).size()
            ratios.append((z / n) ** 3)
        assert all(a < b for a, b in zip(ratios, ratios[1:])), ratios

    _verdict("criterion 6e (cubed size ratio strictly increases)", body)
