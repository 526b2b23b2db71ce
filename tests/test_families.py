import pytest

from filterkit import (
    FilterError,
    donut_world,
    emit_filter,
    fig3_input,
    fig3_minimizer,
    output_simulates,
    prime_family,
    prime_family_minimizer,
)

from oracles import named_prime_family_minimizer


def primes_up_to_row(r):
    found = []
    n = 2
    while len(found) < r:
        if all(n % p for p in found):
            found.append(n)
        n += 1
    return found


def test_prime_family_sizes_follow_formula():
    for r in range(1, 6):
        ps = primes_up_to_row(r)
        f = prime_family(r)
        assert f.size() == 1 + 2 * sum(ps)
        m = prime_family_minimizer(r)
        product = 1
        for p in ps:
            product *= p
        assert m.size() == 1 + product + ps[-1]


def test_prime_family_shape():
    f = prime_family(2)
    assert set(f.observations) == {"a", "x1", "x2"}
    assert f.colors == ("black", "white", "o1", "o2", "o3")
    assert not f.is_deterministic()  # start fans out under a
    assert f.output(()) == frozenset({"black"})
    # after two steps round the cycles, x1 reveals position mod 2
    assert f.output(("a", "a", "x1")) == frozenset({"o2"})
    assert f.output(("a", "a", "a", "x1")) == frozenset({"o1"})
    assert f.output(("a", "a", "a", "x2")) == frozenset({"o3"})
    # a child state is a dead end
    assert f.output(("a", "x1", "a")) is None
    # third row of the three-row family: position (3-1) mod 5 + 1 = 3
    assert prime_family(3).output(("a", "a", "a", "x3")) == frozenset({"o3"})


def test_prime_family_minimizer_is_deterministic():
    for r in (1, 2, 3):
        m = prime_family_minimizer(r)
        assert m.is_deterministic()
        assert m.trim().size() == m.size()


def test_prime_family_minimizer_simulates():
    for r in (1, 2, 3):
        assert output_simulates(prime_family_minimizer(r), prime_family(r)).holds


def test_minimizer_tables_match_the_named_build():
    for r in range(1, 7):
        built, named = prime_family_minimizer(r), named_prime_family_minimizer(r)
        assert built == named and hash(built) == hash(named)
        assert emit_filter(built) == emit_filter(named)
    assert built.size() == 30044


def test_prime_family_rejects_out_of_range_rows():
    for bad in (0, -3, "2", 2.0, True, False):
        with pytest.raises(FilterError, match="rows must be a positive integer"):
            prime_family(bad)
        with pytest.raises(FilterError, match="rows must be a positive integer"):
            prime_family_minimizer(bad)
    # the primorial passes a million around r = 8
    with pytest.raises(FilterError):
        prime_family_minimizer(8)
    with pytest.raises(FilterError):
        prime_family(8)


def test_fig3_input_shape():
    f = fig3_input()
    assert f.size() == 10
    assert f.is_deterministic()
    assert f.trim().size() == 10
    assert f.output(("1", "a")) == frozenset({"pink"})
    assert f.output(("6", "b")) == frozenset({"green"})
    assert f.output(("3", "d")) == frozenset({"green"})
    assert f.output(("4", "g")) == frozenset({"pink"})
    assert f.output(("1",)) == frozenset({"white"})
    # q1 has no negative observations and q6 no positive ones
    assert f.output(("6", "a")) is None
    assert f.output(("1", "f")) is None


def test_fig3_minimizer_shape():
    f = fig3_minimizer()
    assert f.size() == 9
    assert not f.is_deterministic()
    # reading 1 leaves both p1 and p2 possible
    assert f.trace(("1",)).reached == frozenset({"p1", "p2"})
    assert f.output(("1", "a")) == frozenset({"pink"})
    assert f.output(("2", "a")) == frozenset({"green"})
    assert f.output(("5", "d")) == frozenset({"pink"})


def test_fig3_languages_match():
    big, small = fig3_input(), fig3_minimizer()
    for first in "1234567":
        for second in "abcdefgh":
            s = (first, second)
            assert big.in_language(s) == small.in_language(s), s
            if big.in_language(s):
                assert big.output(s) == small.output(s), s


def test_donut_shape():
    d = donut_world()
    assert d.size() == 6
    assert not d.is_deterministic()
    assert set(d.observations) == {"a", "b", "c"}
    assert d.output(()) == frozenset({"red"})
    # one beam-a crossing from 00 must move one agent to region 1
    assert d.trace(("a",)).reached == frozenset({"01"})
    # a second crossing either reunites them in 0 or in 1
    assert d.trace(("a", "a")).reached == frozenset({"00", "11"})
    assert d.output(("a", "a")) == frozenset({"red"})
    # from 01 only the agent in region 1 can cross beam b
    assert d.trace(("a", "b")).reached == frozenset({"02"})
    assert d.output(("a", "b")) == frozenset({"cyan"})
    # beam b touches neither agent while both sit in region 0
    assert d.output(("b",)) is None


def test_donut_moves_cross_exactly_one_beam():
    d = donut_world()
    beams = {"a": {0, 1}, "b": {1, 2}, "c": {0, 2}}
    for (src, dst), syms in d.transitions.items():
        occupied_before = {int(src[0]), int(src[1])}
        occupied_after = {int(dst[0]), int(dst[1])}
        for beam in syms:
            changed = occupied_before ^ occupied_after
            assert changed, (src, dst)
            assert changed <= beams[beam], (src, dst, beam)
