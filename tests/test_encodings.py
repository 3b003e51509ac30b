"""Codec round trips against hand-computed values."""

import random

import pytest

from limitlearn import (
    finite_set_decode,
    finite_set_encode,
    is_prefix,
    pair,
    unpair,
)


# Worked by hand: pair(x, y) = (x+y)(x+y+1)/2 + y.
PAIR_TABLE = {
    (0, 0): 0,
    (1, 0): 1,
    (0, 1): 2,
    (2, 0): 3,
    (1, 1): 4,
    (0, 2): 5,
    (3, 0): 6,
    (2, 1): 7,
    (1, 2): 8,
    (0, 3): 9,
}

# Worked by hand: bit i of n set <=> i in the decoded set.
SET_TABLE = {
    0: frozenset(),
    1: frozenset({0}),
    2: frozenset({1}),
    3: frozenset({0, 1}),
    5: frozenset({0, 2}),
    6: frozenset({1, 2}),
    7: frozenset({0, 1, 2}),
    10: frozenset({1, 3}),
    1024: frozenset({10}),
}


def test_pair_known_values():
    for (x, y), z in PAIR_TABLE.items():
        assert pair(x, y) == z


def test_pair_covers_initial_segment():
    # the first 10 codes are exactly the table above, no gaps
    assert sorted(PAIR_TABLE.values()) == list(range(10))


def test_unpair_known_values():
    for (x, y), z in PAIR_TABLE.items():
        assert unpair(z) == (x, y)


def test_pair_roundtrip_grid():
    for x in range(100):
        for y in range(100):
            assert unpair(pair(x, y)) == (x, y)


def test_unpair_roundtrip_initial_segment():
    for z in range(5050):
        x, y = unpair(z)
        assert pair(x, y) == z


def test_pair_rejects_non_naturals():
    for bad in (-1, True, 1.0, "2"):
        with pytest.raises(ValueError):
            pair(bad, 0)
        with pytest.raises(ValueError):
            pair(0, bad)
    with pytest.raises(ValueError):
        unpair(-3)


def test_finite_set_known_values():
    for n, s in SET_TABLE.items():
        assert finite_set_decode(n) == s
        assert finite_set_encode(s) == n


def test_finite_set_roundtrip():
    for n in range(4096):
        assert finite_set_encode(finite_set_decode(n)) == n


def test_finite_set_roundtrip_sparse():
    rng = random.Random(11)
    for _ in range(200):
        s = frozenset(rng.sample(range(40), rng.randint(0, 8)))
        assert finite_set_decode(finite_set_encode(s)) == s


def test_is_prefix():
    assert is_prefix((), (4, 5))
    assert is_prefix((4,), (4, 5))
    assert is_prefix((4, 5), (4, 5))
    assert not is_prefix((5,), (4, 5))
    assert not is_prefix((4, 5, 6), (4, 5))


def test_is_prefix_compares_tuples_and_lists_item_by_item():
    assert is_prefix([4], (4, 5))
    assert is_prefix((4,), [4, 5])
    assert is_prefix([], ())
    assert not is_prefix([5], (4, 5))
    for a, b, name, got in (
        ("ab", "abc", "a", "str"),
        ((1,), "abc", "b", "str"),
        (1, 2, "a", "int"),
        ((1,), range(3), "b", "range"),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be a tuple or a list, got {got}$"):
            is_prefix(a, b)


def test_next_free_skips_taken_values_and_compresses():
    from limitlearn.encodings import next_free

    rng = random.Random(5)
    taken = set()
    skip = {}
    for _ in range(400):
        x = rng.randint(0, 60)
        taken.add(x)
        skip.setdefault(x, x + 1)
        m = rng.randint(0, 62)
        want = m
        while want in taken:
            want += 1
        assert next_free(skip, m) == want
        # every link still points past taken values only
        assert all(all(v in taken for v in range(k, t)) for k, t in skip.items())
