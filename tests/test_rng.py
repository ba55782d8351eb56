"""The generator must be exactly reproducible: tests pin its output against
an inline re-implementation of the two standard algorithms it composes."""

from plsphere.rng import Rng, splitmix64_next

MASK = (1 << 64) - 1


def _splitmix64_reference(state):
    state = (state + 0x9E3779B97F4A7C15) & MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31), state


def _xorshift128plus_reference(s0, s1, n):
    out = []
    for _ in range(n):
        x, y = s0, s1
        s0 = y
        x = (x ^ (x << 23)) & MASK
        x = x ^ y ^ (x >> 17) ^ (y >> 26)
        s1 = x
        out.append((x + y) & MASK)
    return out


def test_splitmix64_matches_reference():
    state = 0
    for _ in range(100):
        expected, ref_state = _splitmix64_reference(state)
        got, state2 = splitmix64_next(state)
        assert got == expected
        assert state2 == ref_state
        state = state2


def test_stream_matches_reference_for_many_seeds():
    for seed in (0, 1, 42, 2**63, (1 << 64) - 1):
        s0, st = _splitmix64_reference(seed)
        s1, _ = _splitmix64_reference(st)
        expected = _xorshift128plus_reference(s0, s1, 50)
        rng = Rng(seed)
        assert [rng.next_u64() for _ in range(50)] == expected


def test_determinism_and_independence():
    a = Rng(123)
    b = Rng(123)
    assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]
    assert Rng(1).next_u64() != Rng(2).next_u64()


def test_randbelow_bounds_and_multiply_high():
    rng = Rng(7)
    for n in (1, 2, 3, 10, 1000, 2**40):
        for _ in range(200):
            v = rng.randbelow(n)
            assert 0 <= v < n
    # multiply-high mapping: randbelow(n) == (next_u64() * n) >> 64
    r1, r2 = Rng(99), Rng(99)
    for n in (3, 17, 1_000_003):
        assert r1.randbelow(n) == (r2.next_u64() * n) >> 64


def test_shuffle_is_permutation_and_seeded():
    rng = Rng(5)
    items = list(range(50))
    rng.shuffle(items)
    assert sorted(items) == list(range(50))
    again = list(range(50))
    Rng(5).shuffle(again)
    assert again == items


def test_permutation_is_seeded():
    p = Rng(11).permutation(10)
    assert sorted(p) == list(range(10))
    assert Rng(11).permutation(10) == p
