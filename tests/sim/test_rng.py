"""Unit tests for the named RNG stream registry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import BufferedStream, RngRegistry


class TestRngRegistry:
    def test_same_seed_same_name_reproduces(self):
        a = RngRegistry(42).stream("link.0.1").random(5)
        b = RngRegistry(42).stream("link.0.1").random(5)
        assert list(a) == list(b)

    def test_different_names_are_independent(self):
        reg = RngRegistry(42)
        a = reg.stream("link.0.1").random(5)
        b = reg.stream("link.0.2").random(5)
        assert list(a) != list(b)

    def test_different_seeds_differ(self):
        a = RngRegistry(1).stream("x").random(5)
        b = RngRegistry(2).stream("x").random(5)
        assert list(a) != list(b)

    def test_stream_is_cached_and_continues(self):
        reg = RngRegistry(7)
        first = reg.stream("s").random(3)
        second = reg.stream("s").random(3)
        # A fresh registry draws the concatenation, proving continuation.
        fresh = RngRegistry(7).stream("s").random(6)
        assert list(fresh) == list(first) + list(second)

    def test_stream_order_does_not_matter(self):
        """Variance isolation: creating streams in any order gives the same
        draws per stream (streams are keyed by name, not creation order)."""
        reg1 = RngRegistry(9)
        a1 = reg1.stream("a").random(3)
        b1 = reg1.stream("b").random(3)
        reg2 = RngRegistry(9)
        b2 = reg2.stream("b").random(3)
        a2 = reg2.stream("a").random(3)
        assert list(a1) == list(a2)
        assert list(b1) == list(b2)

    def test_exponential_helper(self):
        reg = RngRegistry(3)
        draws = [reg.exponential("e", 10.0) for _ in range(2000)]
        assert all(d > 0 for d in draws)
        assert 9.0 < sum(draws) / len(draws) < 11.0

    def test_exponential_rejects_nonpositive_mean(self):
        with pytest.raises(ValueError):
            RngRegistry(3).exponential("e", 0.0)

    def test_uniform_helper_range(self):
        reg = RngRegistry(3)
        draws = [reg.uniform("u", 2.0, 5.0) for _ in range(100)]
        assert all(2.0 <= d < 5.0 for d in draws)

    def test_seed_property(self):
        assert RngRegistry(99).seed == 99


class TestSeedDerivation:
    def test_derive_seed_is_pure(self):
        a = RngRegistry.derive_seed(42, "fig3/S1/(10ms, 0.01)")
        b = RngRegistry.derive_seed(42, "fig3/S1/(10ms, 0.01)")
        assert a == b
        assert a >= 0

    def test_derive_seed_varies_with_both_inputs(self):
        base = RngRegistry.derive_seed(42, "cell-a")
        assert base != RngRegistry.derive_seed(43, "cell-a")
        assert base != RngRegistry.derive_seed(42, "cell-b")


#: (name, call on a BufferedStream, the same call on a plain Generator).
_CALLS = {
    "random": (lambda s: s.random(), lambda g: g.random()),
    "uniform": (lambda s: s.uniform(-2.0, 3.0), lambda g: g.uniform(-2.0, 3.0)),
    "exponential": (lambda s: s.exponential(0.01), lambda g: g.exponential(0.01)),
    "lossy": (
        lambda s: s.lossy_delay(0.3, 0.01),
        lambda g: None if g.random() < 0.3 else g.exponential(0.01),
    ),
    "lossy_no_delay": (
        lambda s: s.lossy_delay(0.3, 0.0),
        lambda g: None if g.random() < 0.3 else 0.0,
    ),
    "integers": (lambda s: s.integers(0, 1000), lambda g: g.integers(0, 1000)),
}


class TestBufferedStreamIsAPlainGenerator:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        runs=st.lists(
            st.tuples(st.sampled_from(sorted(_CALLS)), st.integers(1, 150)),
            min_size=1,
            max_size=12,
        ),
    )
    def test_any_call_sequence_draws_what_numpy_draws(self, seed, runs):
        """Runs long enough to buffer (8 same-kind draws), empty a block
        (32, then doubling) and refill it, broken by kind switches, lossy
        links' coin-plus-delay calls and delegated calls that resync."""
        stream = BufferedStream(np.random.default_rng(seed))
        plain = np.random.default_rng(seed)
        for name, length in runs:
            buffered_call, plain_call = _CALLS[name]
            for _ in range(length):
                assert buffered_call(stream) == plain_call(plain)
        assert stream.generator.bit_generator.state == plain.bit_generator.state
