"""``BinomialDraw`` replays ``Generator.binomial`` from Philox's raw words: the same
counts, dtype and stream position, written over whatever its output array held."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alleletest import _binomial
from alleletest._binomial import BinomialDraw
from alleletest.model import MarkerSpec, PenetranceModel, marker_conditional_freqs
from alleletest.sim import _stream

# The case M1 frequency of the benchmark's simulate design (q1 = 0.01, no LD).
BENCH_Q1_CASE = marker_conditional_freqs(
    PenetranceModel(p1=0.2, pen11=0.6, pen12=0.35, pen22=0.1), MarkerSpec(q1=0.01, delta=0.0)
)[0]
SIZES = (1, 2, 40, 1000, 3000, 100_000)


def assert_replays(draw: BinomialDraw, seed: int, block: int, size: int) -> None:
    """The draw, written into an int64 array of junk, equals numpy's on a twin
    stream, and leaves the stream in the same state."""
    gen, twin = _stream(seed, block), _stream(seed, block)
    got = np.full(size, -7, dtype=np.int64)
    draw(gen, got)
    want = twin.binomial(draw.n, draw.p, size=size)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    np.testing.assert_equal(gen.bit_generator.state, twin.bit_generator.state)


def mean_edge(n: int, mean: float) -> tuple[float, float]:
    """The largest p with ``p * n <= mean``, and the next float up."""
    p = mean / n
    while p * n > mean:
        p = np.nextafter(p, 0.0)
    while np.nextafter(p, 1.0) * n <= mean:
        p = np.nextafter(p, 1.0)
    return float(p), float(np.nextafter(p, 1.0))


class TestRawWords:
    """Philox's ``next_double`` is ``(word >> 11) * 2**-53`` of its next raw word,
    so a uniform's 2**16 bin is the word's top 16 bits."""

    @pytest.mark.parametrize("block, size", [(0, 1), (1, 3), (2, 4097), (7, 20_000), (1 << 20, 65_536)])
    def test_words_are_numpy_uniforms(self, block, size):
        gen, twin = _stream(23, block), _stream(23, block)
        words = gen.bit_generator.random_raw(size)
        uniforms = twin.random(size)
        np.testing.assert_array_equal(words >> np.uint64(48), np.floor(uniforms * 2**16))
        np.testing.assert_array_equal((words >> np.uint64(11)) * 2.0**-53, uniforms)
        assert [(w >> 11) * 2.0**-53 for w in words[:100].tolist()] == uniforms[:100].tolist()
        np.testing.assert_equal(gen.bit_generator.state, twin.bit_generator.state)

    @pytest.mark.parametrize("p", [BENCH_Q1_CASE, 0.3, 0.0])
    def test_other_bit_generators_refused(self, p):
        # PCG64's doubles come from its words too, but it is not the engine's stream.
        gen = np.random.Generator(np.random.PCG64(5))
        with pytest.raises(TypeError, match="Philox"):
            BinomialDraw(1000, p)(gen, np.empty(10, dtype=np.int64))


class TestReplaysNumpy:
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("p", [0.0, 1.0, 0.5, 0.5 + 1e-12, BENCH_Q1_CASE, 1.0 - BENCH_Q1_CASE])
    def test_grid(self, n, p):
        assert_replays(BinomialDraw(n, p), seed=n, block=3, size=20_000)

    @pytest.mark.parametrize("n, exact", [(100, True), (1000, True), (3000, True), (100_000, False)])
    def test_inversion_regime_edge(self, n, exact):
        at, above = mean_edge(n, 30.0)
        assert (at * n == 30.0) == exact
        assert BinomialDraw(n, at)._table is not None
        assert BinomialDraw(n, above)._table is None  # numpy's BTPE
        for p in (at, above, 1.0 - at, 1.0 - above):
            assert_replays(BinomialDraw(n, p), seed=7, block=0, size=20_000)

    def test_zero_trials_or_probability_use_no_uniform(self):
        for n, p in ((0, 0.3), (0, 1.0), (1000, 0.0)):
            gen = _stream(5, 0)
            out = np.full(100, -7, dtype=np.int64)
            BinomialDraw(n, p)(gen, out)
            np.testing.assert_array_equal(out, np.zeros(100))
            assert gen.random() == _stream(5, 0).random()

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, (1 << 64) - 1),
        block=st.integers(0, 1 << 20),
        n=st.integers(0, 100_000),
        mean=st.floats(0.0, 35.0),
        p=st.floats(0.0, 1.0),
        how=st.sampled_from(["mean", "flipped", "any"]),
        size=st.integers(1, 3000),
    )
    @example(seed=0, block=0, n=1000, mean=10.0, p=0.0, how="mean", size=3000)
    @example(seed=1, block=0, n=0, mean=0.0, p=0.3, how="any", size=10)
    @example(seed=2, block=0, n=5, mean=0.0, p=1.0, how="any", size=3000)
    @example(seed=3, block=0, n=3, mean=0.0, p=0.7, how="any", size=3000)
    def test_property(self, seed, block, n, mean, p, how, size):
        if how != "any" and n:
            p = min(mean / n, 1.0)
            p = 1.0 - p if how == "flipped" else p
        assert_replays(BinomialDraw(n, p), seed, block, size)

    def test_non_finite_probability_reaches_numpy(self):
        with pytest.raises(ValueError):
            BinomialDraw(10, float("nan"))(_stream(0, 0), np.empty(5, dtype=np.int64))


class TestForcedPaths:
    """The slow paths give numpy's draws when forced on every uniform."""

    @pytest.mark.parametrize("n, p", [(1000, BENCH_Q1_CASE), (40, 0.5 + 1e-12), (3000, 0.002), (1, 0.3)])
    def test_every_bin_unsure(self, n, p, monkeypatch):
        draw = BinomialDraw(n, p)
        monkeypatch.setattr(draw, "_table", np.full_like(draw._table, _binomial._UNSURE))
        assert_replays(draw, seed=11, block=2, size=5000)

    @pytest.mark.parametrize("n, p", [(1000, BENCH_Q1_CASE), (40, 0.5 + 1e-12)])
    def test_restart(self, n, p, monkeypatch):
        draw = BinomialDraw(n, p)
        # With the bound at 1, any uniform past the first two steps restarts.
        monkeypatch.setattr(draw, "_table", np.full_like(draw._table, _binomial._UNSURE))
        monkeypatch.setattr(draw, "_bound", 1)
        seen = []
        invert = BinomialDraw._invert
        monkeypatch.setattr(draw, "_invert", lambda u: seen.append(invert(draw, u)) or seen[-1])
        assert_replays(draw, seed=13, block=1, size=5000)
        assert None in seen

    def test_table_bins_agree_with_numpy_loop(self):
        draw = BinomialDraw(1000, BENCH_Q1_CASE)
        sure = np.flatnonzero(draw._table != _binomial._UNSURE)
        # Both edges of every sure bin, and its middle, invert to its count.
        for offset in (0.0, 0.5, 1.0 - 2.0**-37):
            counts = [draw._invert((i + offset) / _binomial._BINS) for i in sure.tolist()]
            np.testing.assert_array_equal(counts, draw._table[sure])
