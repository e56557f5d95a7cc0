"""Monte Carlo engine tests: determinism, sampling laws, lattice oracle."""

import dataclasses
import json
import math
import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from alleletest import sim
from alleletest._binomial import BinomialDraw
from alleletest.model import (
    DegeneratePrevalenceError,
    DesignConstants,
    MarkerSpec,
    PenetranceModel,
    delta_bounds,
)
from alleletest.sim import (
    _BLOCK,
    ALL_TESTS,
    SimConfig,
    SimulationConfigError,
    _draw_block,
    _labels,
    _make_draws,
    _stream,
    estimate_power,
    estimate_type1,
    genotype_distributions,
    null_distribution_sample,
)
from alleletest.stats import (
    CORRECTION_DIRECTIONS,
    AlleleCounts,
    q_hat,
    t_statistic,
    two_sided_critical_value,
    statistic_arrays,
    u_statistic,
    w_corrected,
    w_delta_statistic,
    w_statistic,
)
from oracles import (
    enumerate_population,
    exact_null_rejection,
    exact_null_t_law,
    exact_q_hat_delta,
    exact_t,
    exact_w_delta,
)

ADDITIVE = PenetranceModel(p1=0.10, pen11=0.60, pen12=0.35, pen22=0.10)
NULL_MARKER_10 = MarkerSpec(q1=0.10, delta=0.0)


def config(q1=0.10, delta=0.0, r=500, s=500, reps=100_000, alphas=(1e-3,), seed=1,
           tests=("T", "W", "W_cor", "U"), deltas=(), mode="allele", model=ADDITIVE,
           pi_hat=0.15):
    return SimConfig(
        model=model,
        marker=MarkerSpec(q1=q1, delta=delta),
        design=DesignConstants(r, s),
        pi_hat=pi_hat,
        replications=reps,
        alphas=alphas,
        delta_weights=deltas,
        tests=tests,
        mode=mode,
        seed=seed,
    )


def _blocks(reps):
    """(block index, size) of each block of a run of ``reps`` replications."""
    return [(b, min(_BLOCK, reps - b * _BLOCK)) for b in range(-(-reps // _BLOCK))]


def block_arrays(size):
    """A fresh int64 pair for up to ``size`` of a block's case and control counts."""
    return np.empty((2, size), dtype=np.int64)


def draw(cfg, size, block=0):
    """The case and control M1 counts of block ``block`` of a run of ``cfg``,
    at most ``size`` of each."""
    return _draw_block(cfg, _make_draws(cfg), block, block_arrays(size))


@pytest.fixture(scope="module")
def million_run_500_q10():
    return estimate_type1(config(reps=1_000_000, seed=31))


class TestDrawCounts:
    """The draw objects of both groups, as ``_draw_block`` runs them on a block."""

    def test_zero_frequency_forces_zero_count(self):
        cfg = config(r=50, s=50, seed=0)
        _, control = _make_draws(cfg)
        r1, s1 = _draw_block(cfg, (BinomialDraw(100, 0.0), control), 0, block_arrays(20))
        assert (r1 == 0).all() and (s1 > 0).any()

    def test_allele_draws_are_numpy_binomial_streams(self):
        base = _make_draws(config(q1=0.01, r=500, s=400))
        assert [(d.n, d.p) for d in base] == [(1000, 0.01), (800, 0.01)]
        # p * n <= 30 on both sides (inverted, the control one from 1 - p), and BTPE.
        for case, control in (base, (BinomialDraw(1000, 0.02), BinomialDraw(800, 0.97)),
                              (BinomialDraw(1000, 0.3), base[1])):
            gen, twin = _stream(9, 4), _stream(9, 4)
            r1, s1 = block_arrays(5000)
            case(gen, r1)
            control(gen, s1)
            np.testing.assert_array_equal(r1, twin.binomial(case.n, case.p, 5000))
            np.testing.assert_array_equal(s1, twin.binomial(control.n, control.p, 5000))
            assert gen.random() == twin.random()

    def test_mean_matches_binomial_moments(self):
        # delta 0.3 puts the case M1 frequency at 0.145
        n = 100_000
        case, _ = _make_draws(config(delta=0.3, r=100, s=100))
        r1 = np.empty(n, dtype=np.int64)
        case(_stream(42, 0), r1)
        expected = 200 * 0.145
        se = math.sqrt(200 * 0.145 * 0.855)
        assert abs(r1.mean() - expected) < 4 * se / math.sqrt(n)

    def test_fixed_seed_reproduces(self):
        for mode in ("allele", "genotype"):
            cfg = config(delta=0.3, r=300, s=400, mode=mode, seed=7)
            a = draw(cfg, 1000)
            b = draw(cfg, 1000)
            np.testing.assert_array_equal(a[0], b[0])
            np.testing.assert_array_equal(a[1], b[1])


class TestGenotypeDistributions:
    def test_no_ld_gives_hardy_weinberg(self):
        dists = genotype_distributions(ADDITIVE, NULL_MARKER_10)
        q1 = 0.10
        hwe = np.array([(1 - q1) ** 2, 2 * q1 * (1 - q1), q1**2])
        np.testing.assert_allclose(dists.case, hwe, atol=1e-12)
        np.testing.assert_allclose(dists.control, hwe, atol=1e-12)

    def test_vectors_are_distributions(self):
        dists = genotype_distributions(ADDITIVE, MarkerSpec(q1=0.10, delta=0.3))
        for vec in (dists.case, dists.control):
            assert (vec >= 0).all()
            assert vec.sum() == pytest.approx(1.0, abs=1e-12)

    def test_allele_marginal_matches_conditional_freqs(self):
        dists = genotype_distributions(ADDITIVE, MarkerSpec(q1=0.10, delta=0.3))
        case_marginal = (dists.case[1] + 2 * dists.case[2]) / 2.0
        ctrl_marginal = (dists.control[1] + 2 * dists.control[2]) / 2.0
        assert case_marginal == pytest.approx(0.145, abs=1e-12)
        assert ctrl_marginal == pytest.approx(0.09205882352941179, abs=1e-12)

    def test_matches_enumeration_oracle(self):
        ref = enumerate_population(0.10, 0.10, 0.3, (0.60, 0.35, 0.10))
        dists = genotype_distributions(ADDITIVE, MarkerSpec(q1=0.10, delta=0.3))
        np.testing.assert_allclose(dists.case, ref["geno_case"], rtol=1e-12)
        np.testing.assert_allclose(dists.control, ref["geno_ctrl"], rtol=1e-12)

    def test_null_penetrance_equalizes_groups(self):
        flat = PenetranceModel(p1=0.10, pen11=0.3, pen12=0.3, pen22=0.3)
        dists = genotype_distributions(flat, MarkerSpec(q1=0.10, delta=0.3))
        np.testing.assert_allclose(dists.case, dists.control, atol=1e-14)

    def test_degenerate_prevalence_rejected(self):
        for risk in (0.0, 1.0):
            everyone = PenetranceModel(p1=0.10, pen11=risk, pen12=risk, pen22=risk)
            with pytest.raises(DegeneratePrevalenceError):
                genotype_distributions(everyone, NULL_MARKER_10)

    def test_genotype_draw_expectation(self):
        n = 50_000
        r1, _ = draw(config(delta=0.3, r=100, s=100, mode="genotype", seed=3), n)
        expected = 200 * 0.145
        # within-individual allele dependence inflates Var(r1) at most 2x
        se_mean = math.sqrt(2 * 200 * 0.145 * 0.855 / n)
        assert abs(r1.mean() - expected) < 5 * se_mean


class TestVectorizedAgainstScalar:
    def test_block_statistics_match_scalar_calls(self):
        weights = (0.0, 0.4, 1.0)
        n1, n0 = 1000, 1400  # 500 cases, 700 controls
        rng = np.random.default_rng(9)
        r1 = rng.integers(1, n1, size=64)
        s1 = rng.integers(1, n0, size=64)
        # then degenerate rows: no case M1, all controls M1, and two monomorphic
        r1 = np.concatenate([r1, [0, 5, 0, n1]])
        s1 = np.concatenate([s1, [7, n0, 0, n0]])
        # the weight column: row 0 is the prevalence estimate, rows 1-3 delta weights
        column = np.array((0.15, *weights))[:, None]
        for direction in CORRECTION_DIRECTIONS:
            arrays = statistic_arrays(r1, n1, s1, n0, column, direction)
            np.testing.assert_array_equal(arrays.degenerate, np.arange(68) >= 64)
            np.testing.assert_array_equal(arrays.monomorphic, np.arange(68) >= 66)
            assert arrays.t.shape == (68,)
            for stat in (arrays.w, arrays.w_cor, arrays.u, arrays.q_hat):
                assert stat.shape == (4, 68)
            for stat in (arrays.t, arrays.w, arrays.w_cor, arrays.u, arrays.q_hat):
                assert np.isnan(stat[..., 64:]).all()
            for i in range(64):
                table = (int(r1[i]), n1 - int(r1[i]), int(s1[i]), n0 - int(s1[i]))
                counts = AlleleCounts(*table)
                assert arrays.t[i] == t_statistic(counts)
                assert arrays.t[i] == pytest.approx(exact_t(*table), rel=1e-12)
                assert arrays.w[0, i] == w_statistic(counts, 0.15)
                assert arrays.w[0, i] == pytest.approx(exact_w_delta(*table, 0.15), rel=1e-12)
                assert arrays.w_cor[0, i] == w_corrected(counts, 0.15, direction=direction)
                assert arrays.u[0, i] == u_statistic(counts, 0.15)
                assert arrays.q_hat[0, i] == q_hat(counts, 0.15)
                assert arrays.q_hat[0, i] == pytest.approx(
                    exact_q_hat_delta(*table, 0.15), rel=1e-12
                )
                for k, d in enumerate(weights, start=1):  # W_delta is the W row of d
                    assert arrays.w[k, i] == w_delta_statistic(counts, d)
                    assert arrays.w[k, i] == pytest.approx(exact_w_delta(*table, d), rel=1e-12)
                    assert arrays.w_cor[k, i] == w_corrected(
                        counts, 0.15, direction=direction, delta_weight=d
                    )


def reference_tally(config, labels, z_values, block, size):
    """Per-replicate block tally: every draw through the kernel, counted one by one."""
    r1, s1 = draw(config, size, block)
    n1, n0 = 2 * config.design.r_cases, 2 * config.design.s_controls
    rejections = np.zeros((len(labels), len(z_values)), dtype=np.int64)
    for i, (test, dw) in enumerate(labels):
        # W_delta and W_cor_delta are W and W_cor at their weight
        weight = config.pi_hat if dw is None else dw
        arrays = statistic_arrays(r1, n1, s1, n0, weight)
        magnitude = np.abs(getattr(arrays, test.lower().removesuffix("_delta")))
        for j, z in enumerate(z_values):
            # NaN (degenerate) never rejects.
            rejections[i, j] = int(np.count_nonzero(magnitude >= z))
    return rejections, int(np.count_nonzero(arrays.degenerate))


class TestCellTally:
    """A one-block run's tally over distinct tables equals the per-replicate
    tally bit for bit, whether the block's tables are counted in a histogram
    or sorted."""

    SIZES = (1, 5, 50, 500, 5000, 100_000)

    @settings(max_examples=100, deadline=None)
    @given(
        mode=st.sampled_from(["allele", "genotype"]),
        weights=st.lists(st.sampled_from([0.0, 0.15, 0.4, 0.5, 1.0]), unique=True, max_size=3),
        q1=st.sampled_from([0.0005, 0.002, 0.01, 0.1, 0.5]),
        r=st.sampled_from(SIZES),
        s=st.sampled_from(SIZES),
        size=st.integers(1, 4096),
        seed=st.integers(17, 20),
        alphas=st.lists(st.sampled_from([1.0, 0.5, 0.05, 1e-3, 1e-6]), unique=True,
                        min_size=1, max_size=3),
    )
    @example(mode="allele", weights=[0.0, 1.0], q1=0.5,
             r=100_000, s=100_000, size=_BLOCK, seed=17, alphas=[0.5, 1e-3])
    @example(mode="genotype", weights=[0.0, 0.4, 1.0], q1=0.002,
             r=50, s=50, size=20_000, seed=18, alphas=[1.0, 0.05])
    @example(mode="allele", weights=[1.0], q1=0.01,
             r=1, s=100_000, size=_BLOCK - 17, seed=19, alphas=[1.0, 1e-3])
    def test_matches_reference_tally(self, mode, weights, q1, r, s, size, seed, alphas):
        tests = ("T", "W", "W_cor", "U") + (("W_delta", "W_cor_delta") if weights else ())
        cfg = config(q1=q1, r=r, s=s, reps=size, alphas=alphas, tests=tests, deltas=weights,
                     mode=mode, seed=seed)
        labels = _labels(cfg)
        z_values = np.array([two_sided_critical_value(a) for a in cfg.alphas])
        result = estimate_type1(cfg)
        want, want_degenerate = reference_tally(cfg, labels, z_values, 0, size)
        assert [c.rejections for c in result.cells] == want.ravel().tolist()
        assert result.degenerate_replicates == want_degenerate


class TestRunTally:
    """A run's cells are the per-replicate block tallies summed, however its
    blocks count their tables and wherever the pool of tables is cut."""

    @settings(max_examples=10, deadline=None)
    @given(
        mode=st.sampled_from(["allele", "genotype"]),
        q1=st.sampled_from([1e-5, 0.002, 0.01, 0.5, 0.99, 1.0 - 1e-5]),
        r=st.sampled_from([1, 50, 500, 100_000]),
        s=st.sampled_from([1, 50, 500, 100_000]),
        reps=st.integers(_BLOCK + 1, 3 * _BLOCK - 1).filter(lambda n: n % _BLOCK),
        weights=st.lists(st.sampled_from([0.0, 0.4, 1.0]), unique=True, max_size=2),
        power=st.booleans(),
        seed=st.integers(0, (1 << 64) - 1),
    )
    # The benchmark's design, its flipped twin (whose box starts far from 0),
    # a rare marker at R = S = 1e5, a small genotype design, BTPE at R = S =
    # 500, the golden genotype design and c02's design count each block in a
    # histogram. Markers at q1 = 0.5 and 0.02 at R = S = 1e5 sort; at 0.02,
    # each block draws ~38,800 distinct tables, so the pool is tallied after
    # the second of three blocks and again after the last.
    @example(mode="allele", q1=0.01, r=500, s=500, reps=2 * _BLOCK + 3, weights=[0.0, 1.0],
             power=False, seed=1)
    @example(mode="allele", q1=0.99, r=500, s=400, reps=_BLOCK + 9, weights=[],
             power=False, seed=7)
    @example(mode="allele", q1=1e-5, r=100_000, s=100_000, reps=_BLOCK + 1, weights=[],
             power=True, seed=2)
    @example(mode="genotype", q1=0.01, r=50, s=50, reps=3 * _BLOCK - 1, weights=[0.4],
             power=False, seed=3)
    @example(mode="allele", q1=0.5, r=100_000, s=100_000, reps=_BLOCK + 7, weights=[0.4],
             power=False, seed=4)
    @example(mode="allele", q1=0.05, r=500, s=500, reps=2 * _BLOCK - 1, weights=[],
             power=True, seed=5)
    @example(mode="genotype", q1=0.1, r=200, s=300, reps=_BLOCK + 2, weights=[0.0],
             power=True, seed=6)
    @example(mode="allele", q1=0.25, r=2000, s=2000, reps=2 * _BLOCK + 1, weights=[0.4],
             power=False, seed=8)
    @example(mode="allele", q1=0.02, r=100_000, s=100_000, reps=3 * _BLOCK - 5, weights=[],
             power=False, seed=9)
    def test_cells_are_block_tallies_summed(self, mode, q1, r, s, reps, weights, power, seed):
        tests = ("T", "W", "W_cor", "U") + (("W_delta", "W_cor_delta") if weights else ())
        delta = 0.5 * delta_bounds(ADDITIVE.p1, q1)[1] if power else 0.0
        cfg = config(q1=q1, delta=delta, r=r, s=s, reps=reps, alphas=(0.05, 1e-3), tests=tests,
                     deltas=weights, mode=mode, seed=seed)
        result = (estimate_power if power else estimate_type1)(cfg)
        labels = _labels(cfg)
        z_values = np.array([two_sided_critical_value(a) for a in cfg.alphas])
        want = np.zeros((len(labels), len(z_values)), dtype=np.int64)
        want_degenerate = 0
        for block, size in _blocks(reps):
            rejections, degenerate = reference_tally(cfg, labels, z_values, block, size)
            want += rejections
            want_degenerate += degenerate
        assert [c.rejections for c in result.cells] == want.ravel().tolist()
        assert result.degenerate_replicates == want_degenerate

    def test_histogram_path_byte_equal_across_worker_counts(self):
        cfg = config(q1=0.01, reps=3 * _BLOCK + 11, seed=21, tests=ALL_TESTS, deltas=(0.0, 0.4),
                     alphas=(1e-2, 1e-3))
        outputs = [
            dataclasses.replace(estimate_type1(cfg, workers=workers), wall_time_s=0.0).to_json()
            for workers in (1, 2, 4)
        ]
        assert outputs[1:] == outputs[:1] * 2

    def test_mixed_draw_paths_byte_equal_across_worker_counts(self):
        # Under LD the case group is drawn through the table and the control
        # group by numpy's BTPE, each into its thread's reused block buffer;
        # more threads than cores.
        cfg = config(q1=0.05, delta=0.02, r=100, s=2000, reps=8 * _BLOCK + 11, seed=22,
                     tests=ALL_TESTS, deltas=(0.0, 0.4), alphas=(1e-2, 1e-3))
        case, control = _make_draws(cfg)
        assert case._table is not None and control._table is None
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # threads swap often, mid-block
        try:
            outputs = [
                dataclasses.replace(estimate_power(cfg, workers=workers), wall_time_s=0.0).to_json()
                for workers in (1, 2, 8)
            ]
        finally:
            sys.setswitchinterval(interval)
        assert outputs[1:] == outputs[:1] * 2

    def test_each_worker_draws_its_blocks_into_one_pair(self, monkeypatch):
        # Worker i takes blocks i, i + workers, ...; worker 0 runs on the calling
        # thread. Threads are told apart by their objects, which the list keeps
        # (Python reuses get_ident() values once a thread has ended), and the
        # drawn arrays are kept, so no freed buffer's address can come back for
        # another pair.
        seen = []
        draw_block = sim._draw_block

        def recorded(config, draws, block, pair):
            seen.append((threading.current_thread(), block, pair))
            return draw_block(config, draws, block, pair)

        monkeypatch.setattr(sim, "_draw_block", recorded)
        cfg = config(q1=0.01, reps=4 * _BLOCK + 3, seed=23)
        for workers, shares in ((1, [{0, 1, 2, 3, 4}]), (2, [{0, 2, 4}, {1, 3}])):
            seen.clear()
            estimate_type1(cfg, workers=workers)
            threads = {thread: [] for thread, _, _ in seen}
            for thread, block, pair in seen:
                threads[thread].append((block, pair.ctypes.data))
            assert sorted(sorted(block for block, _ in drawn) for drawn in threads.values()) == \
                sorted(sorted(share) for share in shares)
            pairs = [{address for _, address in drawn} for drawn in threads.values()]
            assert all(len(pair) == 1 for pair in pairs)
            assert len(set.union(*pairs)) == workers
            assert {block for block, _ in threads[threading.current_thread()]} == shares[0]

    def test_a_share_that_ends_at_once_leaves_its_thread_to_no_other(self):
        # Each share's work returns at once, yet each runs on a thread of its
        # own, share 0 on the caller's. Threads are told apart by their objects:
        # a thread that has ended can pass its get_ident() value on.
        seen = {}

        def work(config, draws, share):
            seen[share[0]] = threading.current_thread()
            return list(share)

        cfg = config(q1=0.01, reps=3 * _BLOCK, seed=24)
        assert sim._run_shares(cfg, 3, work) == [[0], [1], [2]]
        assert len(set(seen.values())) == 3 and seen[0] is threading.current_thread()

    @pytest.mark.parametrize("q1, r, calls", [(0.01, 500, 1), (0.02, 100_000, 2)])
    def test_pool_is_tallied_per_block_of_tables(self, q1, r, calls, monkeypatch):
        # Three blocks of a rare marker at R = S = 500 draw ~450 distinct tables
        # each, tallied once; at R = S = 1e5, q1 = 0.02 they draw ~38,800 each,
        # so the pool passes _BLOCK entries after the second block.
        sizes = []
        tally = sim._tally_tables

        def counted(config, labels, z_values, keys, counts):
            sizes.append(counts.sum())
            return tally(config, labels, z_values, keys, counts)

        monkeypatch.setattr(sim, "_tally_tables", counted)
        estimate_type1(config(q1=q1, r=r, s=r, reps=3 * _BLOCK - 5, seed=10))
        assert len(sizes) == calls
        assert sum(sizes) == 3 * _BLOCK - 5


class TestRunShares:
    """The runner checks the worker count, and raises a share's error only once
    every thread it started has ended."""

    @pytest.mark.parametrize("estimator", [estimate_type1, estimate_power, null_distribution_sample])
    @pytest.mark.parametrize("workers, message", [
        (2.5, "workers must be an integer, got 2.5"),
        (True, "workers must be an integer, got True"),
        ("2", "workers must be an integer, got '2'"),
        (None, "workers must be an integer, got None"),
        (0, "workers must be >= 1, got 0"),
        (-1, "workers must be >= 1, got -1"),
    ])
    def test_workers_must_be_a_positive_integer(self, estimator, workers, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            estimator(config(reps=1000), workers=workers)

    @pytest.mark.parametrize("failing", [0, 1])
    def test_a_failing_share_raises_after_the_others_return(self, failing):
        # Share 0 runs on the calling thread, share 1 on a thread of its own.
        returned = threading.Event()

        def work(config, draws, share):
            if share[0] == failing:
                raise KeyError(f"share {failing}")
            time.sleep(0.05)
            returned.set()

        with pytest.raises(KeyError, match=f"share {failing}"):
            sim._run_shares(config(q1=0.01, reps=2 * _BLOCK), 2, work)
        assert returned.is_set()

    def test_a_thread_that_fails_to_start_is_raised_once_the_started_one_ends(self, monkeypatch):
        # The second start() fails as if the system had no thread left to give.
        start = threading.Thread.start
        started = []

        def start_once(thread):
            if started:
                raise RuntimeError("can't start new thread")
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", start_once)

        def work(config, draws, share):
            time.sleep(0.05)

        with pytest.raises(RuntimeError, match="can't start new thread"):
            sim._run_shares(config(q1=0.01, reps=3 * _BLOCK), 3, work)
        assert len(started) == 1 and not started[0].is_alive()

    def test_bookkeeping_does_not_grow_with_the_replications(self):
        # Each share is a range of block indices: 1e10 replications are
        # 152,588 blocks, handed out without a list of them.
        def work(config, draws, share):
            return share

        cfg = config(q1=0.01, reps=10**10)
        tracemalloc.start()
        try:
            shares = sim._run_shares(cfg, 2, work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert shares == [range(0, 152588, 2), range(1, 152588, 2)]


class TestDrawSeam:
    """Every block of every run is drawn by ``sim._draw_block``, the one place a
    tracer can wrap to time the draw, and the run uses what it returns."""

    def test_every_block_goes_through_draw_block(self, monkeypatch):
        seen = []

        def no_minor_alleles(config, draws, block, pair):
            size = min(_BLOCK, config.replications - block * _BLOCK)
            seen.append((block, size))
            return np.zeros(size, dtype=np.int64), np.zeros(size, dtype=np.int64)

        monkeypatch.setattr(sim, "_draw_block", no_minor_alleles)
        reps = 2 * _BLOCK + 5
        result = estimate_type1(config(q1=0.01, reps=reps), workers=2)
        assert sorted(seen) == _blocks(reps)
        assert result.degenerate_replicates == reps
        assert all(c.rejections == 0 for c in result.cells)
        seen.clear()
        sample = null_distribution_sample(config(q1=0.1, reps=reps), workers=2)
        assert sorted(seen) == _blocks(reps)
        assert sample.degenerate.all()


class TestEstimateType1:
    def test_rejects_nonzero_ld(self):
        with pytest.raises(SimulationConfigError):
            estimate_type1(config(delta=0.3))

    def test_alpha_one_rejects_everything(self):
        result = estimate_type1(config(q1=0.5, reps=2000, alphas=(1.0,)))
        assert result.cell("T", 1.0).fraction == 1.0
        assert result.degenerate_replicates == 0

    def test_deterministic_across_worker_counts(self):
        cfg = config(reps=200_000, seed=99, deltas=(0.4,),
                     tests=("T", "W", "W_cor", "U", "W_delta", "W_cor_delta"))
        baseline = estimate_type1(cfg, workers=1)
        for workers in (4, 8):
            other = estimate_type1(cfg, workers=workers)
            assert [c.rejections for c in other.cells] == [c.rejections for c in baseline.cells]

    def test_same_seed_same_result(self):
        cfg = config(reps=50_000, seed=1234)
        a = estimate_type1(cfg)
        b = estimate_type1(cfg)
        assert a.to_tsv() == b.to_tsv()

    def test_different_seed_differs(self):
        a = estimate_type1(config(reps=200_000, seed=1))
        b = estimate_type1(config(reps=200_000, seed=2))
        assert [c.rejections for c in a.cells] != [c.rejections for c in b.cells]

    def test_degenerate_replicates_reported_and_conservative(self):
        cfg = config(q1=0.002, r=50, s=50, reps=20_000, alphas=(0.05,), seed=5)
        result = estimate_type1(cfg)
        assert result.degenerate_replicates > 0
        # degenerate draws never reject, so the tally stays below the level
        frac = result.cell("T", 0.05).fraction
        assert frac <= 0.05 + 4 * result.cell("T", 0.05).se + 1e-9

    def test_estimate_close_to_exact_lattice_value(self, million_run_500_q10):
        z = two_sided_critical_value(1e-3)
        exact = exact_null_rejection(500, 500, 0.10, 0.15, z)
        for test in ("T", "W", "W_cor", "U"):
            cell = million_run_500_q10.cell(test, 1e-3)
            assert abs(cell.fraction - exact[test]) < 4 * cell.se

    def test_inflation_direction_small_sample_low_maf(self, million_run_500_q10):
        # corrected statistic sits between the classic and uncorrected ones
        t = million_run_500_q10.cell("T", 1e-3).fraction
        w = million_run_500_q10.cell("W", 1e-3).fraction
        w_cor = million_run_500_q10.cell("W_cor", 1e-3).fraction
        assert t < w_cor < w

    def test_degenerate_rate_negligible_at_reference_configs(self, million_run_500_q10):
        assert million_run_500_q10.degenerate_replicates / 1_000_000 < 0.01


class TestExactNullTLaw:
    """The step CDF of null T against the rejection-region lattice oracle."""

    @pytest.fixture(scope="class")
    def law(self):
        return exact_null_t_law(2000, 2000, 0.25)

    @pytest.mark.parametrize("alpha", [1e-3, 1e-6])
    def test_tails_match_lattice_rejection(self, law, alpha):
        z = two_sided_critical_value(alpha)
        exact = exact_null_rejection(2000, 2000, 0.25, 0.15, z)
        tails = 1.0 - law.cdf_at(z) + law.cdf_below(-z)
        assert abs(tails - exact["T"]) <= 1e-12

    def test_mass_adds_up(self, law):
        assert law.dropped > 0.0
        assert math.fsum(law.pmf) + law.dropped + law.degenerate == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_when_groups_equal(self, law):
        np.testing.assert_allclose(law.atoms, -law.atoms[::-1], rtol=0, atol=1e-12)
        # evaluated between atoms, where merged atoms' ulp spread cannot matter
        positive = law.atoms[law.atoms >= 0]
        z = np.concatenate(([0.0], 0.5 * (positive[:-1] + positive[1:])))
        np.testing.assert_allclose(law.cdf_below(-z), 1.0 - law.cdf_at(z), rtol=0, atol=1e-12)


class TestModeConsistency:
    def test_type1_agrees_between_modes(self):
        # under no LD the genotype route reduces to the same binomial law,
        # so the two modes must agree up to Monte Carlo noise
        base = dict(q1=0.25, r=2000, s=2000, reps=1_000_000, alphas=(1e-3,),
                    seed=77, tests=("T",))
        allele = estimate_type1(config(mode="allele", **base))
        genotype = estimate_type1(config(mode="genotype", **base))
        fa = allele.cell("T", 1e-3)
        fg = genotype.cell("T", 1e-3)
        combined_se = math.hypot(fa.se, fg.se)
        assert abs(fa.fraction - fg.fraction) < 4 * combined_se

    def test_expected_allele_counts_agree_under_ld(self):
        # within-individual allele dependence in genotype mode leaves the
        # expected count untouched; variance grows at most 2x
        expected = 2 * 500 * 0.145
        se_mean = math.sqrt(2 * 2 * 500 * 0.145 * 0.855 / 50_000)
        for mode in ("allele", "genotype"):
            cfg = config(delta=0.3, reps=50_000, mode=mode, seed=8, alphas=(0.5,))
            r1, _ = draw(cfg, 50_000)
            assert abs(r1.mean() - expected) < 5 * se_mean


class TestEstimatePower:
    def test_minimum_replications_enforced(self):
        with pytest.raises(ValueError, match="1000"):
            estimate_power(config(delta=0.3, reps=500))

    def test_reduces_to_type1_at_no_ld(self):
        cfg = config(reps=50_000, seed=21)
        t1 = estimate_type1(cfg)
        pw = estimate_power(cfg)
        assert [c.rejections for c in t1.cells] == [c.rejections for c in pw.cells]
        assert t1.kind == "type1" and pw.kind == "power"

    def test_power_grows_with_ld(self):
        fractions = []
        for delta in (0.1, 0.2, 0.3):
            cfg = config(delta=delta, r=1000, s=1000, reps=20_000,
                         alphas=(1e-3,), seed=13, tests=("W",))
            fractions.append(estimate_power(cfg).cell("W", 1e-3).fraction)
        assert fractions[0] < fractions[1] < fractions[2]


class TestNullDistributionSample:
    def test_requires_null(self):
        with pytest.raises(SimulationConfigError):
            null_distribution_sample(config(delta=0.3))

    def test_mean_and_branch(self):
        cfg = config(q1=0.25, r=2000, s=2000, reps=200_000, seed=3)
        sample = null_distribution_sample(cfg, workers=4)
        assert not sample.degenerate.any()
        assert abs(sample.t.mean()) < 4.0 / math.sqrt(cfg.replications)
        upper = sample.q_hat > 1.0
        np.testing.assert_array_equal(sample.u[upper], sample.t[upper])
        np.testing.assert_array_equal(sample.u[~upper], sample.w[~upper])

    def test_t_passes_ks_at_moderate_resolution(self):
        # at 10^4 draws the discrete lattice is below KS resolution and the
        # normal approximation for T holds
        cfg = config(q1=0.25, r=2000, s=2000, reps=10_000, seed=6)
        sample = null_distribution_sample(cfg)
        ks = sps.kstest(sample.t, "norm")
        assert ks.pvalue > 0.01

    def test_deterministic_across_workers(self):
        cfg = config(q1=0.25, r=2000, s=2000, reps=70_000, seed=44)
        a = null_distribution_sample(cfg, workers=1)
        b = null_distribution_sample(cfg, workers=8)
        np.testing.assert_array_equal(a.t, b.t)
        np.testing.assert_array_equal(a.u, b.u)

    def test_blocks_drawn_into_reused_buffers_match_fresh_draws(self):
        # Each block is drawn into its worker's buffers and read from them
        # before that worker draws the next; fresh arrays give the same sample.
        cfg = config(q1=0.01, reps=3 * _BLOCK + 5, seed=45)
        samples = [null_distribution_sample(cfg, workers=workers) for workers in (1, 2)]
        r1, s1 = map(np.concatenate, zip(*(
            draw(cfg, size, block) for block, size in _blocks(cfg.replications)
        )))
        want = statistic_arrays(r1, 1000, s1, 1000, cfg.pi_hat)
        for sample in samples:
            for field in ("t", "w", "u", "q_hat", "degenerate"):
                np.testing.assert_array_equal(getattr(sample, field), getattr(want, field))


class TestSimResult:
    def test_tsv_layout(self):
        result = estimate_type1(config(reps=5000, alphas=(1e-2, 1e-3), deltas=(0.4,),
                                       tests=("T", "W_delta")))
        lines = result.to_tsv().strip().split("\n")
        assert lines[0] == "test\talpha\tfraction\tse\treplications"
        labels = [line.split("\t")[0] for line in lines[1:]]
        assert labels == ["T", "T", "W_delta[0.4]", "W_delta[0.4]"]

    def test_json_round_trip(self):
        result = estimate_type1(config(reps=5000))
        payload = json.loads(result.to_json())
        assert payload["replications"] == 5000
        assert payload["mode"] == "allele"
        assert payload["seed"] == 1
        assert "philox" in payload["rng"]
        assert len(payload["cells"]) == 4
        for cell in result.cells:
            assert cell.fraction == cell.rejections / 5000
            assert cell.se == pytest.approx(
                math.sqrt(cell.fraction * (1 - cell.fraction) / 5000), rel=1e-12
            )

    def test_cell_lookup_missing(self):
        result = estimate_type1(config(reps=5000))
        with pytest.raises(KeyError):
            result.cell("W_delta", 1e-3, 0.4)

    def test_cell_lookup_matches_weight_exactly(self):
        result = estimate_type1(config(reps=5000, tests=("W_delta",), deltas=(0.1, 0.4)))
        assert result.cell("W_delta", 1e-3, 0.4).delta_weight == 0.4
        with pytest.raises(KeyError):
            result.cell("W_delta", 1e-3, 0.4 + 1e-12)


class TestConfigValidation:
    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            config(alphas=(0.0,))

    def test_bad_test_name(self):
        with pytest.raises(ValueError):
            config(tests=("T", "X"))

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            config(mode="haplotype")

    def test_seed_outside_64_bits(self):
        # seeds are Philox keys; a value outside 64 bits would alias another seed
        for bad in (-1, 1 << 64, (1 << 64) + 5):
            with pytest.raises(ValueError, match="seed"):
                config(seed=bad)
        assert config(seed=(1 << 64) - 1).seed == (1 << 64) - 1

    @pytest.mark.parametrize(
        "field,bad",
        [("seed", 1.7), ("seed", True), ("seed", "1"), ("replications", 5000.5),
         ("replications", True), ("replications", None)],
    )
    def test_seed_and_replications_must_be_integers(self, field, bad):
        # 1.7 and True would key the Philox stream of seed 1
        with pytest.raises(ValueError, match=field):
            config(**{"seed" if field == "seed" else "reps": bad})

    def test_numpy_integers_accepted(self):
        cfg = config(seed=np.uint64(3), reps=np.int64(2000))
        assert type(cfg.seed) is int and type(cfg.replications) is int
        result = estimate_type1(cfg)
        assert result.cells == estimate_type1(config(seed=3, reps=2000)).cells
        assert json.loads(result.to_json())["seed"] == 3

    @pytest.mark.parametrize(
        "field,kwargs,value",
        [
            ("tests", {"tests": ("T", "W", "T")}, "T"),
            ("alphas", {"alphas": (1e-2, 1e-3, 1e-2)}, 1e-2),
            ("delta_weights", {"tests": ("W_delta",), "deltas": (0.4, 0.1, 0.4)}, 0.4),
            ("delta_weights", {"tests": ("W_delta",), "deltas": (0.0, -0.0)}, -0.0),
            # distinct weights whose cell labels, W_delta[0.1], would repeat
            ("delta_weights", {"tests": ("W_delta",), "deltas": (0.1, 0.1000000001)}, "0.1"),
        ],
    )
    def test_repeated_entries_rejected(self, field, kwargs, value):
        with pytest.raises(ValueError, match=re.escape(f"{field} repeats {value!r}")):
            config(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [({"reps": 0}, "replications must be >= 1"), ({"alphas": ()}, "at least one significance"),
         ({"tests": ()}, "at least one test")],
        ids=["replications", "alphas", "tests"],
    )
    def test_empty_request_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            config(**kwargs)

    @pytest.mark.parametrize("run", [estimate_type1, null_distribution_sample])
    def test_workers_below_one(self, run, monkeypatch):
        # Refused before the run builds its draws.
        monkeypatch.setattr(sim, "_make_draws", lambda config: pytest.fail("draws built"))
        for workers in (0, -3):
            with pytest.raises(ValueError, match="workers"):
                run(config(reps=100), workers=workers)

    @pytest.mark.parametrize(
        "r,s",
        [
            (2**52 + 1, 1),  # 2R exceeds the exact float64 range
            (1, 2**52 + 1),
            (2**62, 500),  # 2R overflows int64
            (1_518_500_250, 1_518_500_250),  # (2R+1)*(2S+1) just past int64
            (2**31, 2**31),
        ],
    )
    def test_design_too_large_for_cell_key(self, r, s):
        with pytest.raises(ValueError, match=f"R={r}, S={s}"):
            config(r=r, s=s)

    def test_largest_designs_accepted(self):
        # (2R+1)**2 = 9223372030926249001 <= 2**63 - 1
        assert config(r=1_518_500_249, s=1_518_500_249).design.r_cases == 1_518_500_249
        assert config(r=2**52, s=1).design.r_cases == 2**52

    def test_delta_tests_without_weights(self):
        with pytest.raises(SimulationConfigError):
            config(tests=("W_delta",), deltas=())

    @pytest.mark.parametrize(
        "tests,deltas",
        [
            (("T", "W_delta"), ()),  # the W_delta cells would be dropped
            (("T", "W_cor_delta"), ()),
            (("T", "W"), (0.4,)),  # no cell would read the weight
        ],
    )
    def test_delta_tests_and_weights_come_together(self, tests, deltas):
        with pytest.raises(SimulationConfigError, match="come together"):
            config(tests=tests, deltas=deltas)
