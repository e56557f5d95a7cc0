"""Monte Carlo engine tests: determinism, sampling laws, lattice oracle."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from alleletest.model import DegeneratePrevalenceError, DesignConstants, MarkerSpec, PenetranceModel
from alleletest.sim import (
    _BLOCK,
    SimConfig,
    SimulationConfigError,
    _labels,
    _make_sampler,
    _stream,
    _tally_block,
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
           pi_hat=0.15, direction="toward_zero"):
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
        correction_direction=direction,
    )


@pytest.fixture(scope="module")
def million_run_500_q10():
    return estimate_type1(config(reps=1_000_000, seed=31))


class TestDrawCounts:
    """The one sampling law, ``_Sampler.draw``, on block 0 of a stream."""

    def test_zero_frequency_forces_zero_count(self):
        sampler = dataclasses.replace(_make_sampler(config(r=50, s=50)), q1_case=0.0)
        r1, s1 = sampler.draw(_stream(0, 0), 20)
        assert (r1 == 0).all() and (s1 > 0).any()

    def test_mean_matches_binomial_moments(self):
        # delta 0.3 puts the case M1 frequency at 0.145
        n = 100_000
        r1, _ = _make_sampler(config(delta=0.3, r=100, s=100)).draw(_stream(42, 0), n)
        expected = 200 * 0.145
        se = math.sqrt(200 * 0.145 * 0.855)
        assert abs(r1.mean() - expected) < 4 * se / math.sqrt(n)

    def test_fixed_seed_reproduces(self):
        for mode in ("allele", "genotype"):
            sampler = _make_sampler(config(delta=0.3, r=300, s=400, mode=mode))
            a = sampler.draw(_stream(7, 0), 1000)
            b = sampler.draw(_stream(7, 0), 1000)
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
        sampler = _make_sampler(config(delta=0.3, r=100, s=100, mode="genotype"))
        n = 50_000
        r1, _ = sampler.draw(_stream(3, 0), n)
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
        for direction in CORRECTION_DIRECTIONS:
            arrays = statistic_arrays(r1, n1, s1, n0, 0.15, weights, direction)
            np.testing.assert_array_equal(arrays.degenerate, np.arange(68) >= 64)
            np.testing.assert_array_equal(arrays.monomorphic, np.arange(68) >= 66)
            for stat in (arrays.t, arrays.w, arrays.w_cor, arrays.u, arrays.q_hat,
                         *arrays.w_delta.values(), *arrays.w_cor_delta.values()):
                assert np.isnan(stat[64:]).all()
            for i in range(64):
                table = (int(r1[i]), n1 - int(r1[i]), int(s1[i]), n0 - int(s1[i]))
                counts = AlleleCounts(*table)
                assert arrays.t[i] == t_statistic(counts)
                assert arrays.t[i] == pytest.approx(exact_t(*table), rel=1e-12)
                assert arrays.w[i] == w_statistic(counts, 0.15)
                assert arrays.w[i] == pytest.approx(exact_w_delta(*table, 0.15), rel=1e-12)
                assert arrays.w_cor[i] == w_corrected(counts, 0.15, direction=direction)
                assert arrays.u[i] == u_statistic(counts, 0.15)
                assert arrays.q_hat[i] == q_hat(counts, 0.15)
                assert arrays.q_hat[i] == pytest.approx(
                    exact_q_hat_delta(*table, 0.15), rel=1e-12
                )
                for d in weights:
                    assert arrays.w_delta[d][i] == w_delta_statistic(counts, d)
                    assert arrays.w_delta[d][i] == pytest.approx(
                        exact_w_delta(*table, d), rel=1e-12
                    )
                    assert arrays.w_cor_delta[d][i] == w_corrected(
                        counts, 0.15, direction=direction, delta_weight=d
                    )


def reference_tally(config, sampler, labels, z_values, block, size):
    """Per-replicate block tally: every draw through the kernel, counted one by one."""
    r1, s1 = sampler.draw(_stream(config.seed, block), size)
    arrays = statistic_arrays(r1, sampler.r_alleles, s1, sampler.s_alleles, config.pi_hat,
                              config.delta_weights, config.correction_direction)
    rejections = np.zeros((len(labels), len(z_values)), dtype=np.int64)
    for i, (test, dw) in enumerate(labels):
        stat = getattr(arrays, test.lower())  # the StatArrays field of each test
        magnitude = np.abs(stat if dw is None else stat[dw])
        for j, z in enumerate(z_values):
            # NaN (degenerate) never rejects.
            rejections[i, j] = int(np.count_nonzero(magnitude >= z))
    return rejections, int(np.count_nonzero(arrays.degenerate))


class TestCellTally:
    """The tally over distinct tables equals the per-replicate tally bit for bit."""

    SIZES = (1, 5, 50, 500, 5000, 100_000)

    @settings(max_examples=100, deadline=None)
    @given(
        mode=st.sampled_from(["allele", "genotype"]),
        direction=st.sampled_from(CORRECTION_DIRECTIONS),
        weights=st.lists(st.sampled_from([0.0, 0.15, 0.4, 0.5, 1.0]), unique=True, max_size=3),
        q1=st.sampled_from([0.0005, 0.002, 0.01, 0.1, 0.5]),
        r=st.sampled_from(SIZES),
        s=st.sampled_from(SIZES),
        size=st.integers(1, 4096),
        block=st.integers(0, 3),
        alphas=st.lists(st.sampled_from([1.0, 0.5, 0.05, 1e-3, 1e-6]), unique=True,
                        min_size=1, max_size=3),
    )
    @example(mode="allele", direction="toward_zero", weights=[0.0, 1.0], q1=0.5,
             r=100_000, s=100_000, size=_BLOCK, block=0, alphas=[0.5, 1e-3])
    @example(mode="genotype", direction="away_from_zero", weights=[0.0, 0.4, 1.0], q1=0.002,
             r=50, s=50, size=20_000, block=1, alphas=[1.0, 0.05])
    @example(mode="allele", direction="away_from_zero", weights=[1.0], q1=0.01,
             r=1, s=100_000, size=_BLOCK - 17, block=2, alphas=[1.0, 1e-3])
    def test_matches_reference_tally(self, mode, direction, weights, q1, r, s, size, block,
                                      alphas):
        tests = ("T", "W", "W_cor", "U") + (("W_delta", "W_cor_delta") if weights else ())
        cfg = config(q1=q1, r=r, s=s, reps=size, alphas=alphas, tests=tests, deltas=weights,
                     mode=mode, seed=block + 17, direction=direction)
        sampler = _make_sampler(cfg)
        labels = _labels(cfg)
        z_values = np.array([two_sided_critical_value(a) for a in cfg.alphas])
        got, got_degenerate = _tally_block(cfg, sampler, labels, z_values, block, size)
        want, want_degenerate = reference_tally(cfg, sampler, labels, z_values, block, size)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        assert got_degenerate == want_degenerate


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
            r1, _ = _make_sampler(cfg).draw(_stream(cfg.seed, 0), 50_000)
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
        ],
    )
    def test_repeated_entries_rejected(self, field, kwargs, value):
        with pytest.raises(ValueError, match=re.escape(f"{field} repeats {value!r}")):
            config(**kwargs)

    @pytest.mark.parametrize("run", [estimate_type1, null_distribution_sample])
    def test_workers_below_one(self, run):
        with pytest.raises(ValueError, match="workers"):
            run(config(reps=100), workers=0)

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
        cfg = config(tests=("W_delta",), deltas=())
        with pytest.raises(SimulationConfigError):
            estimate_type1(cfg)
